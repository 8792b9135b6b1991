//! The `sim` workload: regenerate the simulated 36-core figures (with the
//! paper's claim checks) and sweep desim seeds over the real `tpm-serve`
//! engine state machines, alternating, until the window closes.
//!
//! Deterministic by construction, so the correctness gate is strict: every
//! figure pass must equal the first one point for point, `check_claims`
//! must come back empty for Figs. 1–10, and no desim seed may violate an
//! invariant.

use std::time::Instant;

use tpm_core::{Figure, JobRegistry};
use tpm_desim::DesimConfig;
use tpm_harness::experiments as exp;

use crate::spec;
use crate::stats::{geomean, median};
use crate::trace::Tracer;

type Render = fn() -> Figure;

/// The figures of one pass, in order; `check_claims` covers the first ten.
const FIGURES: [(&str, Render); 11] = [
    ("fig1_axpy", exp::fig1_axpy),
    ("fig2_sum", exp::fig2_sum),
    ("fig3_matvec", exp::fig3_matvec),
    ("fig4_matmul", exp::fig4_matmul),
    ("fig5_fib", exp::fig5_fib),
    ("fig6_bfs", exp::fig6_bfs),
    ("fig7_hotspot", exp::fig7_hotspot),
    ("fig8_lud", exp::fig8_lud),
    ("fig9_lavamd", exp::fig9_lavamd),
    ("fig10_srad", exp::fig10_srad),
    ("numasim", exp::numasim_figure),
];

/// The desim sweep `tpm-harness desim` runs by default, starting at `seed`.
fn desim_config(seed: u64) -> DesimConfig {
    let svc = tpm_harness::cli::ServiceOpts::default();
    DesimConfig {
        seed,
        clients: svc.clients,
        requests_per_client: svc.requests,
        workers: svc.workers,
        queue_capacity: svc.queue,
        max_threads: svc.max_threads,
        protocol: svc.protocol,
        size: svc.size,
        threads: svc.job_threads,
        gap_us: svc.gap_us,
        ..DesimConfig::default()
    }
}

/// A built `sim` workload: the job registry desim dispatches through and
/// the reference figures every later pass must reproduce.
#[derive(Debug)]
pub struct Sim {
    registry: JobRegistry,
    reference: Vec<Figure>,
}

impl Sim {
    /// Builds the registry, renders the reference figure pass, checks its
    /// claims, and runs a first desim seed. Everything here is set-up time.
    pub fn build(seed: u64) -> Result<Sim, String> {
        let registry = tpm_harness::jobs::registry();
        let reference: Vec<Figure> = FIGURES.iter().map(|(_, f)| f()).collect();
        for (no, fig) in reference.iter().take(10).enumerate() {
            let violations = exp::check_claims(no + 1, fig);
            if !violations.is_empty() {
                return Err(format!("claims violated: {violations:?}"));
            }
        }
        let report = tpm_desim::run(&desim_config(seed), &registry);
        if report.failed() {
            return Err(report.render_failure());
        }
        Ok(Sim {
            registry,
            reference,
        })
    }
}

/// What a window of the `sim` workload produced.
#[derive(Debug, Default)]
pub struct SimLog {
    /// `figure_ms[segment][figure]`: render times, milliseconds.
    pub figure_ms: Vec<Vec<Vec<f64>>>,
    /// Whole-pass times per segment, milliseconds.
    pub pass_ms: Vec<Vec<f64>>,
    /// Per segment: desim seeds run and the wall seconds they took.
    pub desim: Vec<(u64, f64)>,
    /// Requests the simulated clients sent, over all seeds.
    pub desim_requests: u64,
    /// Virtual nanoseconds simulated, over all seeds.
    pub desim_virtual_ns: u64,
    /// Figure passes plus desim seeds run.
    pub attempted: u64,
    /// Passes that differed from the reference or broke a claim, plus seeds
    /// that violated an invariant.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
}

/// Alternates one figure pass and [`spec::SIM_DESIM_BATCH`] desim seeds
/// (consecutive from `seed`) until `seconds` have passed.
pub fn run_window(sim: &Sim, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> SimLog {
    let mut log = SimLog {
        figure_ms: vec![vec![Vec::new(); FIGURES.len()]; spec::SEGMENTS],
        pass_ms: vec![Vec::new(); spec::SEGMENTS],
        desim: vec![(0, 0.0); spec::SEGMENTS],
        ..SimLog::default()
    };
    let seg_s = seconds / spec::SEGMENTS as f64;
    let start = Instant::now();
    let segment = |t: Instant| {
        let seg = ((t - start).as_secs_f64() / seg_s) as usize;
        (seg < spec::SEGMENTS).then_some(seg)
    };
    let mut next_seed = seed;
    let mut pass = 0u64;
    while (Instant::now() - start).as_secs_f64() < seconds {
        let pass_start = Instant::now();
        log.attempted += 1;
        let mut wrong = Vec::new();
        for (i, (name, render)) in FIGURES.iter().enumerate() {
            let t = Instant::now();
            let fig = render();
            let done = Instant::now();
            if let Some(seg) = segment(done) {
                log.figure_ms[seg][i].push((done - t).as_secs_f64() * 1e3);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("sim.figure", pass, "sim.pass", t, done);
            }
            if fig.series != sim.reference[i].series {
                wrong.push(format!("{name} differs from the first pass"));
            }
            if i < 10 {
                wrong.extend(exp::check_claims(i + 1, &fig));
            }
        }
        let pass_end = Instant::now();
        if let Some(seg) = segment(pass_end) {
            log.pass_ms[seg].push((pass_end - pass_start).as_secs_f64() * 1e3);
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("sim.pass", pass, "", pass_start, pass_end);
        }
        if !wrong.is_empty() {
            log.failed += 1;
            log.errors.extend(wrong.into_iter().take(3));
        }

        let batch_start = Instant::now();
        for _ in 0..spec::SIM_DESIM_BATCH {
            let report = tpm_desim::run(&desim_config(next_seed), &sim.registry);
            next_seed = next_seed.wrapping_add(1);
            log.attempted += 1;
            log.desim_requests += report.stats.requests;
            log.desim_virtual_ns += report.virtual_ns;
            if report.failed() {
                log.failed += 1;
                log.errors.push(report.render_failure());
            }
        }
        let batch_end = Instant::now();
        if let Some(seg) = segment(batch_end) {
            log.desim[seg].0 += spec::SIM_DESIM_BATCH;
            log.desim[seg].1 += (batch_end - batch_start).as_secs_f64();
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("desim.sweep", pass, "", batch_start, batch_end);
        }
        pass += 1;
    }
    log.errors.truncate(5);
    log
}

impl SimLog {
    /// Per segment, the geometric mean over the figures of each figure's
    /// median render time, milliseconds.
    pub fn segment_geomeans(&self) -> Vec<f64> {
        self.figure_ms
            .iter()
            .filter_map(|seg| {
                let medians: Option<Vec<f64>> = seg.iter().map(|s| median(s)).collect();
                geomean(&medians?)
            })
            .collect()
    }

    /// Per segment with at least one finished sweep, desim seeds per second
    /// of the time spent sweeping.
    pub fn segment_seed_rates(&self) -> Vec<f64> {
        self.desim
            .iter()
            .filter(|(n, s)| *n > 0 && *s > 0.0)
            .map(|(n, s)| *n as f64 / s)
            .collect()
    }

    /// Desim seeds run inside the window's segments, and the wall seconds
    /// they took.
    pub fn desim_total(&self) -> (u64, f64) {
        self.desim
            .iter()
            .fold((0, 0.0), |(n, s), (dn, ds)| (n + dn, s + ds))
    }
}
