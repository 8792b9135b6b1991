//! One run of one workload: set up, measure a window, check, and reduce what
//! was seen to the named metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run measures a
//! shorter untraced and a traced window back to back (their difference is
//! the tracing overhead), replays requests through the server's layers
//! in-process, times the mechanisms in isolation, writes the span log, and
//! reports the per-layer metrics.

use std::path::Path;
use std::time::Instant;

use tpm_serve::Protocol;
use tpm_sync::StatsSnapshot;

use crate::layers::{self, Metrics};
use crate::native::{self, Grid, Part};
use crate::serve::{self, Kind, Served};
use crate::sim::{self, Sim};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{proc, spec};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, from the tables in [`spec`].
    pub unit: &'static str,
    /// Samples behind the value (segments for a median of segments,
    /// requests for a percentile, 1 for a single reading).
    pub samples: u64,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, cell visits, passes and seeds).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failures, and a warning if the generator did not keep
    /// its schedule.
    pub notes: Vec<String>,
    /// The metrics, in table order.
    pub values: Vec<Value>,
}

/// Per-segment rates and typical times, plus what the whole window adds up
/// to — the common shape all three workload families reduce to.
#[derive(Debug, Default)]
struct Summary {
    /// Completed operations per second, one value per segment.
    rate: Vec<f64>,
    /// Typical operation time in milliseconds, one value per segment.
    p50_ms: Vec<f64>,
    /// Operations completed inside the window.
    ops: u64,
    /// CPU milliseconds charged to the program under test over the window.
    cpu_ms: f64,
}

impl Summary {
    fn rate_median(&self) -> f64 {
        median(&self.rate).unwrap_or(0.0)
    }
}

/// A workload that is set up and ready for a window.
enum Ready {
    Served(Box<Served>),
    Grid(Box<Grid>),
    Sim(Box<Sim>),
}

fn kind_of(workload: &str) -> Option<Kind> {
    match workload {
        "serve_small" => Some(Kind::Small),
        "serve_json" => Some(Kind::Json),
        "serve_open" => Some(Kind::Open),
        _ => None,
    }
}

fn build(workload: &str, seed: u64) -> Result<Ready, String> {
    Ok(match workload {
        "native_fine" => Ready::Grid(Box::new(Grid::build(true)?)),
        "native_coarse" => Ready::Grid(Box::new(Grid::build(false)?)),
        "sim" => Ready::Sim(Box::new(Sim::build(seed)?)),
        w => match kind_of(w) {
            Some(kind) => Ready::Served(Box::new(Served::build(kind)?)),
            None => return Err(format!("unknown workload {w:?}")),
        },
    })
}

fn tear_down(ready: Ready) {
    if let Ready::Served(s) = ready {
        s.shut_down();
    }
}

/// Refuses a configuration the host cannot carry: generator threads,
/// connections and job threads are each bounded by the core count.
pub fn check_host() -> Result<(), String> {
    let n = proc::nproc();
    if spec::CONNECTIONS > n || spec::MAX_JOB_THREADS > n {
        return Err(format!(
            "this host has {n} core(s); the workloads need {} generator threads and {}-thread jobs",
            spec::CONNECTIONS,
            spec::MAX_JOB_THREADS
        ));
    }
    Ok(())
}

/// What a window leaves behind besides the summary: the raw logs the traced
/// run reads per-layer numbers from.
enum Logs {
    Served(serve::ServeLog),
    Grid(native::GridLog),
    Sim(sim::SimLog),
}

fn seg_seconds(seconds: f64) -> f64 {
    seconds / spec::SEGMENTS as f64
}

fn measure(
    ready: &mut Ready,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (Summary, Logs) {
    let cpu_before = proc::process_cpu_ms();
    match ready {
        Ready::Served(served) => {
            let mut log = serve::run_window(served, seed, seconds, tracer.is_some());
            out.attempted += log.log.attempted;
            out.failed += log.log.failed;
            out.notes.extend(log.log.errors.iter().cloned());
            if let (Some(t), Some(spans)) = (tracer.as_deref_mut(), log.log.tracer.take()) {
                t.absorb(spans);
            }
            let mut sum = Summary {
                cpu_ms: log.server_cpu_ms,
                ..Summary::default()
            };
            for seg in &log.log.segs {
                sum.ops += seg.rtt_ns.len() as u64;
                sum.rate
                    .push(seg.rtt_ns.len() as f64 / seg_seconds(seconds));
                // `serve_open` is here for the millisecond jobs: its typical
                // time is the large `sum` jobs' (one request in ten), not
                // the 10 us job's, whose latency is four thread wake-ups
                // and moves with the host, not with kernels or runtimes.
                // Sorted copy: the log keeps replies in arrival order,
                // paired with their execution times and classes.
                let mut rtt = match served.kind() {
                    Kind::Open => seg.big_rtt_ns.clone(),
                    Kind::Small | Kind::Json => seg.rtt_ns.clone(),
                };
                rtt.sort_unstable();
                if let Some(p50) = percentile(&rtt, 0.5) {
                    sum.p50_ms.push(p50 / 1e6);
                }
            }
            (sum, Logs::Served(log))
        }
        Ready::Grid(grid) => {
            let log = native::run_window(grid, seed, seconds, tracer);
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.notes.extend(log.errors.iter().cloned());
            let sum = Summary {
                rate: log
                    .runs
                    .iter()
                    .map(|&r| r as f64 / seg_seconds(seconds))
                    .collect(),
                p50_ms: log.segment_geomeans(&grid.cells, &[Part::Loop, Part::Task]),
                ops: log.runs.iter().sum(),
                cpu_ms: proc::process_cpu_ms() - cpu_before,
            };
            (sum, Logs::Grid(log))
        }
        Ready::Sim(sim) => {
            let log = sim::run_window(sim, seed, seconds, tracer);
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.notes.extend(log.errors.iter().cloned());
            let sum = Summary {
                rate: log.segment_seed_rates(),
                p50_ms: log.segment_geomeans(),
                ops: log.desim_total().0,
                cpu_ms: proc::process_cpu_ms() - cpu_before,
            };
            (sum, Logs::Sim(log))
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("end-to-end metric is in the table")
}

/// How late the open-loop generator ran at the 99th percentile (ms) and how
/// many threads it used. A generator later than [`spec::MAX_LATE_P99_MS`]
/// did not offer the schedule it claims: the outputs are still correct, but
/// the run's latencies say more about the host than about the program, and
/// the run says so.
fn generator_report(logs: &Logs, out: &mut Outcome) -> (f64, usize) {
    let Logs::Served(log) = logs else {
        return (0.0, 0);
    };
    let mut late = log.late_ns.clone();
    late.sort_unstable();
    let late_p99_ms = percentile(&late, 0.99).unwrap_or(0.0) / 1e6;
    if late_p99_ms > spec::MAX_LATE_P99_MS {
        out.notes.push(format!(
            "INVALID RUN: generator ran late, p99 {late_p99_ms:.3} ms after the due time (limit {} ms)",
            spec::MAX_LATE_P99_MS
        ));
    }
    (late_p99_ms, log.log.threads)
}

/// An untraced run: [`spec::SETUPS`] timed set-ups, one measured window,
/// the end-to-end metrics.
pub fn untraced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    check_host()?;
    let mut out = Outcome::default();
    // The first set-up is the one measured. Peak memory is read before the
    // other set-ups run: they only exist to time set-up more than once, and
    // what the allocator keeps of them must not count against the workload.
    let mut setups = Vec::with_capacity(spec::SETUPS);
    let t = Instant::now();
    let mut ready = build(workload, seed)?;
    setups.push(t.elapsed().as_secs_f64());
    let (sum, logs) = measure(&mut ready, seed, seconds, None, &mut out);
    let peak_rss_mb = proc::peak_rss_mb();
    tear_down(ready);
    for _ in 1..spec::SETUPS {
        let t = Instant::now();
        let again = build(workload, seed)?;
        setups.push(t.elapsed().as_secs_f64());
        tear_down(again);
    }
    generator_report(&logs, &mut out);

    let mut value = |name: &str, value: f64, samples: u64| {
        out.values.push(Value {
            name: name.to_string(),
            value,
            unit: unit_of(name),
            samples,
        })
    };
    value(
        "setup_s",
        median(&setups).expect("set-ups were timed"),
        setups.len() as u64,
    );
    value("ops_per_s", sum.rate_median(), sum.rate.len() as u64);
    value(
        "p50_ms",
        median(&sum.p50_ms).unwrap_or(0.0),
        sum.p50_ms.len() as u64,
    );
    value(
        "cpu_ms_per_kop",
        sum.cpu_ms / (sum.ops.max(1) as f64 / 1e3),
        sum.ops,
    );
    value("peak_rss_mb", peak_rss_mb, 1);
    let full = sum.p50_ms.len().min(sum.rate.len());
    if full < spec::SEGMENTS {
        // Only a window much shorter than `RUN_SECONDS` (the smoke run) has
        // segments in which some cell was never visited; the medians then
        // rest on the segments that are complete.
        out.notes.push(format!(
            "window too short: {full} of {} segments completed an operation of every kind",
            spec::SEGMENTS
        ));
    }
    Ok(out)
}

/// Scheduler counters of the pooled runtimes reduced to the per-layer
/// metrics; `core_ns` is the window's length times the core count.
fn runtime_metrics(stats: &[(&'static str, StatsSnapshot)], core_ns: f64, m: &mut Metrics) {
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    for (runtime, s) in stats {
        m.insert(format!("{runtime}.parks"), s.parks as f64);
        m.insert(format!("{runtime}.busy_share"), s.busy_ns as f64 / core_ns);
        match *runtime {
            "forkjoin" => {
                m.insert("forkjoin.chunks".into(), s.chunks as f64);
                m.insert("forkjoin.loop_claims".into(), s.loop_claims as f64);
                m.insert(
                    "forkjoin.barrier_wait_share".into(),
                    ratio(s.barrier_wait_ns, s.busy_ns),
                );
            }
            "worksteal" => {
                m.insert(
                    "worksteal.steal_hit_ratio".into(),
                    ratio(s.steals, s.failed_steals),
                );
                m.insert("worksteal.spawned".into(), s.spawned as f64);
            }
            "actors" => {
                m.insert("actors.executed".into(), s.executed as f64);
            }
            _ => {}
        }
    }
}

fn us_median(ns: &mut [u32]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 0.5).unwrap_or(0.0) / 1e3
}

/// Per-layer numbers a served window shows: queue wait and outcomes from
/// the server's own counters, execution time and overhead from the replies.
fn served_metrics(log: &serve::ServeLog, delta: &tpm_metrics::text::Scrape, m: &mut Metrics) {
    let us = |q: f64| {
        delta
            .histogram_quantile("tpm_queue_wait_seconds", &[], q)
            .unwrap_or(0.0)
            * 1e6
    };
    m.insert("serve.queue_wait_p50_us".into(), us(0.5));
    m.insert("serve.queue_wait_p99_us".into(), us(0.99));
    let outcome = |o: &str| {
        delta
            .get("tpm_requests_total", &[("outcome", o)])
            .unwrap_or(0.0)
    };
    m.insert("serve.shed".into(), outcome("overloaded"));
    m.insert(
        "serve.deadline".into(),
        outcome("deadline") + outcome("watchdog"),
    );
    m.insert(
        "serve.bytes_read".into(),
        delta.sum("serve_bytes_read_total"),
    );
    m.insert(
        "serve.bytes_written".into(),
        delta.sum("serve_bytes_written_total"),
    );

    let (mut rtt, mut exec, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut big_rtt, mut big_overhead) = (Vec::new(), Vec::new());
    for seg in &log.log.segs {
        for (i, (&r, &e)) in seg.rtt_ns.iter().zip(&seg.exec_ns).enumerate() {
            rtt.push(r);
            exec.push(e);
            overhead.push(r.saturating_sub(e));
            if seg.class.get(i) == Some(&crate::client::BIG_CLASS) {
                big_rtt.push(r);
                big_overhead.push(r.saturating_sub(e));
            }
        }
    }
    m.insert("serve.exec_p50_us".into(), us_median(&mut exec));
    m.insert("serve.overhead_p50_us".into(), us_median(&mut overhead));
    m.insert("client.big_rtt_p50_us".into(), us_median(&mut big_rtt));
    m.insert(
        "client.big_overhead_p50_us".into(),
        us_median(&mut big_overhead),
    );
    rtt.sort_unstable();
    m.insert(
        "client.p99_ms".into(),
        percentile(&rtt, 0.99).unwrap_or(0.0) / 1e6,
    );
}

/// A traced run: the per-layer metrics, and the span log written to
/// `out_dir/<workload>.trace.json`.
pub fn traced(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    check_host()?;
    let mut out = Outcome::default();
    let mut m = Metrics::new();
    let window = seconds / 3.0;
    let core_ns = window * 1e9 * proc::nproc() as f64;
    let mut ready = build(workload, seed)?;
    let mut tracer = Tracer::new(Instant::now(), 9);

    // Same seed, same inputs: the two windows differ only in the tracing.
    let (plain, _) = measure(&mut ready, seed, window, None, &mut out);
    let before = match &ready {
        Ready::Served(s) => Some(s.scrape()?),
        _ => None,
    };
    let pooled_before = match &ready {
        Ready::Grid(g) => g.pooled_stats(),
        _ => Vec::new(),
    };
    let (with_spans, logs) = measure(&mut ready, seed, window, Some(&mut tracer), &mut out);
    let (late_p99_ms, gen_threads) = generator_report(&logs, &mut out);
    m.insert("gen.late_p99_ms".into(), late_p99_ms);
    m.insert("gen.threads".into(), gen_threads as f64);
    if plain.rate_median() > 0.0 {
        m.insert(
            "trace.overhead_share".into(),
            (plain.rate_median() - with_spans.rate_median()) / plain.rate_median(),
        );
    }

    // What the traced window itself shows about the layers it reached, and
    // which requests the replay walks: the workload's own, or the
    // `serve_open` catalog where the workload sends none.
    let registry_of = || std::sync::Arc::new(tpm_harness::jobs::registry());
    let (registry, (requests, classes), replay_proto) = match (&ready, &logs) {
        (Ready::Served(served), Logs::Served(log)) => {
            let delta = served
                .scrape()?
                .delta(&before.expect("scraped before the window"));
            served_metrics(log, &delta, &mut m);
            runtime_metrics(&serve::runtime_stats(&delta), core_ns, &mut m);
            (
                std::sync::Arc::clone(&served.registry),
                served.request_list(seed, 1000),
                served.protocol(),
            )
        }
        (Ready::Grid(grid), Logs::Grid(log)) => {
            let stats: Vec<_> = grid
                .pooled_stats()
                .into_iter()
                .zip(pooled_before)
                .map(|((name, after), (_, before))| (name, after - before))
                .collect();
            runtime_metrics(&stats, core_ns, &mut m);
            for (i, cell) in grid.cells.iter().enumerate() {
                if let Some(ms) = log.cell_ms(i) {
                    m.insert(format!("kernels.body_ms.{}", cell.label()), ms);
                }
            }
            let geo = |parts: &[Part]| median(&log.segment_geomeans(&grid.cells, parts));
            let loops = geo(&[Part::Loop]);
            m.insert("native.loop_geomean_ms".into(), loops.unwrap_or(0.0));
            m.insert(
                "native.task_geomean_ms".into(),
                geo(&[Part::Task]).unwrap_or(0.0),
            );
            if let (Some(l), Some(s)) = (loops, geo(&[Part::Seq])) {
                m.insert("native.seq_ratio".into(), l / s);
            }
            (
                registry_of(),
                layers::default_replay_list(),
                Protocol::Binary,
            )
        }
        (Ready::Sim(_), Logs::Sim(log)) => {
            let passes: Vec<f64> = log.pass_ms.iter().flatten().copied().collect();
            m.insert("sim.figure_pass_ms".into(), median(&passes).unwrap_or(0.0));
            let (seeds, secs) = log.desim_total();
            if secs > 0.0 {
                m.insert("desim.seeds_per_s".into(), seeds as f64 / secs);
                m.insert(
                    "desim.requests_per_s".into(),
                    log.desim_requests as f64 / secs,
                );
                m.insert(
                    "desim.virtual_speedup".into(),
                    log.desim_virtual_ns as f64 / 1e9 / secs,
                );
            }
            (
                registry_of(),
                layers::default_replay_list(),
                Protocol::Binary,
            )
        }
        _ => unreachable!("a workload's logs are of its own kind"),
    };
    tear_down(ready);

    let mut replay_tracer = Tracer::new(Instant::now(), 10);
    m.extend(layers::replay(
        &registry,
        &requests,
        &classes,
        replay_proto,
        &mut replay_tracer,
    ));
    m.extend(layers::probe());

    tracer.absorb(replay_tracer);
    let path = out_dir.join(format!("{workload}.trace.json"));
    trace::write_chrome(&path, &tracer.spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    for (name, st) in trace::self_times(&tracer.spans) {
        println!(
            "span {workload} {name} count {} total_ms {:.3} self_ms {:.3}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }

    for (name, unit, _) in spec::per_layer() {
        let value = m.remove(&name).unwrap_or(0.0);
        out.values.push(Value {
            name,
            value,
            unit,
            samples: 1,
        });
    }
    debug_assert!(m.is_empty(), "metrics not in the per-layer table: {m:?}");
    Ok(out)
}
