//! Paper-scale simulated experiments: one function per figure.
//!
//! Each returns a [`Figure`] whose series are the registry's variants (the
//! paper's six plus the actor extension) swept over the paper's thread axis
//! on the simulated 36-core testbed.
//!
//! Every figure simulates each distinct `(policy, phase, threads)` cell
//! once. Models that share a [`sim_policy`] share its points, so the
//! `actor_for` and `actor_task` columns equal `cilk_spawn`'s and
//! `cilk_for`'s by construction. [`Simulator::run_phased`] simulates each
//! distinct phase once and folds the results in phase order; a phase's
//! result does not depend on where it sits, so the points are bit-identical
//! to simulating every cell.

use tpm_core::{Figure, Model, Series};
use tpm_kernels::{Axpy, Fib, Matmul, Matvec, Sum};
use tpm_rodinia::{Bfs, HotSpot, LavaMd, Lud, Srad};
use tpm_sim::{
    CostModel, DequeKind, LoopPolicy, PhasedWorkload, Placement, PlacementRow, SimResult,
    Simulator, VictimPolicy,
};
use tpm_sync::json;

/// The thread axis of the paper's figures (up to the 36 physical cores).
pub const THREADS: [usize; 7] = [1, 2, 4, 8, 16, 32, 36];

/// Maps a paper variant to its simulator scheduling policy.
pub fn sim_policy(model: Model) -> LoopPolicy {
    match model {
        Model::OmpFor => LoopPolicy::WorksharingStatic,
        Model::OmpTask => LoopPolicy::TaskChunks {
            kind: DequeKind::Locked,
        },
        Model::CilkFor => LoopPolicy::WorkstealingSplit { grain: 0 },
        Model::CilkSpawn => LoopPolicy::TaskChunks {
            kind: DequeKind::LockFree,
        },
        Model::CxxThread => LoopPolicy::ThreadPerChunk,
        Model::CxxAsync => LoopPolicy::RecursiveSpawn,
        // Actor scatter = one mailbox activation per BASE chunk on lock-free
        // deques (same queueing shape as eager chunk tasks); actor parcels =
        // recursive splitting balanced by activation stealing.
        Model::ActorFor => LoopPolicy::TaskChunks {
            kind: DequeKind::LockFree,
        },
        Model::ActorTask => LoopPolicy::WorkstealingSplit { grain: 0 },
    }
}

/// One series per `(label, key)` case, swept over `threads`. The simulator
/// is deterministic, so cases with equal keys share one run: a later case
/// gets a clone of the first such case's points.
fn sweep<K: Copy + PartialEq>(
    title: &str,
    threads: &[usize],
    cases: &[(&str, K)],
    run: impl Fn(K, usize) -> SimResult,
) -> Figure {
    let mut fig = Figure::new(title);
    for (i, &(label, key)) in cases.iter().enumerate() {
        let first = cases.iter().position(|&(_, k)| k == key).unwrap_or(i);
        let mut s = Series::new(label);
        if first < i {
            s.points = fig.series[first].points.clone();
        } else {
            for &p in threads {
                s.push(p, run(key, p).seconds());
            }
        }
        fig.series.push(s);
    }
    fig
}

/// Sweeps every registry model's [`sim_policy`] over `wl`; a loop figure
/// is one phase. Each distinct policy is simulated once.
fn sweep_models(title: &str, wl: PhasedWorkload) -> Figure {
    let sim = Simulator::paper_testbed();
    let cases = Model::ALL.map(|m| (m.name(), sim_policy(m)));
    sweep(title, &THREADS, &cases, |k, p| sim.run_phased(k, &wl, p))
}

/// Fig. 1: Axpy, N = 100 M.
pub fn fig1_axpy() -> Figure {
    sweep_models(
        "Fig.1 Axpy (N=100M, simulated 2x18-core Xeon)",
        PhasedWorkload::new(vec![Axpy::paper().sim_workload()]),
    )
}

/// Fig. 2: Sum, N = 100 M (worksharing + reduction).
pub fn fig2_sum() -> Figure {
    sweep_models(
        "Fig.2 Sum (N=100M, simulated)",
        PhasedWorkload::new(vec![Sum::paper().sim_workload()]),
    )
}

/// Fig. 3: Matvec, n = 40 k.
pub fn fig3_matvec() -> Figure {
    sweep_models(
        "Fig.3 Matvec (n=40k, simulated)",
        PhasedWorkload::new(vec![Matvec::paper().sim_workload()]),
    )
}

/// Fig. 4: Matmul, n = 2 k.
pub fn fig4_matmul() -> Figure {
    sweep_models(
        "Fig.4 Matmul (n=2k, simulated)",
        PhasedWorkload::new(vec![Matmul::paper().sim_workload()]),
    )
}

/// Fig. 5: Fibonacci(40) — `omp_task` (locked deques) vs `cilk_spawn`
/// (lock-free deques). The C++11 recursive version is absent, as in the
/// paper ("the system hangs"); `tpm-rawthreads::fib_thread_per_call`
/// reproduces that failure natively.
pub fn fig5_fib() -> Figure {
    let sim = Simulator::paper_testbed();
    let fw = Fib::paper().sim_workload();
    let cases = [
        (Model::OmpTask.name(), DequeKind::Locked),
        (Model::CilkSpawn.name(), DequeKind::LockFree),
        // Extension beyond the paper: the actor family's recursive parcels
        // also schedule over lock-free deques of activations.
        (Model::ActorTask.name(), DequeKind::LockFree),
    ];
    sweep(
        "Fig.5 Fibonacci(40) task parallelism (simulated)",
        &THREADS,
        &cases,
        |kind, p| sim.run_fib(kind, &fw, p),
    )
}

/// Fig. 6: Rodinia BFS, 16 M nodes.
pub fn fig6_bfs() -> Figure {
    let b = Bfs::paper();
    sweep_models(
        "Fig.6 Rodinia BFS (16M nodes, simulated)",
        b.sim_workload(Bfs::paper_levels()),
    )
}

/// Fig. 7: Rodinia HotSpot, 8192² grid.
pub fn fig7_hotspot() -> Figure {
    sweep_models(
        "Fig.7 Rodinia HotSpot (8192^2, simulated)",
        HotSpot::paper().sim_workload(),
    )
}

/// Fig. 8: Rodinia LUD, 2048².
pub fn fig8_lud() -> Figure {
    sweep_models(
        "Fig.8 Rodinia LUD (2048^2, simulated)",
        Lud::paper().sim_workload(16),
    )
}

/// Fig. 9: Rodinia LavaMD, 10³ boxes.
pub fn fig9_lavamd() -> Figure {
    sweep_models(
        "Fig.9 Rodinia LavaMD (1000 boxes, simulated)",
        LavaMd::paper().sim_workload(),
    )
}

/// Fig. 10: Rodinia SRAD, 2048².
pub fn fig10_srad() -> Figure {
    sweep_models(
        "Fig.10 Rodinia SRAD (2048^2, simulated)",
        Srad::paper().sim_workload(),
    )
}

/// Extended thread axis including the testbed's hyperthreads (2-way SMT,
/// 72 hardware threads).
pub const THREADS_HT: [usize; 9] = [1, 2, 4, 8, 16, 32, 36, 54, 72];

/// Extension experiment (not a paper figure): sweeping past the 36 physical
/// cores into hyperthread territory. Compute-bound Matmul keeps gaining
/// (SMT fills pipeline bubbles, aggregate ≈ 1.3×); bandwidth-bound Axpy
/// gains nothing (the memory bus was already saturated).
pub fn ht_extension() -> Figure {
    let sim = Simulator::paper_testbed();
    let cases = [
        ("matmul_2k", Matmul::paper().sim_workload()),
        ("axpy_100m", Axpy::paper().sim_workload()),
    ];
    sweep(
        "Extension: hyperthread sweep (omp_for, simulated)",
        &THREADS_HT,
        &cases,
        |wl, p| sim.run_loop(LoopPolicy::WorksharingStatic, &wl, p),
    )
}

/// Thread axis of the NUMA placement sweep: within one socket (8), exactly
/// one socket (18), spilling across (24), and both sockets full (36).
pub const NUMA_THREADS: [usize; 4] = [8, 18, 24, 36];

/// Extension experiment (`numasim`): NUMA placement × victim-policy sweep of
/// the Fig. 5 task tree on the simulated two-socket testbed. Cross-node
/// steals pay [`tpm_sim::CostModel::steal_remote_penalty`]; node-aware
/// victim ordering earns its keep once workers span both sockets.
pub fn numasim_figure() -> Figure {
    numasim_figure_from(&numasim_rows())
}

/// The `numasim` sweep's one simulation pass: every placement × victim
/// policy cell at [`NUMA_THREADS`]. Both [`numasim_figure_from`] and
/// [`numasim_json`] read these rows, so `numasim --json-out` simulates each
/// cell once.
pub fn numasim_rows() -> Vec<PlacementRow> {
    let sim = Simulator::paper_testbed();
    tpm_sim::placement_sweep(&sim, &Fib::paper().sim_workload(), &NUMA_THREADS)
}

/// [`numasim_figure`] from already simulated [`numasim_rows`]: one series
/// per placement × policy, one point per thread count.
pub fn numasim_figure_from(rows: &[PlacementRow]) -> Figure {
    let mut fig = Figure::new("Extension: NUMA placement x victim policy, Fib(40) (simulated)");
    for placement in [Placement::Packed, Placement::Scatter] {
        for policy in [VictimPolicy::Random, VictimPolicy::NodeAware] {
            let mut s = Series::new(format!("{}/{}", placement.name(), policy.name()));
            for r in rows
                .iter()
                .filter(|r| r.placement == placement && r.policy == policy)
            {
                s.push(r.threads, r.makespan_ns / 1e9);
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Cost model of the pre-padding Chase–Lev deque: `top`, `bottom` and the
/// per-worker stats shared one cache line, so with thieves active every
/// owner push/pop ping-pongs that line (one extra coherence round trip,
/// ~40 ns) and every steal probe pays a full cross-core miss on a line the
/// owner keeps dirtying (~100 ns). The padded layout (one line per field,
/// `tpm_sync::CachePadded`) is the calibrated baseline.
fn unpadded_cost() -> CostModel {
    let mut c = CostModel::calibrated();
    c.push_lockfree_ns += 40.0;
    c.pop_lockfree_ns += 40.0;
    c.steal_attempt_ns += 100.0;
    c.steal_success_ns += 100.0;
    c
}

/// Machine-readable `numasim` sweep — one row per placement × policy ×
/// thread count of `rows` (see [`numasim_rows`]) with steal counts, plus
/// the padded-vs-unpadded deque-layout comparison on the same steal-heavy
/// tree.
pub fn numasim_json(rows: &[PlacementRow]) -> String {
    let sim = Simulator::paper_testbed();
    let fw = Fib::paper().sim_workload();
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"numasim\",\n");
    out.push_str("  \"machine\": \"xeon_e5_2699v3\",\n");
    out.push_str(&format!(
        "  \"workload\": \"fib{}_cutoff{}\",\n  \"rows\": [\n",
        fw.n, fw.leaf_cutoff
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"placement\": \"{}\", \"policy\": \"{}\", \"threads\": {}, \
             \"makespan_ms\": {}, \"steals\": {}, \"remote_steals\": {}}}{}\n",
            r.placement.name(),
            r.policy.name(),
            r.threads,
            json::fixed(r.makespan_ns / 1e6, 3),
            r.steals,
            r.remote_steals,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"padding\": [\n");
    let unpadded = Simulator {
        cost: unpadded_cost(),
        ..sim
    };
    for (i, &p) in NUMA_THREADS.iter().enumerate() {
        let pad = sim.run_fib(DequeKind::LockFree, &fw, p);
        let raw = unpadded.run_fib(DequeKind::LockFree, &fw, p);
        out.push_str(&format!(
            "    {{\"threads\": {p}, \"padded_ms\": {}, \"unpadded_ms\": {}, \
             \"speedup\": {}}}{}\n",
            json::fixed(pad.makespan_ns / 1e6, 3),
            json::fixed(raw.makespan_ns / 1e6, 3),
            json::fixed(raw.makespan_ns / pad.makespan_ns, 3),
            if i + 1 < NUMA_THREADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// All ten figures, in order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        fig1_axpy(),
        fig2_sum(),
        fig3_matvec(),
        fig4_matmul(),
        fig5_fib(),
        fig6_bfs(),
        fig7_hotspot(),
        fig8_lud(),
        fig9_lavamd(),
        fig10_srad(),
    ]
}

/// Checks a figure against the paper's qualitative claims; returns human-
/// readable violations (empty = all claims reproduced).
pub fn check_claims(fig_no: usize, fig: &Figure) -> Vec<String> {
    let mut violations = Vec::new();
    let at = |label: &str, p: usize| -> f64 {
        fig.series
            .iter()
            .find(|s| s.label == label)
            .and_then(|s| s.at(p))
            .unwrap_or(f64::NAN)
    };
    // The paper's superlative claims ("X is slowest") quantify over the
    // paper's own variants; the actor extension — which deliberately shares
    // scheduling shapes with them in the simulator — is excluded here.
    let paper_loser = |p: usize| -> Option<String> {
        fig.series
            .iter()
            .filter(|s| {
                Model::parse(&s.label).is_some_and(|m| m.family() != tpm_core::Family::Actors)
            })
            .filter_map(|s| s.at(p).map(|v| (s.label.clone(), v)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, _)| l)
    };
    let mut claim = |ok: bool, text: &str| {
        if !ok {
            violations.push(format!("Fig.{fig_no}: {text}"));
        }
    };
    match fig_no {
        1 | 3 | 4 | 6 => {
            // cilk_for is the worst data-parallel variant at scale.
            for &p in &[8, 16] {
                claim(
                    paper_loser(p).as_deref() == Some("cilk_for"),
                    &format!("cilk_for should be slowest at {p} threads"),
                );
            }
            if fig_no == 1 {
                // "around two times better than cilk_for"
                let ratio = at("cilk_for", 16) / at("omp_for", 16);
                claim(
                    (1.3..=4.0).contains(&ratio),
                    &format!("Axpy cilk_for/omp_for at 16 threads should be ~2x, got {ratio:.2}"),
                );
            }
        }
        2 => {
            claim(
                paper_loser(16).as_deref() == Some("cilk_for"),
                "Sum: cilk_for should be slowest",
            );
            let ratio = at("cilk_for", 16) / at("omp_task", 16);
            claim(
                ratio > 1.5,
                &format!("Sum: omp_task should beat cilk_for clearly, ratio {ratio:.2}"),
            );
        }
        5 => {
            // cilk_spawn ~20% better than omp_task except at 1 core.
            let r1 = at("omp_task", 1) / at("cilk_spawn", 1);
            claim(
                (0.8..=1.25).contains(&r1),
                &format!("Fib: parity at 1 thread expected, got {r1:.2}"),
            );
            for &p in &[8, 16, 32] {
                let r = at("omp_task", p) / at("cilk_spawn", p);
                claim(
                    r > 1.05,
                    &format!("Fib: cilk_spawn should lead at {p} threads, ratio {r:.2}"),
                );
            }
        }
        7 => {
            // HotSpot: omp_task gains on omp_for as threads grow.
            let gap_low = at("omp_task", 2) / at("omp_for", 2);
            let gap_high = at("omp_task", 32) / at("omp_for", 32);
            claim(
                gap_high < gap_low,
                &format!(
                    "HotSpot: tasking should gain with threads (2t ratio {gap_low:.2} vs 32t {gap_high:.2})"
                ),
            );
        }
        9 | 10 => {
            // Uniform heavy compute: pooled variants converge (within 25%)
            // at full scale. The list comes from the registry: every variant
            // of every family with a persistent pool.
            let vals: Vec<f64> = tpm_core::Family::ALL
                .iter()
                .filter(|f| f.has_pooled_runtime())
                .flat_map(|f| f.variants())
                .map(|m| at(m.name(), 36))
                .collect();
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(0.0, f64::max);
            claim(
                max / min < 1.25,
                &format!(
                    "uniform app: pooled variants should converge, spread {:.2}",
                    max / min
                ),
            );
        }
        _ => {}
    }
    // Universal claim: every variant improves from 1 to 8 threads, with
    // diminishing returns after ("the rate of decrease is slower").
    for s in &fig.series {
        if let (Some(t1), Some(t8)) = (s.at(1), s.at(8)) {
            claim(
                t8 < t1,
                &format!("{} should speed up from 1 to 8 threads", s.label),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_have_one_series_per_registry_model_except_fib() {
        for (i, fig) in all_figures().iter().enumerate() {
            // Fib carries the task-parallel variants only (the paper's two
            // plus the actor extension).
            let expected = if i + 1 == 5 { 3 } else { Model::ALL.len() };
            assert_eq!(fig.series.len(), expected, "{}", fig.title);
            for s in &fig.series {
                assert_eq!(s.points.len(), THREADS.len());
                assert!(s.points.iter().all(|&(_, v)| v.is_finite() && v > 0.0));
            }
        }
    }

    #[test]
    fn paper_claims_reproduce() {
        for (i, fig) in all_figures().iter().enumerate() {
            let violations = check_claims(i + 1, fig);
            assert!(
                violations.is_empty(),
                "claims violated:\n{}\n{}",
                violations.join("\n"),
                fig.to_table()
            );
        }
    }

    #[test]
    fn simulated_figures_are_deterministic() {
        for render in [fig1_axpy, fig7_hotspot] {
            let (a, b) = (render(), render());
            assert_eq!(a.series, b.series, "{}", a.title);
        }
    }

    #[test]
    fn hyperthreads_help_compute_not_bandwidth() {
        let fig = ht_extension();
        let at = |label: &str, p: usize| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.at(p))
                .unwrap()
        };
        // Matmul (compute-bound): 72 threads beat 36 by a visible margin.
        assert!(at("matmul_2k", 72) < at("matmul_2k", 36) * 0.95);
        // Axpy (bandwidth-bound): no gain from SMT.
        assert!(at("axpy_100m", 72) >= at("axpy_100m", 36) * 0.98);
    }

    #[test]
    fn numasim_covers_every_cell_and_padding_wins() {
        let rows = numasim_rows();
        let fig = numasim_figure_from(&rows);
        assert_eq!(fig.series.len(), 4, "2 placements x 2 policies");
        for s in &fig.series {
            assert_eq!(s.points.len(), NUMA_THREADS.len());
        }
        let j = numasim_json(&rows);
        assert!(j.contains("\"placement\": \"packed\""));
        assert!(j.contains("\"policy\": \"node_aware\""));
        assert!(j.contains("\"remote_steals\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The deque-padding claim BENCH_8 records: the task-protocol-bound
        // fib tree runs ≥ 5% faster with one-line-per-field deques.
        for line in j.lines().filter(|l| l.contains("\"speedup\"")) {
            let speedup: f64 = line
                .split("\"speedup\": ")
                .nth(1)
                .and_then(|s| s.split('}').next())
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!(
                speedup >= 1.05,
                "padding speedup {speedup} below 5%:\n{line}"
            );
        }
    }
}
