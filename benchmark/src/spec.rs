//! The benchmark's fixed vocabulary: workload names, metric names with
//! units, directions and bounds, and every rate and size a workload uses.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`tpm-benchmark manifest`); a unit test fails when the two drift. Nothing
//! here is calibrated at run time: a later change is compared against the
//! same constants on both sides.

use tpm_core::{Model, Pattern};

/// Equal parts the measured window is cut into; every end-to-end value is
/// the median of the segment values.
pub const SEGMENTS: usize = 5;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Times a run builds its workload from scratch to report `setup_s` as a
/// median (the first build is the one measured).
pub const SETUPS: usize = 5;

/// Client connections, generator threads and the most threads a job may ask
/// for; checked against `nproc` before a workload starts.
pub const CONNECTIONS: usize = 2;
/// See [`CONNECTIONS`].
pub const MAX_JOB_THREADS: usize = 2;

/// `sum` size of the small job (`serve_small`, `serve_json`, 80% of
/// `serve_open`): a ~10 µs kernel, so the data path does nearly all the work.
pub const SMALL_SIZE: usize = 4096;
/// Requests kept in flight per connection on `serve_small`.
pub const SMALL_WINDOW: usize = 8;
/// Requests sent per connection while warming a server up (part of set-up).
pub const WARMUP_REQUESTS: usize = 1000;

/// `serve_open`: fixed arrival rate, requests per second over all
/// connections.
pub const OPEN_RATE: f64 = 1000.0;
/// `serve_open`: deadline every request carries, milliseconds. Every job
/// runs under a deadline token and the watchdog; the budget is long enough
/// that a correct server never spends it, even across the 100 ms stalls this
/// VM shows now and then.
pub const OPEN_DEADLINE_MS: u64 = 500;
/// `serve_open`: most requests the generator leaves unanswered before it
/// holds the next one back, like a client with a bounded connection pool.
/// Below the server's queue capacity (32), so a stall on either side turns
/// into latency — charged from the due time — and never into `overloaded`
/// replies: the workload is one on which no operation fails.
pub const OPEN_MAX_OUTSTANDING: usize = 24;
/// `serve_open`: size of the large `sum` jobs (8 MiB of input: generation
/// dominates the served job).
pub const OPEN_BIG_SIZE: usize = 1 << 20;
/// `serve_open`: `fib` argument.
pub const OPEN_FIB_N: usize = 24;
/// `serve_open`: `matmul` order.
pub const OPEN_MATMUL_N: usize = 128;
/// A run whose generator was later than this at the 99th percentile did not
/// offer the schedule it claims; it is reported as invalid. On two cores
/// the sender shares a core with 2-thread jobs and is about 2 ms late at the
/// 99th percentile however it waits; latency is timed from the due time, so
/// lateness is counted, not hidden.
pub const MAX_LATE_P99_MS: f64 = 5.0;

/// `native_fine`: `Sum` length (512 KiB, cache resident: scheduling-bound).
pub const FINE_SUM_N: usize = 65_536;
/// `native_fine`: iterations of the empty-body region.
pub const FINE_REGION_ITERS: usize = 2;
/// `native_fine`: `Fib` argument and sequential cutoff.
pub const FINE_FIB: (u64, u64) = (30, 12);
/// `native_fine`: UTS tree seed — fixed, so the tree (and the work) does not
/// vary with the workload seed.
pub const FINE_UTS_SEED: u64 = 1;

/// `native_coarse`: `Axpy` length. Two 32 MiB arrays, sixteen times the
/// host's 4 MiB of L2 — bandwidth-bound.
pub const COARSE_AXPY_N: usize = 4_194_304;
/// `native_coarse`: `Matmul` order (compute-bound).
pub const COARSE_MATMUL_N: usize = 256;
/// `native_coarse`: HotSpot grid side and time steps (the harness's native
/// 128 × 10, eight times the side).
pub const COARSE_HOTSPOT: (usize, usize) = (1024, 10);
/// `native_coarse`: BFS node count.
pub const COARSE_BFS_NODES: usize = 100_000;

/// `sim`: consecutive desim seeds swept between two figure passes.
pub const SIM_DESIM_BATCH: u64 = 100;

/// Models whose variants split a loop (`omp_for`, `cilk_for`, …).
pub fn loop_models() -> Vec<Model> {
    Model::ALL
        .into_iter()
        .filter(|m| m.pattern() == Pattern::Data)
        .collect()
}

/// Task models that run on a pooled runtime (`omp_task`, `cilk_spawn`,
/// `actor_task`). `cxx_async` is left out of every recursive task kernel:
/// it starts one OS thread per split, 255 at once for `fib`, which on two
/// cores starves the load generator itself for tens of milliseconds — the
/// run would no longer offer the schedule it claims, and the burst after
/// the stall overflows the admission queue.
pub fn pooled_task_models() -> Vec<Model> {
    Model::ALL
        .into_iter()
        .filter(|m| m.pattern() == Pattern::Task && m.family().has_pooled_runtime())
        .collect()
}

/// Workload names (fixed: later changes cite them) and why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "serve_small",
        "closed loop, 2 binary connections, window 8, 10 us sum job: the tpm-serve data path does nearly all the work",
    ),
    (
        "serve_json",
        "same job over JSON lines, window 1: text codec and one reactor wake per request, latency-bound not throughput-bound",
    ),
    (
        "serve_open",
        "open loop, seeded Poisson 1000 req/s (at most 24 outstanding), deadlines, mixed kernels and models: kernels, runtimes and head-of-line blocking dominate",
    ),
    (
        "native_fine",
        "in-process, 2 threads, scheduler-bound grains (Sum 64k, empty region, Fib, UTS): region launch, steal, barrier and mailbox cost dominate",
    ),
    (
        "native_coarse",
        "in-process, 2 threads, kernel-bound grains (Axpy 4M, Matmul 256, HotSpot, BFS) plus seq baselines: kernel bodies dominate, schedulers are a few percent",
    ),
    (
        "sim",
        "deterministic: simulated 36-core figures with claim checks, and desim seed sweeps over the real tpm-serve engine state machines",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload on an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. What "operation" means per workload is in
/// README.md; every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_kop",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Jobs of the `serve_open` mix, as the per-layer names spell them.
pub const MIX_JOBS: [&str; 4] = ["sum_4k", "sum_1m", "fib_24", "matmul_128"];
/// Kernels of the `native_coarse` grid.
pub const COARSE_KERNELS: [&str; 4] = ["axpy", "matmul", "hotspot", "bfs"];
/// Models whose `native_coarse` cells are kept as per-layer metrics (one
/// data-parallel variant per family), plus the sequential baseline.
pub const COARSE_COLUMNS: [&str; 5] = ["omp_for", "cilk_for", "cxx_thread", "actor_for", "seq"];
/// Pooled runtime families, by the crate that implements them.
pub const POOLED: [&str; 3] = ["forkjoin", "worksteal", "actors"];

/// Every per-layer metric as `(name, unit, better)`: reported by every
/// workload on a traced run, 0 where the workload does not reach the layer.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut m: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| m.push((name, unit, better));

    for name in [
        "serve.wire.decode_req_ns",
        "serve.wire.decode_req_json_ns",
        "serve.wire.encode_resp_ns",
        "serve.wire.encode_resp_json_ns",
        "serve.engine.admit_ns",
        "serve.queue.push_pop_ns",
    ] {
        add(name.to_string(), "ns", Lower);
    }
    add("serve.wire.bytes_per_req".to_string(), "B", Lower);
    add("serve.wire.bytes_per_req_json".to_string(), "B", Lower);
    for name in [
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p99_us",
        "serve.exec_p50_us",
        "serve.overhead_p50_us",
        "client.big_rtt_p50_us",
        "client.big_overhead_p50_us",
    ] {
        add(name.to_string(), "us", Lower);
    }
    add("client.p99_ms".to_string(), "ms", Lower);
    add("serve.shed".to_string(), "count", Lower);
    add("serve.deadline".to_string(), "count", Lower);
    add("serve.bytes_read".to_string(), "B", Lower);
    add("serve.bytes_written".to_string(), "B", Lower);

    for job in MIX_JOBS {
        add(format!("core.registry.run_us.{job}"), "us", Lower);
        add(format!("core.registry.body_share.{job}"), "ratio", Higher);
    }
    add("core.executor.build_us".to_string(), "us", Lower);
    for m in Model::ALL {
        add(format!("core.executor.region_us.{m}"), "us", Lower);
    }

    for k in ["sum_1m", "axpy", "matmul", "hotspot", "bfs"] {
        add(format!("kernels.alloc_ms.{k}"), "ms", Lower);
    }
    for k in COARSE_KERNELS {
        for col in COARSE_COLUMNS {
            add(format!("kernels.body_ms.{k}.{col}"), "ms", Lower);
        }
    }
    for m in Model::ALL {
        add(format!("kernels.body_ms.sum.{m}"), "ms", Lower);
    }
    for m in ["omp_task", "cilk_spawn", "actor_task"] {
        add(format!("kernels.body_ms.fib.{m}"), "ms", Lower);
    }
    for m in ["omp_task", "cilk_spawn"] {
        add(format!("kernels.body_ms.uts.{m}"), "ms", Lower);
    }
    for k in ["sum", "axpy", "matmul"] {
        add(format!("kernels.bytes_per_iter.{k}"), "B", Lower);
        add(format!("kernels.flops_per_iter.{k}"), "count", Lower);
    }

    add("forkjoin.chunks".to_string(), "count", Lower);
    add("forkjoin.loop_claims".to_string(), "count", Lower);
    add("forkjoin.barrier_wait_share".to_string(), "ratio", Lower);
    add("worksteal.steal_hit_ratio".to_string(), "ratio", Higher);
    add("worksteal.spawned".to_string(), "count", Lower);
    add("actors.executed".to_string(), "count", Lower);
    for fam in POOLED {
        add(format!("{fam}.parks"), "count", Lower);
        add(format!("{fam}.busy_share"), "ratio", Higher);
    }

    for name in [
        "sync.chase_lev.push_pop_ns",
        "sync.chase_lev.steal_ns",
        "sync.chase_lev.steal_batch_ns_per_item",
        "sync.locked_deque.push_pop_ns",
        "sync.latch.set_wait_ns",
        "sync.mpsc.send_recv_ns",
        "sync.cancel.poll_ns",
        "actors.mailbox.send_activate_ns",
        "alloc.arena.alloc_reset_ns",
        "alloc.pool.get_put_ns",
        "metrics.histogram.record_ns",
        "metrics.counter.inc_ns",
    ] {
        add(name.to_string(), "ns", Lower);
    }
    add("sync.barrier.episode_us".to_string(), "us", Lower);
    add("rawthreads.spawn_join_us".to_string(), "us", Lower);

    add("sim.loop_events_per_s".to_string(), "1/s", Higher);
    add("sim.tree_tasks_per_s".to_string(), "1/s", Higher);
    add("sim.placement_pass_ms".to_string(), "ms", Lower);
    add("sim.figure_pass_ms".to_string(), "ms", Lower);
    add("desim.seeds_per_s".to_string(), "1/s", Higher);
    add("desim.requests_per_s".to_string(), "1/s", Higher);
    add("desim.virtual_speedup".to_string(), "ratio", Higher);

    add("native.loop_geomean_ms".to_string(), "ms", Lower);
    add("native.task_geomean_ms".to_string(), "ms", Lower);
    add("native.seq_ratio".to_string(), "ratio", Lower);

    add("gen.late_p99_ms".to_string(), "ms", Lower);
    add("gen.threads".to_string(), "count", Lower);
    add("trace.overhead_share".to_string(), "ratio", Lower);
    m
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better.name()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert!(END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|l| l.0.clone()));
        for name in names {
            assert!(name_ok(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|l| l.1));
        for unit in units {
            assert!(unit.len() <= 16 && !unit.is_empty(), "bad unit {unit:?}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() <= 64 << 10);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "BENCHMARK.json drifted: regenerate with `tpm-benchmark manifest > BENCHMARK.json`"
        );
    }
}
