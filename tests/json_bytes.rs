//! Pins the bytes of every JSON document the system writes.
//!
//! Each document is rendered from fixed inputs and reduced to one FNV-1a
//! digest of its bytes, in the style of `tests/sim_figures.rs`. A change to
//! a writer, or to the shared codec under it, that is meant to keep the
//! output must leave these digests alone; a change that is meant to move a
//! document updates its digest in the same commit and says why.
//!
//! The inputs exercise what the writers share: quotes, backslashes,
//! newlines and non-ASCII text in strings, fractional and integral numbers,
//! and NaN where the document can carry one.

use threadcmp::fault::{FaultKind, FaultPlan, Site, SiteRule};
use threadcmp::harness::{experiments, json::run_json, native::NativeConfig};
use threadcmp::metrics::Registry;
use threadcmp::serve::{protocol::CODE_PARSE, LoadgenReport, Request, Response};
use threadcmp::{Figure, JobSpec, KernelVariant, Model, Series};
use tpm_trace::{Event, EventKind, Trace, WorkerTrace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn pin(name: &str, doc: &str, want: u64) {
    let got = fnv1a(doc.as_bytes());
    assert_eq!(got, want, "{name} moved: digest {got:#018x}\n{doc}");
}

#[test]
fn wire_requests_and_replies() {
    let spec = JobSpec {
        kernel: "mat\"mul\\n\u{e9}".to_string(),
        model: Model::CilkFor,
        variant: KernelVariant::Optimized,
        size: 256,
        threads: 4,
    };
    let mut doc = Request::run_line(9, &spec, Some(500));
    doc.push('\n');
    doc += &Request::run_line_as(u64::MAX, &spec, None, Some("t\u{e9}nant \"a\"\n"));
    doc.push('\n');
    for r in [
        Response::Ok {
            id: 3,
            value: 3071.25,
            elapsed_ms: 2.0 / 3.0,
            queue_ms: 1e-7,
        },
        Response::Ok {
            id: 4,
            value: f64::NAN,
            elapsed_ms: 2.0,
            queue_ms: 0.0,
        },
        Response::Error {
            id: Some(5),
            code: "deadline",
            message: "deadline \"500ms\" expired\tafter\r\nqueue \\ wait \u{1} \u{2713}"
                .to_string(),
        },
        Response::Error {
            id: None,
            code: CODE_PARSE,
            message: "bad line".to_string(),
        },
        Response::Pong,
        Response::Health {
            live_workers: 2,
            dead_workers: 1,
            queue_depth: 3,
            inflight: 2,
            admitted: 40,
            completed: 35,
            shed: 2,
            distinct_clients: 4,
        },
        Response::Metrics {
            exposition: "# TYPE a counter\na{k=\"v\"} 1\n".to_string(),
        },
        Response::ShuttingDown,
    ] {
        doc += &r.to_line();
        doc.push('\n');
    }
    pin("wire lines", &doc, 0x9007_affe_2553_0b49);
}

#[test]
fn fault_plan() {
    let mut delay = SiteRule::prob(Site::TaskExec, FaultKind::Delay, 0.1);
    delay.delay_us = 500;
    let mut miss = SiteRule::prob(Site::StealAttempt, FaultKind::StealMiss, 0.25);
    miss.max_fires = 10;
    let plan = FaultPlan {
        seed: 42,
        rules: vec![
            SiteRule::nth(Site::ChunkClaim, FaultKind::Panic, 3),
            miss,
            delay,
            SiteRule::nth(Site::NetDeliver, FaultKind::Partition, 7),
        ],
    };
    pin("FaultPlan::to_json", &plan.to_json(), 0xd03c_7ddf_d247_5b6e);
}

#[test]
fn metrics_snapshot() {
    let reg = Registry::new();
    reg.counter("req_total", "Requests.", &[("kernel", "s\"u\\m\n\u{e9}")])
        .add(12);
    reg.counter("big_total", "Big.", &[]).add(1 << 53);
    reg.gauge("depth", "Depth.", &[("a", "b"), ("c", "d")])
        .set(-3);
    reg.gauge_fn("ratio", "Ratio.", &[], || 0.1 + 0.2);
    let h = reg.histogram_scaled("dur_seconds", "Duration.", &[("k", "v")], 1e-9);
    for ns in [1_000, 25_000, 25_000, 3_000_000] {
        h.record(ns);
    }
    reg.histogram("empty", "Empty.", &[]);
    pin(
        "Snapshot::to_json",
        &reg.snapshot().to_json(),
        0x94e1_f617_5d5f_f1df,
    );
}

#[test]
fn chrome_trace() {
    let name_id = tpm_trace::intern("test-span");
    let event = |ts_ns, kind, a| Event {
        ts_ns,
        kind,
        a,
        b: 0,
    };
    let trace = Trace {
        workers: vec![WorkerTrace {
            name: "w\"0\"".into(),
            dropped: 0,
            events: vec![
                event(100, EventKind::RegionBegin, name_id),
                event(1_500, EventKind::Steal, 3),
                event(2_000, EventKind::RegionEnd, name_id),
            ],
        }],
        started_ns: 0,
        stopped_ns: 5_000,
    };
    pin(
        "to_chrome_json",
        &trace.chrome_json(),
        0x2327_aef6_95a7_3532,
    );
}

#[test]
fn figure_dump() {
    let mut fig = Figure::new("Fig.X \"quoted\" \\ caf\u{e9}");
    let mut s = Series::new("omp_for");
    s.push_with_stddev(1, 0.5, 0.01);
    s.push_with_stddev(2, 0.1 + 0.2, 1.0 / 3.0);
    s.push_with_stddev(4, f64::NAN, f64::INFINITY);
    fig.series.push(s);
    fig.series.push(Series::new("cilk_for"));
    let cfg = NativeConfig {
        threads: vec![1, 2, 4],
        scale: 1,
        reps: 3,
        variant: KernelVariant::Optimized,
        models: Model::ALL.to_vec(),
    };
    let doc = run_json("figures", true, false, "on", &cfg, &[fig.clone(), fig]);
    pin("run_json", &doc, 0x2f18_6619_cc66_e77c);
}

#[test]
fn numasim_dump() {
    pin(
        "numasim_json",
        &experiments::numasim_json(&experiments::numasim_rows()),
        0x2758_c2b0_9d3e_9101,
    );
}

#[test]
fn loadgen_report() {
    let report = LoadgenReport {
        sent: 30,
        ok: 27,
        rejected: 1,
        deadline: 1,
        failed: 1,
        connect_refused: 0,
        timed_out: 0,
        wall_ms: 123.456,
        throughput: 243.0,
        p50_ms: 0.1 + 0.2,
        p99_ms: 12.0,
        mean_ms: 1.0 / 3.0,
        max_ms: f64::NAN,
        server_p50_ms: 0.0125,
        server_p99_ms: 1e-7,
    };
    pin(
        "LoadgenReport::to_json",
        &report.to_json(),
        0x8133_db54_c9bc_3f72,
    );
}
