//! Always-on metrics invariants: counter exactness under contention,
//! histogram quantile error bounds, HLL cardinality accuracy, and the
//! Prometheus exposition validated over a live server scrape.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use threadcmp::metrics::text::{self, Scrape};
use threadcmp::metrics::{Counter, Histogram, Hll, Registry};
use threadcmp::serve::{serve, Request, Response, ServerConfig};
use threadcmp::{JobRegistry, JobSpec, KernelVariant, Model};

/// The log-linear histogram's design bound: 4 sub-buckets per octave means
/// any quantile estimate is within 25% (one sub-bucket width) of the true
/// value, usually much closer.
const HIST_REL_ERROR: f64 = 0.25;

#[test]
fn histogram_quantiles_bound_error_on_known_distributions() {
    // Uniform 1..=10_000: p50 ≈ 5000, p90 ≈ 9000, p99 ≈ 9900.
    let h = Histogram::new();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    let s = h.snapshot();
    for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
        let got = s.quantile(q);
        let rel = (got - exact).abs() / exact;
        assert!(
            rel <= HIST_REL_ERROR,
            "q{q}: got {got}, exact {exact}, rel {rel}"
        );
    }
    assert_eq!(s.quantile(1.0), 10_000.0, "q=1 is the exact max");
    assert_eq!(s.count(), 10_000);

    // Bimodal: 90% fast (~100), 10% slow (~100_000). p99 must land in the
    // slow mode — the failure a mean would hide.
    let h = Histogram::new();
    for _ in 0..900 {
        h.record(100);
    }
    for _ in 0..100 {
        h.record(100_000);
    }
    let s = h.snapshot();
    assert!(
        s.quantile(0.5) < 150.0,
        "p50 {} is in the fast mode",
        s.quantile(0.5)
    );
    let p99 = s.quantile(0.99);
    assert!(
        (p99 - 100_000.0).abs() / 100_000.0 <= HIST_REL_ERROR,
        "p99 {p99} must be in the slow mode"
    );
}

#[test]
fn hll_is_within_5_percent_at_a_million_distinct() {
    let hll = Hll::new();
    const N: u64 = 1_000_000;
    for i in 0..N {
        hll.insert_u64(i);
    }
    let est = hll.estimate();
    let rel = (est - N as f64).abs() / N as f64;
    assert!(rel < 0.05, "estimate {est} vs {N}: rel error {rel}");
    // Re-inserting the same keys must not move the estimate.
    for i in 0..N / 10 {
        hll.insert_u64(i);
    }
    let est2 = hll.estimate();
    assert!(
        (est2 - est).abs() / est < 1e-9,
        "duplicates moved {est} -> {est2}"
    );
}

#[test]
fn registry_snapshot_delta_isolates_an_interval() {
    let reg = Registry::new();
    let c = reg.counter("jobs_total", "Jobs.", &[]);
    let h = reg.histogram("lat", "Latency.", &[]);
    c.add(10);
    h.record(50);
    let before = reg.snapshot();
    c.add(7);
    h.record(50);
    h.record(5_000);
    let after = reg.snapshot();
    let d = after.delta(&before);
    assert_eq!(d.get("jobs_total", &[]), Some(7.0));
    // The interval saw exactly 2 observations even though the cumulative
    // histogram holds 3.
    let json = d.to_json();
    assert!(json.contains("\"count\":2"), "{json}");
}

/// Drives a real server over TCP — a handful of jobs under two models plus
/// error traffic — then scrapes `{"cmd":"metrics"}` and validates the
/// exposition structurally (TYPE declarations, cumulative buckets, +Inf,
/// count == +Inf bucket) and semantically (the counters match the traffic).
#[test]
fn live_scrape_is_valid_prometheus_and_counts_the_traffic() {
    let mut reg = JobRegistry::new();
    reg.register("spin", "sums size integers in parallel", 1 << 24, |ctx| {
        let total = std::sync::atomic::AtomicU64::new(0);
        ctx.exec
            .try_parallel_for(ctx.spec.model, 0..ctx.spec.size, ctx.token, &|chunk| {
                total.fetch_add(chunk.map(|i| i as u64).sum(), Ordering::Relaxed);
            })
            .map(|()| total.load(Ordering::Relaxed) as f64)
    });
    let handle = serve(
        Arc::new(reg),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let send = |w: &mut TcpStream, s: &str| {
        w.write_all(s.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
    };

    let spec = JobSpec {
        kernel: "spin".into(),
        model: Model::CilkFor,
        variant: KernelVariant::Reference,
        size: 50_000,
        threads: 2,
    };
    for id in 0..6 {
        let client = format!("it-{}", id % 3); // 3 distinct identities
        send(
            &mut writer,
            &Request::run_line_as(id, &spec, None, Some(&client)),
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            matches!(Response::parse(line.trim()), Ok(Response::Ok { .. })),
            "{line}"
        );
    }
    // One unknown-kernel error and one parse error, both counted.
    send(&mut writer, r#"{"id":9,"kernel":"nope","size":1}"#);
    line.clear();
    reader.read_line(&mut line).unwrap();
    send(&mut writer, "not json at all");
    line.clear();
    reader.read_line(&mut line).unwrap();

    send(&mut writer, r#"{"cmd":"metrics"}"#);
    line.clear();
    reader.read_line(&mut line).unwrap();
    let exposition = match Response::parse(line.trim()) {
        Ok(Response::Metrics { exposition }) => exposition,
        other => panic!("expected metrics reply, got {other:?}"),
    };
    let scrape = text::validate(&exposition).expect("live exposition must validate");

    assert_eq!(
        scrape.get("tpm_requests_total", &[("outcome", "ok")]),
        Some(6.0)
    );
    assert_eq!(
        scrape.get("tpm_requests_total", &[("outcome", "parse")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.get("tpm_request_duration_seconds_count", &[("kernel", "spin")]),
        Some(6.0)
    );
    // Only executed jobs record queue wait — rejected/parse traffic doesn't.
    assert_eq!(scrape.get("tpm_queue_wait_seconds_count", &[]), Some(6.0));
    // 3 explicit identities plus the peer-identified "nope" request = 4.
    let clients = scrape.get("tpm_distinct_clients", &[]).unwrap();
    assert!((3.0..=5.0).contains(&clients), "distinct clients {clients}");
    // The jobs ran under cilk_for → the worksteal runtime executed tasks.
    let executed = scrape
        .get(
            "tpm_runtime_events_total",
            &[("runtime", "worksteal"), ("event", "executed")],
        )
        .unwrap();
    assert!(executed > 0.0, "worksteal executed {executed}");
    assert!(scrape.type_of("tpm_request_duration_seconds") == Some("histogram"));

    // Health over the wire carries the compact snapshot.
    send(&mut writer, r#"{"cmd":"health"}"#);
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::parse(line.trim()) {
        Ok(Response::Health {
            admitted,
            completed,
            distinct_clients,
            ..
        }) => {
            assert_eq!(admitted, 6);
            assert_eq!(completed, 6);
            assert!((3..=5).contains(&distinct_clients), "{distinct_clients}");
        }
        other => panic!("expected health, got {other:?}"),
    }
    handle.shutdown();
}

/// Repeated `sum`@1 M requests against the harness registry: the first
/// generates the 8 MiB input, the rest are served from the shared input
/// cache, and the scrape says so from the cache's own counters.
#[test]
fn live_scrape_reports_input_cache_hits() {
    let handle = serve(
        Arc::new(threadcmp::harness::jobs::registry()),
        ServerConfig::default(),
    )
    .expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut exchange = |request: &str| {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        Response::parse(line.trim()).unwrap_or_else(|e| panic!("{e}: {line}"))
    };
    let spec = JobSpec {
        kernel: "sum".into(),
        model: Model::OmpFor,
        variant: KernelVariant::Reference,
        size: 1 << 20,
        threads: 2,
    };
    for id in 0..5 {
        let reply = exchange(&Request::run_line_as(id, &spec, None, None));
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
    }
    let Response::Metrics { exposition } = exchange(r#"{"cmd":"metrics"}"#) else {
        panic!("expected a metrics reply");
    };
    let scrape = text::validate(&exposition).expect("live exposition must validate");
    assert_eq!(scrape.get("tpm_input_cache_hits_total", &[]), Some(4.0));
    assert_eq!(scrape.get("tpm_input_cache_misses_total", &[]), Some(1.0));
    assert_eq!(
        scrape.get("tpm_input_cache_evictions_total", &[]),
        Some(0.0)
    );
    assert_eq!(
        scrape.get("tpm_input_cache_resident_bytes", &[]),
        Some((8 << 20) as f64)
    );
    assert_eq!(
        scrape.type_of("tpm_input_cache_hits_total"),
        Some("counter")
    );
    assert_eq!(
        scrape.type_of("tpm_input_cache_resident_bytes"),
        Some("gauge")
    );
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded counters lose nothing under arbitrary concurrent increment
    /// patterns: the final value equals the sum of everything added.
    #[test]
    fn concurrent_counter_increments_are_exact(
        per_thread in proptest::collection::vec(1u64..2_000, 1..8),
    ) {
        let c = Counter::new();
        std::thread::scope(|s| {
            for &n in &per_thread {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..n {
                        c.inc();
                    }
                });
            }
        });
        prop_assert_eq!(c.get(), per_thread.iter().sum::<u64>());
    }

    /// Histogram count and sum stay exact under concurrent recording (only
    /// quantiles are approximate), and every quantile stays within the
    /// sub-bucket error bound.
    #[test]
    fn concurrent_histogram_is_exact_in_count_and_sum(
        values in proptest::collection::vec(1u64..1_000_000, 8..200),
        threads in 2usize..5,
    ) {
        let h = Histogram::new();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (h, next, values) = (&h, &next, &values);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&v) = values.get(i) else { break };
                    h.record(v);
                });
            }
        });
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64;
            let got = snap.quantile(q);
            prop_assert!(
                (got - exact).abs() <= exact * HIST_REL_ERROR + 1.0,
                "q{}: got {}, exact {}", q, got, exact
            );
        }
    }

    /// Rendered exposition always round-trips through the validator, for
    /// arbitrary label values (quotes, backslashes, newlines get escaped).
    #[test]
    fn rendered_exposition_always_validates(
        label_bytes in proptest::collection::vec(32u8..127, 0..24),
        count in 0u64..500,
        obs in proptest::collection::vec(1u64..1_000_000_000, 0..32),
    ) {
        let label: String = label_bytes.iter().map(|&b| b as char).collect();
        let reg = Registry::new();
        reg.counter("t_total", "Total.", &[("tag", &label)]).add(count);
        let h = reg.histogram_scaled("t_seconds", "Duration.", &[("tag", &label)], 1e-9);
        for &v in &obs {
            h.record(v);
        }
        let text_out = reg.render();
        let scrape = text::validate(&text_out);
        prop_assert!(scrape.is_ok(), "render must validate: {:?}\n{}", scrape.err(), text_out);
        let scrape = scrape.unwrap();
        prop_assert_eq!(
            scrape.get("t_seconds_count", &[("tag", &label)]),
            Some(obs.len() as f64)
        );
    }
}

/// `Scrape::delta` and quantile estimation compose: the dashboard's
/// interval-quantile computation is consistent with recording directly.
#[test]
fn scrape_delta_quantiles_match_interval_recording() {
    let reg = Registry::new();
    let h = reg.histogram("lat", "Latency.", &[]);
    for _ in 0..100 {
        h.record(10);
    }
    let before = Scrape::parse(&reg.render()).unwrap();
    for _ in 0..100 {
        h.record(1_000);
    }
    let after = Scrape::parse(&reg.render()).unwrap();
    let d = after.delta(&before);
    // Cumulatively, half the samples are fast; in the interval, none are.
    let p50_cum = after.histogram_quantile("lat", &[], 0.50).unwrap();
    let p50_int = d.histogram_quantile("lat", &[], 0.50).unwrap();
    assert!(p50_cum < 100.0, "cumulative p50 {p50_cum}");
    assert!(p50_int > 500.0, "interval p50 {p50_int}");
}
