//! The service's metrics surface: RED metrics plus runtime counters.
//!
//! One [`ServeMetrics`] belongs to one server instance (its own
//! [`Registry`], so tests and side-by-side servers don't share series).
//! Everything the scrape exposes is pre-registered at server start —
//! outcome counters over the fixed wire-code set, one duration histogram
//! per registered kernel — so the hot path never takes the registry lock,
//! only atomic increments on `Arc`-held cells.
//!
//! The RED triple for the service:
//!
//! * **Rate** — `tpm_requests_total{outcome=...}`, one count per reply.
//! * **Errors** — the same series, split by wire code (`deadline`,
//!   `overloaded`, `panic`, …) plus `watchdog` for backstop kills.
//! * **Duration** — `tpm_request_duration_seconds{kernel=...}` (a worker's
//!   whole `JobRegistry::run` call: input prepare plus kernel body; the
//!   reply's `elapsed_ms` is the body alone) and `tpm_queue_wait_seconds`
//!   (admission-queue time), both histograms.
//!
//! Runtime health rides along: per-runtime scheduler event counters fed by
//! snapshot deltas around each job, per-worker busy time, queue/inflight
//! gauges sampled at scrape time, and an HLL sketch of distinct clients.

use std::collections::HashMap;
use std::sync::Arc;

use tpm_core::job::InputCacheStats;
use tpm_core::{Family, JobRegistry};
use tpm_metrics::{Counter, Gauge, Histogram, Hll, Registry};
use tpm_sync::{EventKind, StatsSnapshot as RuntimeSnapshot};

/// Reply outcomes pre-registered on `tpm_requests_total`. `ok` plus every
/// stable wire error code, `watchdog` for grace-period kills, and `other`
/// as the catch-all so an unexpected code still lands somewhere visible.
const OUTCOMES: [&str; 10] = [
    "ok",
    "parse",
    "overloaded",
    "bad_config",
    "deadline",
    "cancelled",
    "panic",
    "injected",
    "watchdog",
    "other",
];

/// All instruments the server records into, pre-registered and `Arc`-held.
pub struct ServeMetrics {
    registry: Arc<Registry>,
    enabled: bool,
    outcomes: Vec<(&'static str, Arc<Counter>)>,
    durations: HashMap<String, Arc<Histogram>>,
    queue_wait: Arc<Histogram>,
    clients: Arc<Hll>,
    worker_busy: Vec<Arc<Counter>>,
    /// Per-pooled-family event counters (one per [`EventKind::COUNTED`]
    /// kind) and busy time, labeled by [`Family::runtime_label`]; one entry
    /// per registry family with a persistent pool, in [`Family::ALL`] order.
    runtime_events: Vec<(Family, Vec<Arc<Counter>>, Arc<Counter>)>,
    connections_open: Arc<Gauge>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl ServeMetrics {
    /// Pre-registers every series: `workers` busy counters and one duration
    /// histogram per kernel in `kernels` (jobs for unknown kernels — which
    /// admission rejects anyway — fall back to `kernel="other"`).
    pub fn new(workers: usize, kernels: &[&str]) -> Self {
        let registry = Arc::new(Registry::new());
        let outcomes = OUTCOMES
            .iter()
            .map(|o| {
                (
                    *o,
                    registry.counter(
                        "tpm_requests_total",
                        "Requests answered, by outcome (ok or error/shed class).",
                        &[("outcome", o)],
                    ),
                )
            })
            .collect();
        let mut durations = HashMap::new();
        for kernel in kernels.iter().copied().chain(["other"]) {
            durations.insert(
                kernel.to_string(),
                registry.histogram_scaled(
                    "tpm_request_duration_seconds",
                    "Worker time per job: input prepare (cache lookup or generation) plus kernel body; queue wait excluded. The reply's elapsed_ms is the body alone.",
                    &[("kernel", kernel)],
                    1e-9,
                ),
            );
        }
        let queue_wait = registry.histogram_scaled(
            "tpm_queue_wait_seconds",
            "Time between admission and a worker picking the job up.",
            &[],
            1e-9,
        );
        let clients = registry.hll(
            "tpm_distinct_clients",
            "Estimated distinct clients seen (HLL sketch, ~1% error).",
            &[],
        );
        let worker_busy = (0..workers.max(1))
            .map(|w| {
                let w = w.to_string();
                registry.counter_scaled(
                    "tpm_worker_busy_seconds_total",
                    "Seconds each service worker spent executing jobs.",
                    &[("worker", &w)],
                    1e-9,
                )
            })
            .collect();
        // One series per registry family and counted event kind (labels
        // come from the registry and the event vocabulary, so a new family
        // or kind appears here without edits). A pooled family's counters
        // are fed per job; the no-pool model's are process-global, so they
        // are read at scrape time instead (concurrent service workers would
        // double-count interval deltas of a shared global).
        let mut runtime_events = Vec::new();
        for fam in Family::ALL {
            let pooled = fam.has_pooled_runtime();
            let mut counters = Vec::new();
            for kind in EventKind::COUNTED {
                let event = kind.metric_label().expect("counted kinds have a label");
                let labels = [("runtime", fam.runtime_label()), ("event", event)];
                let (name, help) = (
                    "tpm_runtime_events_total",
                    "Scheduler events (tasks, steals, chunks, parks) per runtime.",
                );
                if pooled {
                    counters.push(registry.counter(name, help, &labels));
                } else {
                    let read = move || tpm_rawthreads::stats().get(kind) as f64;
                    registry.counter_fn(name, help, &labels, read);
                }
            }
            if pooled {
                let busy = registry.counter_scaled(
                    "tpm_runtime_busy_seconds_total",
                    "Seconds runtime workers spent executing (busy, not idle).",
                    &[("runtime", fam.runtime_label())],
                    1e-9,
                );
                runtime_events.push((fam, counters, busy));
            }
        }
        let connections_open = registry.gauge(
            "serve_connections_open",
            "Client connections currently open.",
            &[],
        );
        let bytes_read = registry.counter(
            "serve_bytes_read_total",
            "Bytes read from client sockets.",
            &[],
        );
        let bytes_written = registry.counter(
            "serve_bytes_written_total",
            "Bytes written to client sockets.",
            &[],
        );
        Self {
            registry,
            enabled: tpm_metrics::enabled(),
            outcomes,
            durations,
            queue_wait,
            clients,
            worker_busy,
            runtime_events,
            connections_open,
            bytes_read,
            bytes_written,
        }
    }

    /// Exports `jobs`' input cache as `tpm_input_cache_*`, read at scrape
    /// time from the cache's own atomics. The closures hold a `Weak`, so
    /// the metrics registry (which outlives the server for the final
    /// snapshot) never keeps cached inputs alive.
    pub fn export_input_cache(&self, jobs: &Arc<JobRegistry>) {
        let export = |name, help, monotonic, read: fn(&InputCacheStats) -> u64| {
            let w = Arc::downgrade(jobs);
            let sample = move || {
                w.upgrade()
                    .map_or(0.0, |j| read(&j.inputs().stats()) as f64)
            };
            if monotonic {
                self.registry.counter_fn(name, help, &[], sample);
            } else {
                self.registry.gauge_fn(name, help, &[], sample);
            }
        };
        export(
            "tpm_input_cache_hits_total",
            "Jobs whose input came from the shared input cache.",
            true,
            |s| s.hits,
        );
        export(
            "tpm_input_cache_misses_total",
            "Jobs that generated their input (cold, evicted or over half the budget).",
            true,
            |s| s.misses,
        );
        export(
            "tpm_input_cache_evictions_total",
            "Cached inputs dropped, least recently used first, to stay within the byte budget.",
            true,
            |s| s.evictions,
        );
        export(
            "tpm_input_cache_resident_bytes",
            "Bytes of generated kernel inputs currently held by the input cache.",
            false,
            |s| s.resident_bytes,
        );
    }

    /// The backing registry (for gauge registration and scraping).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Whether recording is on (`TPM_METRICS` gate).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counts one answered request by outcome (`ok` or a wire error code).
    pub fn observe_outcome(&self, code: &str) {
        if !self.enabled {
            return;
        }
        let c = self
            .outcomes
            .iter()
            .find(|(o, _)| *o == code)
            .or_else(|| self.outcomes.iter().find(|(o, _)| *o == "other"))
            .map(|(_, c)| c);
        if let Some(c) = c {
            c.inc();
        }
    }

    /// Records a completed job: execution time into the kernel's histogram,
    /// queue wait into the shared histogram, busy time onto `worker`'s
    /// counter.
    pub fn observe_job(&self, kernel: &str, worker: usize, queue_ns: u64, exec_ns: u64) {
        if !self.enabled {
            return;
        }
        let h = self
            .durations
            .get(kernel)
            .or_else(|| self.durations.get("other"));
        if let Some(h) = h {
            h.record(exec_ns);
        }
        self.queue_wait.record(queue_ns);
        if let Some(busy) = self.worker_busy.get(worker) {
            busy.add(exec_ns);
        }
    }

    /// Counts a connection opening on the `serve_connections_open` gauge.
    pub fn conn_opened(&self) {
        if self.enabled {
            self.connections_open.add(1);
        }
    }

    /// Counts a connection closing on the `serve_connections_open` gauge.
    pub fn conn_closed(&self) {
        if self.enabled {
            self.connections_open.sub(1);
        }
    }

    /// Adds socket-read volume to `serve_bytes_read_total`.
    pub fn add_bytes_read(&self, n: u64) {
        if self.enabled && n > 0 {
            self.bytes_read.add(n);
        }
    }

    /// Adds socket-write volume to `serve_bytes_written_total`.
    pub fn add_bytes_written(&self, n: u64) {
        if self.enabled && n > 0 {
            self.bytes_written.add(n);
        }
    }

    /// Folds one client identity into the distinct-clients sketch.
    pub fn observe_client(&self, ident: &str) {
        if !self.enabled {
            return;
        }
        self.clients.insert_str(ident);
    }

    /// Current distinct-client estimate (always available — it feeds the
    /// `health` reply).
    pub fn distinct_clients(&self) -> u64 {
        self.clients.estimate_u64()
    }

    /// Adds a scheduler-snapshot delta to `family`'s runtime series (a
    /// no-op for families without a pool). Exact per job because each
    /// service worker owns its executors.
    pub fn add_runtime_delta(&self, family: Family, d: &RuntimeSnapshot) {
        if !self.enabled {
            return;
        }
        let Some((_, events, busy)) = self.runtime_events.iter().find(|(f, ..)| *f == family)
        else {
            return;
        };
        for (c, kind) in events.iter().zip(EventKind::COUNTED) {
            if d.get(kind) > 0 {
                c.add(d.get(kind));
            }
        }
        if d.busy_ns > 0 {
            busy.add(d.busy_ns);
        }
    }

    /// Renders the full Prometheus text exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counting_falls_back_to_other() {
        let m = ServeMetrics::new(2, &["sum"]);
        m.observe_outcome("ok");
        m.observe_outcome("ok");
        m.observe_outcome("deadline");
        m.observe_outcome("mystery_code");
        let text = m.render();
        assert!(
            text.contains("tpm_requests_total{outcome=\"ok\"} 2"),
            "{text}"
        );
        assert!(text.contains("tpm_requests_total{outcome=\"deadline\"} 1"));
        assert!(text.contains("tpm_requests_total{outcome=\"other\"} 1"));
    }

    #[test]
    fn job_observation_feeds_kernel_histogram_and_worker_busy() {
        let m = ServeMetrics::new(2, &["sum", "fib"]);
        m.observe_job("sum", 0, 1_000, 2_000_000);
        m.observe_job("nope", 1, 500, 1_000_000);
        let text = m.render();
        assert!(
            text.contains("tpm_request_duration_seconds_count{kernel=\"sum\"} 1"),
            "{text}"
        );
        assert!(text.contains("tpm_request_duration_seconds_count{kernel=\"other\"} 1"));
        assert!(text.contains("tpm_queue_wait_seconds_count 2"));
        assert!(text.contains("tpm_worker_busy_seconds_total{worker=\"0\"} 0.002"));
    }

    #[test]
    fn runtime_delta_lands_on_labeled_series() {
        let m = ServeMetrics::new(1, &[]);
        let d = RuntimeSnapshot {
            steals: 4,
            executed: 10,
            busy_ns: 3_000_000_000,
            ..RuntimeSnapshot::default()
        };
        m.add_runtime_delta(Family::CilkPlus, &d);
        let text = m.render();
        assert!(
            text.contains("tpm_runtime_events_total{runtime=\"worksteal\",event=\"steals\"} 4"),
            "{text}"
        );
        assert!(text.contains("tpm_runtime_busy_seconds_total{runtime=\"worksteal\"} 3"));
        // A pool-less family's delta is dropped, not misattributed: its
        // series read the global counters, and rawthreads never steals.
        m.add_runtime_delta(Family::Cxx11, &d);
        assert!(m
            .render()
            .contains("tpm_runtime_events_total{runtime=\"rawthreads\",event=\"steals\"} 0\n"));
    }

    #[test]
    fn every_pooled_family_is_preregistered() {
        let m = ServeMetrics::new(1, &[]);
        let d = RuntimeSnapshot {
            executed: 1,
            ..RuntimeSnapshot::default()
        };
        for fam in Family::ALL {
            m.add_runtime_delta(fam, &d);
        }
        let text = m.render();
        for fam in Family::ALL.iter().filter(|f| f.has_pooled_runtime()) {
            assert!(
                text.contains(&format!(
                    "tpm_runtime_events_total{{runtime=\"{}\",event=\"executed\"}} 1",
                    fam.runtime_label()
                )),
                "{fam}: {text}"
            );
        }
    }

    #[test]
    fn exposition_validates_and_covers_rawthreads() {
        let m = ServeMetrics::new(1, &["sum"]);
        m.observe_outcome("ok");
        let scrape = tpm_metrics::text::validate(&m.render()).expect("valid exposition");
        assert!(scrape
            .find(
                "tpm_runtime_events_total",
                &[("runtime", "rawthreads"), ("event", "thread_spawns")]
            )
            .is_some());
    }

    #[test]
    fn connection_and_byte_instruments_render() {
        let m = ServeMetrics::new(1, &[]);
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.add_bytes_read(128);
        m.add_bytes_written(64);
        m.add_bytes_written(0); // no-op, not a zero sample
        let text = m.render();
        assert!(text.contains("serve_connections_open 1"), "{text}");
        assert!(text.contains("serve_bytes_read_total 128"), "{text}");
        assert!(text.contains("serve_bytes_written_total 64"), "{text}");
        tpm_metrics::text::validate(&text).expect("valid exposition");
    }

    #[test]
    fn distinct_clients_estimate_tracks_inserts() {
        let m = ServeMetrics::new(1, &[]);
        for i in 0..30 {
            m.observe_client(&format!("10.0.0.{i}"));
            m.observe_client(&format!("10.0.0.{i}")); // duplicates don't count
        }
        let est = m.distinct_clients();
        assert!((28..=32).contains(&est), "estimate {est}");
    }
}
