//! The three served workloads: an in-process `tpm-serve` server with its
//! default configuration on a loopback port, driven by the generator in
//! [`crate::client`].

use std::sync::Arc;

use tpm_core::JobRegistry;
use tpm_metrics::text::Scrape;
use tpm_serve::{Protocol, Request, ServerConfig, ServerHandle};
use tpm_sync::StatsSnapshot;

use crate::client::{self, ClientLog, ClosedLoop, Conn, Window};
use crate::gen::{self, Arrival, MixJob};
use crate::layers::reference_value;
use crate::proc;
use crate::spec;

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_small`: binary protocol, window 8.
    Small,
    /// `serve_json`: JSON lines, window 1.
    Json,
    /// `serve_open`: open loop over the job mix.
    Open,
}

impl Kind {
    /// The wire protocol the workload's connections speak.
    pub fn protocol(self) -> Protocol {
        match self {
            Kind::Small | Kind::Open => Protocol::Binary,
            Kind::Json => Protocol::Json,
        }
    }

    fn window(self) -> usize {
        match self {
            Kind::Small => spec::SMALL_WINDOW,
            Kind::Json | Kind::Open => 1,
        }
    }

    /// One request in this many gets a span set on traced runs (the span log
    /// stays in memory until the run ends; the closed loops answer tens of
    /// thousands of requests per second).
    pub fn trace_stride(self) -> u64 {
        match self {
            Kind::Small => 64,
            Kind::Json => 16,
            Kind::Open => 1,
        }
    }
}

/// A server that is up, with warmed connections and the expected value of
/// every job the workload can send.
#[derive(Debug)]
pub struct Served {
    kind: Kind,
    /// The job registry the server dispatches through.
    pub registry: Arc<JobRegistry>,
    server: ServerHandle,
    conns: Vec<Conn>,
    /// Every distinct job the workload sends.
    pub catalog: Vec<MixJob>,
    expected: Vec<f64>,
}

impl Served {
    /// Builds the registry, starts the server on port 0, computes the
    /// sequential reference of every job, connects, and warms up: all of it
    /// is set-up time.
    pub fn build(kind: Kind) -> Result<Served, String> {
        let registry = Arc::new(tpm_harness::jobs::registry());
        let server = tpm_serve::serve(Arc::clone(&registry), ServerConfig::default())
            .map_err(|e| format!("server did not start: {e}"))?;
        let catalog = match kind {
            Kind::Small | Kind::Json => vec![MixJob {
                class: 0,
                spec: gen::small_job(),
            }],
            Kind::Open => gen::mix_catalog(),
        };
        let expected: Vec<f64> = catalog.iter().map(|j| reference_value(&j.spec)).collect();
        let conns = (0..spec::CONNECTIONS)
            .map(|_| Conn::open(server.addr(), kind.protocol()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut served = Served {
            kind,
            registry,
            server,
            conns,
            catalog,
            expected,
        };
        served.warm_up()?;
        Ok(served)
    }

    /// Sends every catalog job over every connection (so each worker builds
    /// the executors it will cache), the small job [`spec::WARMUP_REQUESTS`]
    /// times.
    fn warm_up(&mut self) -> Result<(), String> {
        let window = self.kind.window();
        let win = Window::open(3600.0, None);
        let mut failures = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let (catalog, expected) = (&self.catalog, &self.expected);
                    let win = &win;
                    s.spawn(move || {
                        let mut errors = Vec::new();
                        for (i, (job, want)) in catalog.iter().zip(expected).enumerate() {
                            let cfg = ClosedLoop {
                                job: job.spec.clone(),
                                expected: *want,
                                window,
                                id_base: 0,
                                max_requests: if i == 0 {
                                    spec::WARMUP_REQUESTS as u64
                                } else {
                                    4
                                },
                            };
                            let log = client::closed_loop(conn, &cfg, win, 0);
                            if log.failed > 0 {
                                errors.extend(log.errors);
                            }
                        }
                        errors
                    })
                })
                .collect();
            for h in handles {
                failures.extend(h.join().expect("warm-up thread panicked"));
            }
        });
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!("warm-up failed: {failures:?}"))
        }
    }

    /// Which served workload this is.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The wire protocol the connections speak.
    pub fn protocol(&self) -> Protocol {
        self.kind.protocol()
    }

    /// Closes the connections and drains and joins the server.
    pub fn shut_down(self) {
        drop(self.conns);
        let _ = self.server.shutdown();
    }

    /// The server's Prometheus exposition, parsed.
    pub fn scrape(&self) -> Result<Scrape, String> {
        Scrape::parse(&self.server.metrics_text())
    }

    /// The first `n` requests this workload sends for `seed`, with their
    /// classes — the list the in-process replay walks.
    pub fn request_list(&self, seed: u64, n: usize) -> (Vec<Request>, Vec<usize>) {
        match self.kind {
            Kind::Small | Kind::Json => {
                crate::layers::requests_of(&self.catalog, &mut std::iter::repeat_n(0, n))
            }
            Kind::Open => crate::layers::requests_of(
                &self.catalog,
                &mut gen::open_schedule(seed, n as f64 / spec::OPEN_RATE * 2.0)
                    .iter()
                    .take(n)
                    .map(|a| a.job),
            ),
        }
    }
}

/// What one window against the server produced.
#[derive(Debug)]
pub struct ServeLog {
    /// Merged generator logs.
    pub log: ClientLog,
    /// Open loop: how late each request was written, nanoseconds.
    pub late_ns: Vec<u32>,
    /// Server CPU over the window: process CPU minus the generator threads'
    /// own, milliseconds.
    pub server_cpu_ms: f64,
}

/// Runs the workload's loop for `seconds` and collects what the generator
/// saw. `traced` turns span recording on.
pub fn run_window(served: &mut Served, seed: u64, seconds: f64, traced: bool) -> ServeLog {
    let kind = served.kind;
    let stride = traced.then(|| kind.trace_stride());
    let schedule: Vec<Arrival> = match kind {
        Kind::Open => gen::open_schedule(seed, seconds),
        _ => Vec::new(),
    };
    let cpu_before = proc::process_cpu_ms();
    let win = Window::open(seconds, stride);
    let (log, late_ns) = match kind {
        Kind::Small | Kind::Json => {
            let (catalog, expected) = (&served.catalog, &served.expected);
            let merged = std::thread::scope(|s| {
                let handles: Vec<_> = served
                    .conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let win = &win;
                        s.spawn(move || {
                            let cfg = ClosedLoop {
                                job: catalog[0].spec.clone(),
                                expected: expected[0],
                                window: kind.window(),
                                // Ids differ per seed and connection; the work does not.
                                id_base: (seed % 1000) * 1_000_000_000 + c as u64 * 100_000_000,
                                max_requests: u64::MAX,
                            };
                            client::closed_loop(conn, &cfg, win, c as u32)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread panicked"))
                    .reduce(|mut all, log| {
                        all.merge(log);
                        all
                    })
            });
            (merged.expect("at least one connection"), Vec::new())
        }
        Kind::Open => {
            let open = client::open_loop(
                &mut served.conns,
                &schedule,
                &served.catalog,
                &served.expected,
                &win,
                &|_| {},
            );
            match open {
                Ok(o) => (o.log, o.late_ns),
                Err(e) => {
                    let mut log = ClientLog::new(None);
                    log.attempted = schedule.len() as u64;
                    log.fail(format!("open loop: {e}"));
                    log.failed = log.attempted;
                    (log, Vec::new())
                }
            }
        }
    };
    // Process CPU includes exited threads; the generator threads measured
    // their own share before they ended.
    let server_cpu_ms = proc::process_cpu_ms() - cpu_before - log.cpu_ms;
    ServeLog {
        log,
        late_ns,
        server_cpu_ms,
    }
}

/// Scheduler counters per pooled runtime out of a scrape delta — the same
/// shape `Executor::pooled_stats` gives the native workloads.
pub fn runtime_stats(delta: &Scrape) -> Vec<(&'static str, StatsSnapshot)> {
    spec::POOLED
        .iter()
        .map(|&runtime| {
            let event = |e: &str| {
                delta
                    .get(
                        "tpm_runtime_events_total",
                        &[("runtime", runtime), ("event", e)],
                    )
                    .unwrap_or(0.0) as u64
            };
            let busy_s = delta
                .get("tpm_runtime_busy_seconds_total", &[("runtime", runtime)])
                .unwrap_or(0.0);
            (
                runtime,
                StatsSnapshot {
                    spawned: event("spawned"),
                    executed: event("executed"),
                    steals: event("steals"),
                    failed_steals: event("failed_steals"),
                    chunks: event("chunks"),
                    loop_claims: event("loop_claims"),
                    barrier_waits: event("barrier_waits"),
                    parks: event("parks"),
                    busy_ns: (busy_s * 1e9) as u64,
                    ..StatsSnapshot::default()
                },
            )
        })
        .collect()
}
