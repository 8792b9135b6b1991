//! The job server: one reactor thread feeding one worker pool through the
//! bounded admission queue.
//!
//! The reactor ([`crate::reactor`]) multiplexes the listener and every
//! connection through [`tpm_sync::epoll`] — nonblocking accept,
//! per-connection read/write buffers, incremental frame decoding, responses
//! flushed back through the same thread. Connections cost a buffer, not an
//! OS thread, so thousands can be open at once. It is the only data path:
//! the platform difference (kernel epoll on Linux x86-64, a tick poller
//! elsewhere) lives inside `tpm_sync::epoll`, below anything this crate
//! decides.
//!
//! Connections speak either wire protocol (JSON lines or the binary framing
//! — sniffed per connection, see [`crate::wire`]) through the same
//! [`Decoder`](crate::wire::Decoder) and dispatch through [`handle_frame`].
//! `workers` executor threads drain the shared [`BoundedQueue`]; each
//! worker owns its executors (one per requested thread count) because a
//! `Team`/`Runtime` cannot run two regions concurrently.
//!
//! This file owns *scheduling* — threads, the queue, `Instant`s, the
//! watchdog's scan. What a reply says and which counter it lands in is
//! [`engine::Reply`]'s business; every site below applies what `engine`
//! returns through [`Shared::answer`].
//!
//! Every admitted request carries a [`CancelToken`] whose deadline covers
//! queue wait *and* execution: an expired job is answered `deadline` without
//! running, and a running job stops within one grain of work (the runtimes
//! poll the token at chunk/steal boundaries). Shutdown — via
//! [`ServerHandle::shutdown`] or a shutdown request — stops admission,
//! drains the queue, answers every in-flight request, then joins every
//! thread. The reactor stays up until the last admitted job's reply has
//! been flushed: a `pending` count of live [`WorkItem`]s (decremented by
//! each item's `Drop`, *after* its reply is sent) tells it when the drain
//! is truly over.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpm_alloc::{BufPool, PooledBuf};
use tpm_core::{panic_message, Executor, JobRegistry, JobSpec};
use tpm_fault::{Action, FaultKind, Site};
use tpm_sync::epoll::{Epoll, EventFd};
use tpm_sync::CancelToken;

use crate::engine::{self, Bucket, HealthView, JobOutcome, Reply, ReplyGate};
use crate::metrics::ServeMetrics;
use crate::protocol::{Request, Response};
use crate::queue::BoundedQueue;
use crate::wire::{self, Protocol};

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Executor worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are answered
    /// `overloaded` immediately.
    pub queue_capacity: usize,
    /// Largest per-request thread count a job may ask for.
    pub max_threads: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Watchdog grace factor: a job still executing after `grace ×` its
    /// deadline budget is cancelled and answered `deadline` by the watchdog
    /// (the runtimes normally observe the token themselves well before this;
    /// the watchdog is the backstop for a wedged or fault-injected job).
    pub deadline_grace: f64,
    /// How often the watchdog scans in-flight jobs, in milliseconds.
    pub watchdog_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            max_threads: 8,
            default_deadline_ms: None,
            deadline_grace: 2.0,
            watchdog_interval_ms: 20,
        }
    }
}

/// Monotonic request counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServeStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    watchdog_shed: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Jobs answered `ok`.
    pub completed: u64,
    /// Requests answered with an error other than load shedding: execution
    /// errors (deadline, panic, …) and requests refused before the queue
    /// (bad spec, admission-site fault).
    pub failed: u64,
    /// Requests refused `overloaded` at admission.
    pub shed: u64,
    /// Jobs the watchdog cancelled after they overran their deadline by the
    /// grace factor.
    pub watchdog_shed: u64,
}

impl ServeStats {
    /// Counts one reply in the counter its [`Bucket`] names.
    fn count(&self, bucket: Bucket) {
        let counter = match bucket {
            Bucket::Completed => &self.completed,
            // No counter of their own here: a refusal is a failed request.
            Bucket::Failed | Bucket::Refused => &self.failed,
            Bucket::Shed => &self.shed,
            Bucket::WatchdogShed => &self.watchdog_shed,
            Bucket::Unparsed => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            watchdog_shed: self.watchdog_shed.load(Ordering::Relaxed),
        }
    }
}

/// Where a reply goes: the reactor's completion channel, tagged with the
/// connection token so the reactor can append the bytes to that
/// connection's write buffer; the eventfd wakes it out of its wait.
/// Serialization (per the connection's negotiated protocol) happens at send
/// time on the replying thread, so the reactor never serializes under load.
#[derive(Clone)]
pub(crate) struct ReplySink {
    /// Reactor-assigned connection token.
    pub(crate) conn: u64,
    /// Wire encoding the connection sniffed to.
    pub(crate) proto: Protocol,
    /// Reply-buffer pool; the buffer's capacity returns to it when the
    /// reactor drops it after flushing.
    pub(crate) pool: Arc<BufPool>,
    /// Completion channel into the reactor.
    pub(crate) tx: mpsc::Sender<(u64, PooledBuf)>,
    /// Wakes the reactor's wait.
    pub(crate) wake: Arc<EventFd>,
}

impl ReplySink {
    pub(crate) fn send(&self, resp: &Response) {
        let mut buf = self.pool.take();
        wire::encode_response_into(self.proto, resp, &mut buf);
        let _ = self.tx.send((self.conn, buf));
        self.wake.signal();
    }
}

pub(crate) struct WorkItem {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) token: CancelToken,
    pub(crate) reply: ReplySink,
    pub(crate) enqueued: Instant,
    /// The deadline budget (queue wait + execution) used to compute the
    /// watchdog's hard-kill point; `None` when the request has no deadline.
    pub(crate) deadline_budget: Option<Duration>,
    /// Claimed by whichever side answers first (worker, watchdog, shed path,
    /// or the `Drop` backstop) — every request gets exactly one reply.
    pub(crate) replied: ReplyGate,
    /// The server's live-item count, decremented by `Drop`. The reactor
    /// drains until it reads zero, so a reply can never be lost between
    /// "queue looks empty" and "worker actually sent it".
    pub(crate) pending: Arc<AtomicU64>,
    /// The server's counters and metrics, so the `Drop` backstop's reply is
    /// counted and labelled like every other one, and
    /// `admitted == completed + failed + watchdog_shed` holds across worker
    /// death (the desim invariant checker audits exactly this).
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) metrics: Arc<ServeMetrics>,
}

impl Drop for WorkItem {
    fn drop(&mut self) {
        // Backstop: an item dropped unanswered (a worker thread unwinding
        // between pop and reply) still costs exactly one error reply, never
        // a silently hung client. Reply first, then decrement — the reactor
        // treats pending == 0 as "every reply is already in my channel".
        if self.replied.claim() {
            let reply = Reply::dropped(self.id);
            answer(&self.stats, &self.metrics, &self.reply, &reply);
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One executing job, as the watchdog sees it.
pub(crate) struct Inflight {
    id: u64,
    token: CancelToken,
    reply: ReplySink,
    replied: ReplyGate,
    /// When the watchdog gives up on the job: deadline + (grace − 1) ×
    /// budget. `None` (no deadline) means the watchdog never intervenes.
    kill_at: Option<Instant>,
}

pub(crate) struct Shared {
    pub(crate) registry: Arc<JobRegistry>,
    pub(crate) config: ServerConfig,
    pub(crate) queue: BoundedQueue<WorkItem>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) addr: SocketAddr,
    /// Jobs currently executing, keyed by a server-global sequence number
    /// (client ids are only unique per connection).
    pub(crate) inflight: Mutex<HashMap<u64, Inflight>>,
    pub(crate) seq: AtomicU64,
    pub(crate) live_workers: AtomicUsize,
    pub(crate) dead_workers: AtomicU64,
    pub(crate) metrics: Arc<ServeMetrics>,
    /// Live [`WorkItem`]s (admitted or shed-in-progress, queued or
    /// executing). See [`WorkItem::pending`].
    pub(crate) pending: Arc<AtomicU64>,
    /// The reactor's wake — `begin_shutdown` signals it so a quiescent
    /// reactor re-checks its drain condition.
    pub(crate) reactor_wake: Arc<EventFd>,
    /// Reply-buffer pool shared by every sink.
    pub(crate) pool: Arc<BufPool>,
}

impl Shared {
    /// Stops admission and wakes everyone: future pushes shed, workers drain
    /// what's queued, and the reactor re-checks its drain condition.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.reactor_wake.signal();
    }

    fn answer(&self, sink: &ReplySink, reply: &Reply) {
        answer(&self.stats, &self.metrics, sink, reply);
    }
}

/// Applies one [`Reply`]: counts it in its bucket, labels the outcome
/// metric, and sends it down `sink`. Every reply takes this one step, the
/// [`WorkItem`] `Drop` backstop's included.
fn answer(stats: &ServeStats, metrics: &ServeMetrics, sink: &ReplySink, reply: &Reply) {
    stats.count(reply.bucket);
    metrics.observe_outcome(reply.outcome);
    sink.send(&reply.response);
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`shutdown`](Self::shutdown) (or send a shutdown request) and the
/// handle joins every thread.
#[must_use = "join the server via .shutdown() or .wait(), or it keeps running"]
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current request counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Workers currently able to take jobs.
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::Relaxed)
    }

    /// The server's metrics registry, cloneable out of the handle — the
    /// instrument cells are `Arc`-held by the registry entries, so a clone
    /// taken before [`wait`](Self::wait) still reads final values after the
    /// server has fully drained and joined.
    pub fn metrics(&self) -> Arc<tpm_metrics::Registry> {
        Arc::clone(self.shared.metrics.registry())
    }

    /// The current Prometheus text exposition (same bytes a `metrics` wire
    /// request returns).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.render()
    }

    /// Worker-death incidents observed so far (each healed by a respawn).
    pub fn worker_deaths(&self) -> u64 {
        self.shared.dead_workers.load(Ordering::Relaxed)
    }

    /// Initiates shutdown (stop admitting, drain the queue) and joins every
    /// server thread. Queued jobs are still answered.
    pub fn shutdown(self) -> StatsSnapshot {
        self.shared.begin_shutdown();
        self.wait()
    }

    /// Joins every server thread without initiating shutdown — blocks until
    /// something else (a shutdown request over the wire) stops the server.
    pub fn wait(mut self) -> StatsSnapshot {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }
}

/// Binds `config.addr` and starts the reactor and worker pool. Jobs are
/// dispatched through `registry`.
pub fn serve(registry: Arc<JobRegistry>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    serve_over(Epoll::new()?, EventFd::new()?, registry, config)
}

/// [`serve`] over the portable tick poller instead of the platform's own.
/// Exists only so the reactor's tests can run, on Linux, over the poller
/// every other target gets from `serve` — not a mode: no flag, config field
/// or environment variable reaches it.
#[doc(hidden)]
pub fn serve_over_tick_poller(
    registry: Arc<JobRegistry>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_over(Epoll::tick(), EventFd::tick(), registry, config)
}

fn serve_over(
    ep: Epoll,
    wake: EventFd,
    registry: Arc<JobRegistry>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let metrics = ServeMetrics::new(workers, &registry.names());
    metrics.export_input_cache(&registry);
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        registry,
        config,
        shutdown: AtomicBool::new(false),
        stats: Arc::default(),
        addr,
        inflight: Mutex::new(HashMap::new()),
        seq: AtomicU64::new(0),
        live_workers: AtomicUsize::new(workers),
        dead_workers: AtomicU64::new(0),
        metrics: Arc::new(metrics),
        pending: Arc::new(AtomicU64::new(0)),
        reactor_wake: Arc::new(wake),
        pool: BufPool::for_serve(workers),
    });
    // Levels that already exist on `Shared` are sampled at scrape time.
    // The closures capture a Weak so the registry (cloneable out of the
    // handle) never keeps the server's threads' shared state alive.
    {
        let reg = Arc::clone(shared.metrics.registry());
        let w = Arc::downgrade(&shared);
        reg.gauge_fn(
            "tpm_admission_queue_depth",
            "Jobs waiting in the bounded admission queue.",
            &[],
            move || w.upgrade().map_or(0.0, |s| s.queue.len() as f64),
        );
        let w = Arc::downgrade(&shared);
        reg.gauge_fn(
            "tpm_inflight_jobs",
            "Jobs currently executing on a worker.",
            &[],
            move || {
                w.upgrade()
                    .map_or(0.0, |s| s.inflight.lock().unwrap().len() as f64)
            },
        );
        let w = Arc::downgrade(&shared);
        reg.gauge_fn(
            "tpm_live_workers",
            "Workers currently able to take jobs.",
            &[],
            move || {
                w.upgrade()
                    .map_or(0.0, |s| s.live_workers.load(Ordering::Relaxed) as f64)
            },
        );
        let w = Arc::downgrade(&shared);
        reg.counter_fn(
            "tpm_worker_deaths_total",
            "Worker-death incidents (each healed by a respawn).",
            &[],
            move || {
                w.upgrade()
                    .map_or(0.0, |s| s.dead_workers.load(Ordering::Relaxed) as f64)
            },
        );
        let pool = &shared.pool;
        let w = Arc::downgrade(pool);
        reg.counter_fn(
            "tpm_arena_pool_hits_total",
            "Reply-buffer takes served from the pool free list.",
            &[],
            move || w.upgrade().map_or(0.0, |p| p.stats().hits as f64),
        );
        let w = Arc::downgrade(pool);
        reg.counter_fn(
            "tpm_arena_pool_misses_total",
            "Reply-buffer takes that allocated a fresh buffer.",
            &[],
            move || w.upgrade().map_or(0.0, |p| p.stats().misses as f64),
        );
        let w = Arc::downgrade(pool);
        reg.counter_fn(
            "tpm_arena_resets_total",
            "Bulk region resets (each buffer return rewinds one region).",
            &[],
            move || w.upgrade().map_or(0.0, |p| p.stats().returns as f64),
        );
        let w = Arc::downgrade(pool);
        reg.counter_fn(
            "tpm_arena_bytes_recycled_total",
            "Buffer capacity handed back out of the pool, in bytes.",
            &[],
            move || w.upgrade().map_or(0.0, |p| p.stats().recycled_bytes as f64),
        );
        let w = Arc::downgrade(pool);
        reg.gauge_fn(
            "tpm_arena_buffers_retained",
            "Reply buffers currently parked on the pool free list.",
            &[],
            move || w.upgrade().map_or(0.0, |p| p.stats().retained as f64),
        );
    }

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tpm-serve-worker-{i}"))
                .spawn(move || {
                    // Self-healing worker slot: a panic escaping worker_loop
                    // (jobs are individually contained, so this is executor
                    // construction or an injected fault) is caught, counted,
                    // and the same thread re-enters the loop — the slot never
                    // goes dark.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, i))) {
                            Ok(()) => break, // queue closed: clean exit
                            Err(_) => {
                                shared.live_workers.fetch_sub(1, Ordering::Relaxed);
                                shared.dead_workers.fetch_add(1, Ordering::Relaxed);
                                tpm_trace::record(tpm_trace::EventKind::WorkerDeath, i as u64, 0);
                                shared.live_workers.fetch_add(1, Ordering::Relaxed);
                                tpm_trace::record(tpm_trace::EventKind::WorkerRespawn, i as u64, 0);
                            }
                        }
                    }
                })
                .expect("spawn server worker")
        })
        .collect();

    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("tpm-serve-watchdog".to_string())
            .spawn(move || watchdog_loop(&shared))
            .expect("spawn watchdog")
    };

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("tpm-serve-reactor".to_string())
            .spawn(move || crate::reactor::run(&ep, listener, &shared))
            .expect("spawn reactor")
    };

    Ok(ServerHandle {
        shared,
        reactor: Some(reactor),
        workers: worker_handles,
        watchdog: Some(watchdog),
    })
}

/// Scans in-flight jobs and sheds any that overran their deadline by the
/// grace factor: the token is cancelled (the runtimes stop within one grain)
/// and the client is answered `deadline` immediately rather than waiting for
/// the worker to notice. Exits once shutdown has fully drained.
fn watchdog_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.watchdog_interval_ms.max(1));
    // Scratch reused across scan ticks; the common (nothing overdue) tick
    // allocates nothing.
    let mut overdue = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            && shared.queue.is_empty()
            && shared.inflight.lock().unwrap().is_empty()
        {
            break;
        }
        let now = Instant::now();
        for entry in shared.inflight.lock().unwrap().values() {
            let Some(kill_at) = entry.kill_at else {
                continue;
            };
            if now < kill_at {
                continue;
            }
            // Cancel unconditionally (idempotent), but reply only if the
            // worker hasn't already: exactly one reply per request.
            entry.token.cancel();
            if entry.replied.claim() {
                overdue.push((entry.id, entry.reply.clone()));
            }
        }
        for (id, sink) in overdue.drain(..) {
            shared.answer(&sink, &Reply::watchdog_shed(id));
        }
        std::thread::sleep(interval);
    }
}

/// Dispatches one decoded message (or its parse error) with panic
/// containment: a panic here — injected via the job-admission fault site,
/// or organic — must cost one error reply, not the reactor thread. A `run`
/// request was already decoded, so its id travels into that reply.
pub(crate) fn handle_frame(
    parsed: Result<Request, String>,
    shared: &Arc<Shared>,
    sink: &ReplySink,
    peer: &str,
) {
    let id = match &parsed {
        Ok(Request::Run { id, .. }) => Some(*id),
        _ => None,
    };
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
        handle_request(parsed, shared, sink, peer)
    })) {
        shared.answer(sink, &Reply::admission_panic(id, panic_message(p)));
    }
}

fn handle_request(
    parsed: Result<Request, String>,
    shared: &Arc<Shared>,
    sink: &ReplySink,
    peer: &str,
) {
    match parsed {
        Err(message) => shared.answer(sink, &Reply::unparsed(message)),
        Ok(Request::Ping) => sink.send(&Response::Pong),
        Ok(Request::Health) => {
            let stats = shared.stats.snapshot();
            sink.send(&engine::health(&HealthView {
                live_workers: shared.live_workers.load(Ordering::Relaxed) as u64,
                dead_workers: shared.dead_workers.load(Ordering::Relaxed),
                queue_depth: shared.queue.len() as u64,
                inflight: shared.inflight.lock().unwrap().len() as u64,
                admitted: stats.admitted,
                completed: stats.completed,
                shed: stats.shed,
                watchdog_shed: stats.watchdog_shed,
                distinct_clients: shared.metrics.distinct_clients(),
            }));
        }
        Ok(Request::Metrics) => {
            sink.send(&Response::Metrics {
                exposition: shared.metrics.render(),
            });
        }
        Ok(Request::Shutdown) => {
            sink.send(&Response::ShuttingDown);
            shared.begin_shutdown();
        }
        Ok(Request::Run {
            id,
            spec,
            deadline_ms,
            client,
        }) => {
            // Fold the caller into the distinct-clients sketch before any
            // admission decision: shed traffic is still traffic.
            shared
                .metrics
                .observe_client(client.as_deref().unwrap_or(peer));
            // Fault-injection point: job admission. A panic rule really
            // unwinds into handle_frame's catch (one error reply); a
            // steal-miss rule models load shedding; a task-drop rule
            // refuses the job — observable, never a silent drop.
            let fault = match tpm_fault::probe(Site::JobAdmission) {
                Action::Panic => tpm_fault::injected_panic(Site::JobAdmission),
                Action::TaskDrop => Reply::admission_fault(id, FaultKind::TaskDrop),
                Action::StealMiss => Reply::admission_fault(id, FaultKind::StealMiss),
                Action::None => None,
            };
            if let Some(reply) = fault {
                return shared.answer(sink, &reply);
            }
            // The transport-independent admission decision (thread limit,
            // spec validation, deadline resolution) — shared with the
            // deterministic simulator.
            let policy = engine::AdmissionPolicy {
                max_threads: shared.config.max_threads,
                default_deadline_ms: shared.config.default_deadline_ms,
            };
            let deadline =
                match engine::admit(&shared.registry, &policy, &spec, deadline_ms).resolve(id) {
                    Ok(deadline_ms) => deadline_ms,
                    Err(reply) => return shared.answer(sink, &reply),
                };
            let token = match deadline {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            shared.pending.fetch_add(1, Ordering::SeqCst);
            let item = WorkItem {
                id,
                spec,
                token,
                reply: sink.clone(),
                enqueued: Instant::now(),
                deadline_budget: deadline.map(Duration::from_millis),
                replied: ReplyGate::new(),
                pending: Arc::clone(&shared.pending),
                stats: Arc::clone(&shared.stats),
                metrics: Arc::clone(&shared.metrics),
            };
            match shared.queue.try_push(item) {
                Ok(()) => {
                    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                }
                Err(item) => {
                    // Claim the reply before sending so the Drop backstop
                    // (which runs right after) doesn't answer a second time.
                    item.replied.claim();
                    shared.answer(&item.reply, &Reply::queue_full(item.id));
                }
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    // One executor per requested thread count: the pooled runtimes cannot
    // run concurrent regions, so executors are never shared across workers.
    // Each executor carries the per-family stats snapshots taken after its
    // last job, so per-job scheduler deltas are exact — nothing else drives
    // these pools.
    let mut executors: HashMap<
        usize,
        (Executor, Vec<(tpm_core::Family, tpm_sync::StatsSnapshot)>),
    > = HashMap::new();
    while let Some(item) = shared.queue.pop() {
        // Fault-injection point: worker pickup. A panic here escapes
        // worker_loop into the self-healing spawn loop — the worker dies
        // and respawns — while the popped item's Drop backstop answers the
        // client. This is the one site that exercises the full worker
        // death/respawn path; `task-exec` panics are contained by the
        // runtimes.
        if tpm_fault::probe(tpm_fault::Site::WorkerPickup) == tpm_fault::Action::Panic {
            tpm_fault::injected_panic(tpm_fault::Site::WorkerPickup);
        }
        let _span = tpm_trace::span("serve.job");
        let queue_ns = item.enqueued.elapsed().as_nanos() as u64;
        let queue_ms = queue_ns as f64 / 1e6;
        let (exec, last) = executors.entry(item.spec.threads).or_insert_with(|| {
            let exec = Executor::new(item.spec.threads);
            let snap = exec.pooled_stats();
            (exec, snap)
        });

        // Register with the watchdog for the duration of the run. The
        // hard-kill point is the token deadline plus the grace margin:
        // deadline + (grace − 1) × budget.
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        let kill_at = match (item.token.deadline(), item.deadline_budget) {
            (Some(deadline), Some(budget)) => {
                Some(deadline + engine::kill_offset(budget, shared.config.deadline_grace))
            }
            _ => None,
        };
        shared.inflight.lock().unwrap().insert(
            seq,
            Inflight {
                id: item.id,
                token: item.token.clone(),
                reply: item.reply.clone(),
                replied: item.replied.clone(),
                kill_at,
            },
        );

        // Contain the job: a panicking body that escapes the runtime's own
        // containment (or an injected task-exec fault) costs one error
        // reply, not the worker.
        let exec_start = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            shared.registry.run(exec, &item.spec, &item.token)
        }));
        let exec_ns = exec_start.elapsed().as_nanos() as u64;
        shared.inflight.lock().unwrap().remove(&seq);

        shared
            .metrics
            .observe_job(&item.spec.kernel, index, queue_ns, exec_ns);
        let now = exec.pooled_stats();
        for ((fam, now_snap), (_, last_snap)) in now.iter().zip(last.iter()) {
            shared
                .metrics
                .add_runtime_delta(*fam, &(*now_snap - *last_snap));
        }
        *last = now;

        // Exactly one reply per request: skip if the watchdog beat us to it
        // (it already counted the request under `watchdog`).
        if !item.replied.claim() {
            continue;
        }
        let outcome = match run {
            Ok(Ok(result)) => JobOutcome::Done {
                value: result.value,
                elapsed_ms: result.elapsed.as_secs_f64() * 1e3,
            },
            Ok(Err(e)) => JobOutcome::Failed(e),
            Err(p) => JobOutcome::Panicked(panic_message(p)),
        };
        // A dead client is fine; the job already ran.
        shared.answer(&item.reply, &Reply::finished(item.id, outcome, queue_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A registry with one well-behaved job and one that ignores its cancel
    /// token entirely (sleeps `size` ms) — the wedged-job case the watchdog
    /// exists for.
    fn test_registry() -> Arc<JobRegistry> {
        let mut reg = JobRegistry::new();
        reg.register("quick", "returns size", 1 << 20, |ctx| {
            Ok(ctx.spec.size as f64)
        });
        reg.register(
            "wedge",
            "sleeps size ms, never polls the token",
            10_000,
            |ctx| {
                std::thread::sleep(Duration::from_millis(ctx.spec.size as u64));
                Ok(0.0)
            },
        );
        reg.register("boom", "panics unconditionally", 1 << 20, |_ctx| {
            panic!("job body exploded")
        });
        Arc::new(reg)
    }

    fn start(config: ServerConfig) -> (ServerHandle, BufReader<TcpStream>, TcpStream) {
        let handle = serve(test_registry(), config).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        (handle, BufReader::new(stream), writer)
    }

    fn send_line(w: &mut TcpStream, line: &str) {
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
    }

    // Fault plans are process-global. The `inject` tests' plans fire at
    // `job-admission`, which only a running server reaches, and every test
    // in this lib that runs a server is here and holds
    // `tpm_fault::session_serial()`, so a plan fires on its own test's
    // requests, not a neighbour's.

    fn read_response(r: &mut BufReader<TcpStream>) -> Response {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        Response::parse(line.trim()).expect("parse response")
    }

    #[test]
    fn watchdog_sheds_a_wedged_job_before_it_finishes() {
        let _serial = tpm_fault::session_serial();
        let (handle, mut reader, mut writer) = start(ServerConfig {
            workers: 1,
            deadline_grace: 2.0,
            watchdog_interval_ms: 5,
            ..ServerConfig::default()
        });
        // 600 ms of token-ignoring sleep under a 50 ms deadline: the
        // runtimes can't stop it, so the watchdog must answer at
        // deadline + (grace−1)×budget = ~100 ms.
        send_line(
            &mut writer,
            r#"{"id":1,"kernel":"wedge","size":600,"deadline_ms":50}"#,
        );
        let started = Instant::now();
        let resp = read_response(&mut reader);
        let waited = started.elapsed();
        match resp {
            Response::Error { id, code, message } => {
                assert_eq!(id, Some(1));
                assert_eq!(code, "deadline");
                assert!(message.contains("watchdog"), "{message}");
            }
            other => panic!("expected watchdog deadline reply, got {other:?}"),
        }
        assert!(
            waited < Duration::from_millis(500),
            "watchdog reply took {waited:?} (job itself needs 600 ms)"
        );
        let stats = handle.shutdown();
        assert_eq!(stats.watchdog_shed, 1);
        // The worker later finished the job but found it already answered.
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn health_reports_liveness_and_load_over_the_wire() {
        let _serial = tpm_fault::session_serial();
        let (handle, mut reader, mut writer) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        send_line(&mut writer, r#"{"cmd":"health"}"#);
        match read_response(&mut reader) {
            Response::Health {
                live_workers,
                dead_workers,
                queue_depth,
                inflight,
                ..
            } => {
                assert_eq!(live_workers, 2);
                assert_eq!(dead_workers, 0);
                assert_eq!(queue_depth, 0);
                assert_eq!(inflight, 0);
            }
            other => panic!("expected health reply, got {other:?}"),
        }
        // A job still runs fine after the probe.
        send_line(&mut writer, r#"{"id":2,"kernel":"quick","size":7}"#);
        match read_response(&mut reader) {
            Response::Ok { id, value, .. } => {
                assert_eq!(id, 2);
                assert_eq!(value, 7.0);
            }
            other => panic!("{other:?}"),
        }
        handle.shutdown();
    }

    mod inject {
        use super::*;
        use tpm_fault::{FaultKind, FaultPlan, FaultSession, Site, SiteRule};

        #[test]
        fn injected_admission_panic_is_one_error_reply_not_a_dead_connection() {
            let _serial = tpm_fault::session_serial();
            let session = FaultSession::install(&FaultPlan::single(SiteRule {
                max_fires: 1,
                ..SiteRule::prob(Site::JobAdmission, FaultKind::Panic, 1.0)
            }));
            let (handle, mut reader, mut writer) = start(ServerConfig::default());

            send_line(&mut writer, r#"{"id":1,"kernel":"quick","size":3}"#);
            match read_response(&mut reader) {
                Response::Error { id, code, message } => {
                    assert_eq!(id, Some(1), "the decoded id travels into the reply");
                    assert_eq!(code, crate::protocol::CODE_INJECTED);
                    assert!(message.contains("injected"), "{message}");
                }
                other => panic!("expected injected error, got {other:?}"),
            }
            // Same connection, same reactor thread: still serving.
            send_line(&mut writer, r#"{"id":2,"kernel":"quick","size":5}"#);
            match read_response(&mut reader) {
                Response::Ok { id, value, .. } => {
                    assert_eq!(id, 2);
                    assert_eq!(value, 5.0);
                }
                other => panic!("{other:?}"),
            }
            let stats = handle.shutdown();
            let report = session.report();
            assert_eq!(report.fired.len(), 1);
            // Refused before the queue: a failed request, never admitted.
            assert_eq!((stats.admitted, stats.completed, stats.failed), (1, 1, 1));
        }

        #[test]
        fn admission_panic_under_pipelining_names_the_request_it_hit() {
            let _serial = tpm_fault::session_serial();
            let session = FaultSession::install(&FaultPlan::single(SiteRule::nth(
                Site::JobAdmission,
                FaultKind::Panic,
                2,
            )));
            let (handle, mut reader, mut writer) = start(ServerConfig::default());
            // Three requests in flight on one connection; the fault hits
            // the second. Its error must carry id 2 — not no id, and not
            // "the oldest in flight".
            writer
                .write_all(
                    b"{\"id\":1,\"kernel\":\"quick\",\"size\":1}\n\
                      {\"id\":2,\"kernel\":\"quick\",\"size\":2}\n\
                      {\"id\":3,\"kernel\":\"quick\",\"size\":3}\n",
                )
                .unwrap();
            let mut errors = Vec::new();
            let mut oks = Vec::new();
            for _ in 0..3 {
                match read_response(&mut reader) {
                    Response::Error { id, code, .. } => errors.push((id, code)),
                    Response::Ok { id, value, .. } => oks.push((id, value)),
                    other => panic!("{other:?}"),
                }
            }
            oks.sort_by_key(|(id, _)| *id);
            assert_eq!(errors, [(Some(2), crate::protocol::CODE_INJECTED)]);
            assert_eq!(oks, [(1, 1.0), (3, 3.0)]);
            handle.shutdown();
            assert_eq!(session.report().fired.len(), 1);
        }
    }

    #[test]
    fn job_panic_is_contained_and_the_worker_stays_live() {
        let _serial = tpm_fault::session_serial();
        let (handle, mut reader, mut writer) = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        send_line(&mut writer, r#"{"id":1,"kernel":"boom","size":3}"#);
        match read_response(&mut reader) {
            Response::Error { id, code, message } => {
                assert_eq!(id, Some(1));
                assert_eq!(code, "panic");
                assert!(message.contains("exploded"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // Same (sole) worker takes the next job: containment, not death.
        send_line(&mut writer, r#"{"id":2,"kernel":"quick","size":9}"#);
        match read_response(&mut reader) {
            Response::Ok { id, value, .. } => {
                assert_eq!(id, 2);
                assert_eq!(value, 9.0);
            }
            other => panic!("{other:?}"),
        }
        send_line(&mut writer, r#"{"cmd":"health"}"#);
        match read_response(&mut reader) {
            Response::Health { live_workers, .. } => assert_eq!(live_workers, 1),
            other => panic!("{other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }
}
