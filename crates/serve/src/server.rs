//! The job server: two interchangeable socket data paths feeding one worker
//! pool through the bounded admission queue.
//!
//! * **Epoll reactor** (the default where supported): one reactor thread
//!   multiplexes the listener and every connection through raw `epoll`
//!   syscalls ([`tpm_sync::epoll`]) — nonblocking accept, per-connection
//!   read/write buffers, incremental frame decoding, responses flushed back
//!   through the same thread. Connections cost a buffer, not an OS thread,
//!   so thousands can be open at once.
//! * **Thread-per-connection** (the fallback, and the paper's baseline):
//!   one reader and one writer thread per connection, blocking IO.
//!
//! Both paths speak both wire protocols (JSON lines and the binary framing
//! — sniffed per connection, see [`crate::wire`]), decode through the same
//! [`Decoder`], and dispatch through the same [`handle_frame`], so protocol
//! behaviour is identical; only the socket mechanics differ. `workers`
//! executor threads drain the shared [`BoundedQueue`]; each worker owns its
//! executors (one per requested thread count) because a `Team`/`Runtime`
//! cannot run two regions concurrently.
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
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpm_alloc::{BufPool, PooledBuf};
use tpm_core::{panic_message, Executor, JobRegistry, JobSpec};
use tpm_sync::epoll::EventFd;
use tpm_sync::CancelToken;

use crate::engine::{self, ReplyGate, Transport};
use crate::metrics::ServeMetrics;
use crate::protocol::{Request, Response, CODE_INJECTED, CODE_OVERLOADED, CODE_PARSE};
use crate::queue::BoundedQueue;
use crate::wire::{self, Decoder, Protocol};

/// Which socket data path the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPath {
    /// Epoll reactor where the platform supports it, threaded elsewhere.
    #[default]
    Auto,
    /// Epoll reactor; [`serve`] fails on platforms without the shim.
    Epoll,
    /// One reader + one writer OS thread per connection (the baseline the
    /// reactor is benchmarked against).
    Threaded,
}

impl DataPath {
    /// The CLI spelling (`auto` / `epoll` / `threaded`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataPath::Auto => "auto",
            DataPath::Epoll => "epoll",
            DataPath::Threaded => "threaded",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<DataPath> {
        match s {
            "auto" => Some(DataPath::Auto),
            "epoll" => Some(DataPath::Epoll),
            "threaded" => Some(DataPath::Threaded),
            _ => None,
        }
    }
}

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
    /// Socket data path (see [`DataPath`]).
    pub data_path: DataPath,
    /// Recycle reply buffers through a shared pool instead of allocating a
    /// fresh `Vec` per response (`--arena on|off`; on by default). Reply
    /// bytes are identical either way — only the buffer's provenance
    /// changes.
    pub arena: bool,
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
            data_path: DataPath::Auto,
            arena: true,
        }
    }
}

/// Monotonic request counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServeStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    /// Shared with every in-flight [`WorkItem`] so the `Drop` backstop can
    /// count the jobs it answers for dead workers.
    failed: Arc<AtomicU64>,
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
    /// Jobs answered with an execution error (deadline, panic, …).
    pub failed: u64,
    /// Requests refused `overloaded` at admission.
    pub shed: u64,
    /// Jobs the watchdog cancelled after they overran their deadline by the
    /// grace factor.
    pub watchdog_shed: u64,
}

impl ServeStats {
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

/// Where a reply goes, independent of which data path produced the request.
/// Serialization (per the connection's negotiated protocol) happens at send
/// time on the replying thread, so the reactor never serializes under load.
#[derive(Clone)]
pub(crate) enum ReplySink {
    /// Threaded path: the connection's writer thread drains this channel.
    Thread {
        /// Wire encoding the connection sniffed to.
        proto: Protocol,
        /// Reply-buffer pool (`None` when `--arena off`).
        pool: Option<Arc<BufPool>>,
        /// Pre-encoded bytes for the writer thread.
        tx: mpsc::Sender<PooledBuf>,
    },
    /// Reactor path: completions flow to the reactor (tagged with the
    /// connection token), which appends them to that connection's write
    /// buffer; the eventfd wakes it out of `epoll_wait`.
    Reactor {
        /// Reactor-assigned connection token.
        conn: u64,
        /// Wire encoding the connection sniffed to.
        proto: Protocol,
        /// Reply-buffer pool (`None` when `--arena off`).
        pool: Option<Arc<BufPool>>,
        /// Completion channel into the reactor.
        tx: mpsc::Sender<(u64, PooledBuf)>,
        /// Wakes the reactor's `epoll_wait`.
        wake: Arc<EventFd>,
    },
}

/// Encodes one reply into a pool-recycled buffer (or a plain vector when
/// arenas are off). The buffer's capacity returns to the pool when the
/// writer/reactor thread drops it after flushing.
fn encode_reply(pool: &Option<Arc<BufPool>>, proto: Protocol, resp: &Response) -> PooledBuf {
    let mut buf = match pool {
        Some(p) => p.take(),
        None => PooledBuf::unpooled(),
    };
    wire::encode_response_into(proto, resp, &mut buf);
    buf
}

impl ReplySink {
    pub(crate) fn send(&self, resp: &Response) {
        match self {
            ReplySink::Thread { proto, pool, tx } => {
                let _ = tx.send(encode_reply(pool, *proto, resp));
            }
            ReplySink::Reactor {
                conn,
                proto,
                pool,
                tx,
                wake,
            } => {
                let _ = tx.send((*conn, encode_reply(pool, *proto, resp)));
                wake.signal();
            }
        }
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
    /// `ServeStats::failed`, so the `Drop` backstop's reply is counted and
    /// `admitted == completed + failed + shed + watchdog_shed` holds across
    /// worker death (the desim invariant checker audits exactly this).
    pub(crate) failed: Arc<AtomicU64>,
}

impl Drop for WorkItem {
    fn drop(&mut self) {
        // Backstop: an item dropped unanswered (a worker thread unwinding
        // between pop and reply) still costs exactly one error reply, never
        // a silently hung client. Reply first, then decrement — the reactor
        // treats pending == 0 as "every reply is already in my channel".
        if self.replied.claim() {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.reply.send(&Response::Error {
                id: Some(self.id),
                code: "panic",
                message: engine::MSG_DROPPED.to_string(),
            });
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
    pub(crate) stats: ServeStats,
    pub(crate) addr: SocketAddr,
    /// Jobs currently executing, keyed by a server-global sequence number
    /// (client ids are only unique per connection).
    pub(crate) inflight: Mutex<HashMap<u64, Inflight>>,
    pub(crate) seq: AtomicU64,
    pub(crate) live_workers: AtomicUsize,
    pub(crate) dead_workers: AtomicU64,
    pub(crate) metrics: ServeMetrics,
    /// Live [`WorkItem`]s (admitted or shed-in-progress, queued or
    /// executing). See [`WorkItem::pending`].
    pub(crate) pending: Arc<AtomicU64>,
    /// The reactor's wake eventfd, when the reactor path is running —
    /// `begin_shutdown` signals it so a quiescent reactor re-checks.
    pub(crate) reactor_wake: Mutex<Option<Arc<EventFd>>>,
    /// Reply-buffer pool shared by every sink (`None` when `--arena off`).
    pub(crate) pool: Option<Arc<BufPool>>,
}

impl Shared {
    /// Stops admission and wakes everyone: future pushes shed, workers drain
    /// what's queued, threaded readers exit at their next poll tick, the
    /// reactor re-checks its drain condition, and a throwaway connection
    /// unblocks a blocking accept loop.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        if let Some(wake) = self.reactor_wake.lock().unwrap().as_ref() {
            wake.signal();
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`shutdown`](Self::shutdown) (or send a shutdown request) and the
/// handle joins every thread.
#[must_use = "join the server via .shutdown() or .wait(), or it keeps running"]
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The accept thread (threaded path) or the reactor thread (epoll path).
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    data_path: DataPath,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .field("data_path", &self.data_path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The data path actually running (`Auto` resolved to what the platform
    /// supports).
    pub fn data_path(&self) -> DataPath {
        self.data_path
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
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        // The accept thread is done, so no new connections can be added.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }
}

/// Binds `config.addr` and starts the data path and worker pool. Jobs are
/// dispatched through `registry`.
pub fn serve(registry: Arc<JobRegistry>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let metrics = ServeMetrics::new(workers, &registry.names());
    metrics.export_input_cache(&registry);
    let pool = config.arena.then(|| BufPool::for_serve(workers));
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        registry,
        config,
        shutdown: AtomicBool::new(false),
        stats: ServeStats::default(),
        addr,
        inflight: Mutex::new(HashMap::new()),
        seq: AtomicU64::new(0),
        live_workers: AtomicUsize::new(workers),
        dead_workers: AtomicU64::new(0),
        metrics,
        pending: Arc::new(AtomicU64::new(0)),
        reactor_wake: Mutex::new(None),
        pool,
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
        // Arena instruments exist only when the pool does, so `--arena off`
        // is visible in the exposition as their absence.
        if let Some(pool) = &shared.pool {
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
    }
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

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

    let want_reactor = match shared.config.data_path {
        DataPath::Threaded => false,
        DataPath::Epoll | DataPath::Auto => true,
    };
    let (accept, resolved_path) = if want_reactor {
        match try_spawn_reactor(listener, &shared) {
            Ok(h) => (h, DataPath::Epoll),
            Err((listener, e)) => {
                if shared.config.data_path == DataPath::Epoll {
                    // The caller demanded the reactor; don't run degraded.
                    shared.begin_shutdown();
                    for h in worker_handles {
                        let _ = h.join();
                    }
                    let _ = watchdog.join();
                    drop(listener);
                    return Err(e);
                }
                (
                    spawn_accept_thread(listener, &shared, &conns),
                    DataPath::Threaded,
                )
            }
        }
    } else {
        (
            spawn_accept_thread(listener, &shared, &conns),
            DataPath::Threaded,
        )
    };

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_handles,
        watchdog: Some(watchdog),
        conns,
        data_path: resolved_path,
    })
}

fn spawn_accept_thread(
    listener: TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let conns = Arc::clone(conns);
    std::thread::Builder::new()
        .name("tpm-serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &shared, &conns))
        .expect("spawn accept loop")
}

/// Spawns the epoll reactor, or hands the listener back with the error so
/// `Auto` can fall back to the threaded path.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn try_spawn_reactor(
    listener: TcpListener,
    shared: &Arc<Shared>,
) -> Result<JoinHandle<()>, (TcpListener, std::io::Error)> {
    use tpm_sync::epoll::Epoll;
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => return Err((listener, e)),
    };
    let wake = match EventFd::new() {
        Ok(w) => Arc::new(w),
        Err(e) => return Err((listener, e)),
    };
    if let Err(e) = listener.set_nonblocking(true) {
        return Err((listener, e));
    }
    let (tx, rx) = mpsc::channel();
    *shared.reactor_wake.lock().unwrap() = Some(Arc::clone(&wake));
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("tpm-serve-reactor".to_string())
        .spawn(move || crate::reactor::run(&ep, listener, &shared, &tx, &rx, &wake))
        .expect("spawn reactor");
    Ok(handle)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn try_spawn_reactor(
    listener: TcpListener,
    _shared: &Arc<Shared>,
) -> Result<JoinHandle<()>, (TcpListener, std::io::Error)> {
    Err((
        listener,
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "epoll data path is Linux x86-64 only",
        ),
    ))
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
        for (id, reply) in overdue.drain(..) {
            shared.stats.watchdog_shed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.observe_outcome("watchdog");
            reply.send(&Response::Error {
                id: Some(id),
                code: "deadline",
                message: engine::MSG_WATCHDOG_SHED.to_string(),
            });
        }
        std::thread::sleep(interval);
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): refuse.
                    break;
                }
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("tpm-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared))
                    .expect("spawn connection thread");
                conns.lock().unwrap().push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Poll interval at which blocked reads re-check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // The peer's IP identifies clients that don't send an explicit
    // `client` field (the port would make every connection "distinct").
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<PooledBuf>();
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("tpm-serve-writer".to_string())
            .spawn(move || writer_loop(write_half, &rx, &shared))
            .expect("spawn connection writer")
    };

    shared.metrics.conn_opened();
    read_loop(stream, shared, &tx, &peer);
    shared.metrics.conn_closed();

    // Queued jobs hold reply-sink clones; the writer exits once the last
    // one drops (after the drain), so every admitted request gets answered.
    drop(tx);
    let _ = writer.join();
}

fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<PooledBuf>, shared: &Arc<Shared>) {
    while let Ok(bytes) = rx.recv() {
        if stream.write_all(&bytes).is_err() {
            // Client gone: keep draining the channel so senders never block
            // (they don't — mpsc is unbounded — but exiting early would make
            // workers' sends error out, which they already tolerate).
            break;
        }
        shared.metrics.add_bytes_written(bytes.len() as u64);
        // Dropping `bytes` here returns its capacity to the pool.
    }
    let _ = stream.flush();
}

/// The threaded read loop: bytes → [`Decoder`] → [`handle_frame`]. Shared
/// decode logic with the reactor means both wire protocols (and pipelining)
/// work identically on both data paths.
fn read_loop(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<PooledBuf>,
    peer: &str,
) {
    let mut decoder = Decoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                shared.metrics.add_bytes_read(n as u64);
                decoder.feed(&chunk[..n]);
                if !pump_decoder(&mut decoder, shared, tx, peer) {
                    break; // framing lost: error already queued, close
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// The threaded path's [`Transport`]: copies engine output into a pooled
/// buffer and hands it to the connection's writer thread.
struct ThreadTransport<'a> {
    pool: &'a Option<Arc<BufPool>>,
    tx: &'a mpsc::Sender<PooledBuf>,
}

impl Transport for ThreadTransport<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) {
        let mut buf = match self.pool {
            Some(p) => p.take(),
            None => PooledBuf::unpooled(),
        };
        buf.extend_from_slice(bytes);
        let _ = self.tx.send(buf);
    }
}

/// Drains every decodable message out of `decoder`. Returns `false` when the
/// stream is corrupt (the caller closes the connection).
fn pump_decoder(
    decoder: &mut Decoder,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<PooledBuf>,
    peer: &str,
) -> bool {
    let mut transport = ThreadTransport {
        pool: &shared.pool,
        tx,
    };
    engine::pump_session(decoder, &mut transport, |proto, parsed| {
        let sink = ReplySink::Thread {
            proto,
            pool: shared.pool.clone(),
            tx: tx.clone(),
        };
        handle_frame(parsed, shared, &sink, peer);
    })
}

/// Dispatches one decoded message (or its parse error) with panic
/// containment: a panic here — injected via the job-admission fault site,
/// or organic — must cost one error reply, not the data path's thread.
pub(crate) fn handle_frame(
    parsed: Result<Request, String>,
    shared: &Arc<Shared>,
    sink: &ReplySink,
    peer: &str,
) {
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
        handle_request(parsed, shared, sink, peer)
    })) {
        let message = panic_message(p);
        let code = if tpm_fault::is_injected_message(&message) {
            CODE_INJECTED
        } else {
            "panic"
        };
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        shared.metrics.observe_outcome(code);
        sink.send(&Response::Error {
            id: None,
            code,
            message,
        });
    }
}

fn handle_request(
    parsed: Result<Request, String>,
    shared: &Arc<Shared>,
    sink: &ReplySink,
    peer: &str,
) {
    match parsed {
        Err(msg) => {
            shared.metrics.observe_outcome(CODE_PARSE);
            sink.send(&Response::Error {
                id: None,
                code: CODE_PARSE,
                message: msg,
            });
        }
        Ok(Request::Ping) => sink.send(&Response::Pong),
        Ok(Request::Health) => {
            let stats = shared.stats.snapshot();
            sink.send(&Response::Health {
                live_workers: shared.live_workers.load(Ordering::Relaxed) as u64,
                dead_workers: shared.dead_workers.load(Ordering::Relaxed),
                queue_depth: shared.queue.len() as u64,
                inflight: shared.inflight.lock().unwrap().len() as u64,
                admitted: stats.admitted,
                completed: stats.completed,
                shed: stats.shed + stats.watchdog_shed,
                distinct_clients: shared.metrics.distinct_clients(),
            });
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
            // Fault-injection point: job admission. A panic rule unwinds
            // into handle_frame's catch (one error reply); a steal-miss rule
            // models load shedding; a task-drop rule refuses the job with an
            // `injected` reply — observable, never a silent drop.
            match tpm_fault::probe(tpm_fault::Site::JobAdmission) {
                tpm_fault::Action::Panic => {
                    tpm_fault::injected_panic(tpm_fault::Site::JobAdmission)
                }
                tpm_fault::Action::TaskDrop => {
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.observe_outcome(CODE_INJECTED);
                    sink.send(&Response::Error {
                        id: Some(id),
                        code: CODE_INJECTED,
                        message: "injected task-drop at job-admission".to_string(),
                    });
                    return;
                }
                tpm_fault::Action::StealMiss => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.observe_outcome(CODE_OVERLOADED);
                    sink.send(&Response::Error {
                        id: Some(id),
                        code: CODE_OVERLOADED,
                        message: "injected admission shed".to_string(),
                    });
                    return;
                }
                tpm_fault::Action::None => {}
            }
            // The transport-independent admission decision (thread limit,
            // spec validation, deadline resolution) — shared with the
            // deterministic simulator.
            let policy = engine::AdmissionPolicy {
                max_threads: shared.config.max_threads,
                default_deadline_ms: shared.config.default_deadline_ms,
            };
            let deadline = match engine::admit(&shared.registry, &policy, &spec, deadline_ms) {
                engine::Admission::Refuse {
                    code,
                    message,
                    shed,
                } => {
                    let counter = if shed {
                        &shared.stats.shed
                    } else {
                        &shared.stats.failed
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.observe_outcome(code);
                    sink.send(&Response::Error {
                        id: Some(id),
                        code,
                        message,
                    });
                    return;
                }
                engine::Admission::Accept { deadline_ms } => deadline_ms,
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
                failed: Arc::clone(&shared.stats.failed),
            };
            match shared.queue.try_push(item) {
                Ok(()) => {
                    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                }
                Err(item) => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.observe_outcome(CODE_OVERLOADED);
                    // Claim the reply before sending so the Drop backstop
                    // (which runs right after) doesn't answer a second time.
                    item.replied.claim();
                    item.reply.send(&Response::Error {
                        id: Some(item.id),
                        code: CODE_OVERLOADED,
                        message: engine::MSG_QUEUE_FULL.to_string(),
                    });
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
        let response = match run {
            Ok(Ok(result)) => {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.observe_outcome("ok");
                Response::Ok {
                    id: item.id,
                    value: result.value,
                    elapsed_ms: result.elapsed.as_secs_f64() * 1e3,
                    queue_ms,
                }
            }
            Ok(Err(e)) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.observe_outcome(e.code());
                Response::Error {
                    id: Some(item.id),
                    code: e.code(),
                    message: e.to_string(),
                }
            }
            Err(p) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let message = panic_message(p);
                let code = if tpm_fault::is_injected_message(&message) {
                    CODE_INJECTED
                } else {
                    "panic"
                };
                shared.metrics.observe_outcome(code);
                Response::Error {
                    id: Some(item.id),
                    code,
                    message,
                }
            }
        };
        // A dead client is fine; the job already ran.
        item.reply.send(&response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

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

    fn read_response(r: &mut BufReader<TcpStream>) -> Response {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        Response::parse(line.trim()).expect("parse response")
    }

    #[test]
    fn auto_resolves_to_a_concrete_path() {
        let handle = serve(test_registry(), ServerConfig::default()).expect("bind");
        let resolved = handle.data_path();
        assert_ne!(resolved, DataPath::Auto);
        if tpm_sync::epoll::supported() {
            assert_eq!(resolved, DataPath::Epoll);
        } else {
            assert_eq!(resolved, DataPath::Threaded);
        }
        handle.shutdown();
    }

    #[test]
    fn watchdog_sheds_a_wedged_job_before_it_finishes() {
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

    #[cfg(feature = "inject")]
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
                Response::Error { code, message, .. } => {
                    assert_eq!(code, CODE_INJECTED);
                    assert!(message.contains("injected"), "{message}");
                }
                other => panic!("expected injected error, got {other:?}"),
            }
            // Same connection, same data-path thread: still serving.
            send_line(&mut writer, r#"{"id":2,"kernel":"quick","size":5}"#);
            match read_response(&mut reader) {
                Response::Ok { id, value, .. } => {
                    assert_eq!(id, 2);
                    assert_eq!(value, 5.0);
                }
                other => panic!("{other:?}"),
            }
            handle.shutdown();
            let report = session.report();
            assert_eq!(report.fired.len(), 1);
        }
    }

    #[test]
    fn job_panic_is_contained_and_the_worker_stays_live() {
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

    #[test]
    fn threaded_path_still_serves_when_forced() {
        let (handle, mut reader, mut writer) = start(ServerConfig {
            data_path: DataPath::Threaded,
            ..ServerConfig::default()
        });
        assert_eq!(handle.data_path(), DataPath::Threaded);
        send_line(&mut writer, r#"{"id":1,"kernel":"quick","size":11}"#);
        match read_response(&mut reader) {
            Response::Ok { id, value, .. } => {
                assert_eq!(id, 1);
                assert_eq!(value, 11.0);
            }
            other => panic!("{other:?}"),
        }
        handle.shutdown();
    }
}
