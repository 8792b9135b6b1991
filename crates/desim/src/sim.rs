//! The event-driven service simulator.
//!
//! One [`Sim`] is one run: simulated clients fire real wire-encoded
//! requests through the seeded virtual network at a simulated server node.
//!
//! **Shared with production** (the same functions `tpm-serve`'s server
//! calls, not copies): the wire codecs and the protocol-sniffing
//! [`Decoder`] via [`engine::pump_session`]; [`engine::admit`] for
//! admission; [`ReplyGate`] for the exactly-one-reply claim;
//! [`engine::kill_offset`] for the watchdog's kill point; and
//! [`engine::Reply`] / [`engine::health`] for *what every reply says and
//! which counter it lands in* — this file builds no error reply and picks
//! no counter. The registered kernels really execute, through the real
//! `JobRegistry`.
//!
//! **Simulated here** (this file's own code, modelled on `server.rs` but
//! not shared with it): scheduling. The queue is a `VecDeque`, workers are
//! slots with virtual job durations drawn from the seed, the watchdog is a
//! periodic event, worker death and respawn are events, and fault-plan
//! decisions come from [`PlanEval`] rather than the process-global prober
//! (so an admission `panic` is *decided*, not unwound). A bug in when
//! something happens can therefore be a simulator bug; a bug in what is
//! said about it cannot.
//!
//! Determinism: the run is single-threaded, every event pops in `(time,
//! scheduling order)`, and all randomness (network jitter, job durations,
//! fault decisions) comes from [`SplitMix64`] streams derived from the run
//! seed. The event log is therefore a pure function of
//! `(config, registry)` — byte-identical across runs — which is what makes
//! `--replay` and seed-sweep CI checks possible.

#[allow(unused_imports)]
use crate::clock::Instant; // shadows the std wall-clock type; see clock.rs
use crate::invariants::{self, Ledger};
use crate::net::{Dir, Fate, Net};
use crate::{Bug, DesimConfig, DesimReport, SimStats};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::time::Duration;
use tpm_core::{ExecError, Executor, JobRegistry, JobSpec, KernelVariant, Model};
use tpm_fault::{FaultKind, FaultPlan, PlanEval, Site, SiteRule};
use tpm_serve::engine::{self, Bucket, HealthView, JobOutcome, Reply, ReplyGate, Transport};
use tpm_serve::wire::{self, Decoder, ResponseDecoder, Step};
use tpm_serve::{Protocol, Request, Response};
use tpm_sim::{Clock, EventQueue, VirtualClock};
use tpm_sync::{CancelToken, SplitMix64};

/// One-way base latency per message.
const BASE_DELAY_NS: u64 = 50_000;
/// Uniform jitter added on top of the base latency.
const JITTER_NS: u64 = 30_000;
/// How long a dead worker slot takes to respawn.
const RESPAWN_NS: u64 = 200_000;
/// Detection lag for a deadline crossed mid-execution (the real runtimes
/// poll the cancel token between chunks).
const POLL_LAG_NS: u64 = 100_000;
/// Gap between the last request and the shutdown command.
const SHUTDOWN_LAG_NS: u64 = 2_000_000;
/// Virtual execution time floor for one job.
const JOB_BASE_NS: u64 = 150_000;
/// Uniform spread above the floor.
const JOB_JITTER_NS: u64 = 450_000;

#[derive(Debug)]
enum Ev {
    ClientSend {
        client: usize,
        idx: u64,
    },
    ShutdownSend,
    Deliver {
        conn: usize,
        dir: Dir,
        bytes: Vec<u8>,
        meta: Meta,
    },
    WorkerDone {
        worker: usize,
        seq: u64,
    },
    WorkerRespawn {
        worker: usize,
    },
    WatchdogTick,
}

/// What a network message carries, for ledger attribution.
#[derive(Debug, Clone)]
enum Meta {
    /// Protocol preamble (binary handshake).
    Preamble,
    /// A `run` request.
    Request { client: usize, id: u64 },
    /// A reply tied to a request id (`None` for parse errors).
    Reply { client: usize, id: Option<u64> },
    /// Control traffic (shutdown, pong, preamble echo, …).
    Control,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Worker {
    Idle,
    Busy,
    Dead,
}

struct SimJob {
    seq: u64,
    conn: usize,
    id: u64,
    spec: JobSpec,
    deadline_ns: Option<u64>,
    admitted_ns: u64,
    gate: ReplyGate,
}

struct Inflight {
    conn: usize,
    id: u64,
    gate: ReplyGate,
    /// Watchdog hard-kill point (deadline + [`engine::kill_offset`]); only
    /// set for wedged jobs that ignore their token.
    kill_at: Option<u64>,
    deadline_ns: Option<u64>,
    admitted_ns: u64,
    started_ns: u64,
    outcome: JobOutcome,
}

struct ClientState {
    proto: Protocol,
    decoder: ResponseDecoder,
    preamble_seen: bool,
}

/// Collects the engine's outbound bytes so the driver can route them
/// through the virtual network after the pump returns.
#[derive(Default)]
struct TransportBuf(Vec<Vec<u8>>);

impl Transport for TransportBuf {
    fn send_bytes(&mut self, bytes: &[u8]) {
        self.0.push(bytes.to_vec());
    }
}

/// The default fault mix used when the config carries no plan: light but
/// broad pressure on every site the simulator models, network and
/// in-process alike, so an unadorned seed sweep already exercises drops,
/// duplicates, partitions, worker deaths, wedged jobs, and admission
/// faults from one seed.
pub(crate) fn default_plan() -> FaultPlan {
    fn with_delay(mut r: SiteRule, delay_us: u64) -> SiteRule {
        r.delay_us = delay_us;
        r
    }
    FaultPlan {
        seed: 0, // overridden per run via PlanEval::with_seed
        rules: vec![
            SiteRule::prob(Site::NetDeliver, FaultKind::TaskDrop, 0.02),
            with_delay(
                SiteRule::prob(Site::NetDeliver, FaultKind::Delay, 0.04),
                2_000,
            ),
            SiteRule::prob(Site::NetDeliver, FaultKind::Duplicate, 0.02),
            with_delay(
                SiteRule::prob(Site::NetDeliver, FaultKind::Partition, 0.004),
                3_000,
            ),
            SiteRule::prob(Site::WorkerPickup, FaultKind::Panic, 0.02),
            with_delay(
                SiteRule::prob(Site::TaskExec, FaultKind::Delay, 0.02),
                25_000,
            ),
            SiteRule::prob(Site::TaskExec, FaultKind::Panic, 0.01),
            SiteRule::prob(Site::JobAdmission, FaultKind::StealMiss, 0.01),
        ],
    }
}

pub(crate) struct Sim<'a> {
    cfg: &'a DesimConfig,
    registry: &'a JobRegistry,
    clock: VirtualClock,
    events: EventQueue<Ev>,
    eval: PlanEval,
    net: Net,
    rng: SplitMix64,
    log: String,
    violations: Vec<String>,
    replies: Vec<(usize, Response)>,
    stats: SimStats,
    ledger: Ledger,
    clients: Vec<ClientState>,
    sessions: Vec<Decoder>,
    queue: VecDeque<SimJob>,
    inflight: BTreeMap<u64, Inflight>,
    workers: Vec<Worker>,
    execs: HashMap<usize, Executor>,
    plan_summary: String,
    job_seq: u64,
    sends_left: u64,
    kill_offset_ns: u64,
    shutdown_started: bool,
    stopped: bool,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(cfg: &'a DesimConfig, registry: &'a JobRegistry) -> Self {
        let plan = cfg.plan.clone().unwrap_or_else(default_plan);
        let budget_ms = cfg.deadline_ms.unwrap_or(0);
        let kill_offset = engine::kill_offset(Duration::from_millis(budget_ms), cfg.deadline_grace);
        Self {
            cfg,
            registry,
            clock: VirtualClock::new(),
            events: EventQueue::new(),
            eval: PlanEval::with_seed(&plan, cfg.seed),
            net: Net::new(cfg.clients, cfg.seed, BASE_DELAY_NS, JITTER_NS),
            rng: SplitMix64::new(cfg.seed ^ 0x6a6f_625f_6475_7273), // "job_durs"
            log: String::new(),
            violations: Vec::new(),
            replies: Vec::new(),
            stats: SimStats::default(),
            ledger: Ledger::default(),
            clients: (0..cfg.clients)
                .map(|_| ClientState {
                    proto: cfg.protocol,
                    decoder: ResponseDecoder::new(cfg.protocol),
                    preamble_seen: false,
                })
                .collect(),
            sessions: (0..cfg.clients).map(|_| Decoder::new()).collect(),
            queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            workers: vec![Worker::Idle; cfg.workers],
            execs: HashMap::new(),
            plan_summary: plan.describe(),
            job_seq: 0,
            sends_left: (cfg.clients * cfg.requests_per_client) as u64,
            kill_offset_ns: kill_offset.as_nanos() as u64,
            shutdown_started: false,
            stopped: false,
        }
    }

    pub(crate) fn run(mut self) -> DesimReport {
        // Stagger client start times so connection order is part of the
        // seedable interleaving rather than a fixed lockstep.
        for client in 0..self.cfg.clients {
            let start = (client as u64) * 10_000 + self.rng.next_bounded(10_000);
            self.events
                .schedule(start, Ev::ClientSend { client, idx: 0 });
        }
        self.events
            .schedule(self.watchdog_interval_ns(), Ev::WatchdogTick);
        while let Some((t, ev)) = self.events.pop() {
            self.clock.advance_to(t);
            let now = self.clock.now_ns();
            self.dispatch_event(now, ev);
            self.check_drained(now);
        }
        if !self.stopped {
            self.violations
                .push("liveness: run ended without the server draining".to_string());
        }
        invariants::check(
            &self.ledger,
            &self.stats,
            self.stopped,
            self.queue.len(),
            self.inflight.len(),
            &mut self.violations,
        );
        self.stats.faults_fired = self.eval.fired().len() as u64;
        DesimReport {
            seed: self.cfg.seed,
            virtual_ns: self.clock.now_ns(),
            log: self.log,
            violations: self.violations,
            stats: self.stats,
            replies: self.replies,
            plan_summary: self.plan_summary,
        }
    }

    fn watchdog_interval_ns(&self) -> u64 {
        self.cfg.watchdog_interval_ms.max(1) * 1_000_000
    }

    fn logln(&mut self, now: u64, args: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.log, "[{now:>12}] {args}");
    }

    fn dispatch_event(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::ClientSend { client, idx } => self.client_send(now, client, idx),
            Ev::ShutdownSend => self.shutdown_send(now),
            Ev::Deliver {
                conn,
                dir,
                bytes,
                meta,
            } => match dir {
                Dir::ToServer => self.deliver_to_server(now, conn, bytes, meta),
                Dir::ToClient => self.deliver_to_client(now, conn, bytes),
            },
            Ev::WorkerDone { worker, seq } => self.worker_done(now, worker, seq),
            Ev::WorkerRespawn { worker } => self.worker_respawn(now, worker),
            Ev::WatchdogTick => self.watchdog_tick(now),
        }
    }

    // ---- client side -----------------------------------------------------

    fn request_spec(&self, client: usize, idx: u64) -> (JobSpec, Option<u64>) {
        let slot = client + idx as usize;
        let spec = JobSpec {
            kernel: self.cfg.kernel.clone(),
            model: Model::ALL[slot % Model::ALL.len()],
            variant: KernelVariant::Reference,
            size: self.cfg.size,
            threads: self.cfg.threads,
        };
        // Two of three requests carry a deadline; the rest run unbounded so
        // both arms of the watchdog logic see traffic.
        let deadline_ms = if slot % 3 == 2 {
            None
        } else {
            self.cfg.deadline_ms
        };
        (spec, deadline_ms)
    }

    fn client_send(&mut self, now: u64, client: usize, idx: u64) {
        let proto = self.clients[client].proto;
        if idx == 0 && proto == Protocol::Binary {
            self.dispatch_to(
                now,
                client,
                Dir::ToServer,
                wire::client_preamble(1).to_vec(),
                Meta::Preamble,
                true,
            );
        }
        let (spec, deadline_ms) = self.request_spec(client, idx);
        let model = spec.model.name();
        let req = Request::Run {
            id: idx,
            spec,
            deadline_ms,
            client: Some(format!("c{client}")),
        };
        let bytes = wire::encode_request(proto, &req);
        self.ledger.track(client, idx).sent_ns = now;
        self.stats.requests += 1;
        match deadline_ms {
            Some(ms) => self.logln(
                now,
                format_args!("client {client} sends id={idx} model={model} deadline={ms}ms"),
            ),
            None => self.logln(
                now,
                format_args!("client {client} sends id={idx} model={model}"),
            ),
        }
        self.dispatch_to(
            now,
            client,
            Dir::ToServer,
            bytes,
            Meta::Request { client, id: idx },
            false,
        );
        self.sends_left -= 1;
        if idx + 1 < self.cfg.requests_per_client as u64 {
            let gap = self.cfg.gap_us * 1_000;
            let jitter = self.rng.next_bounded(gap / 4 + 1);
            self.events.schedule(
                now + gap + jitter,
                Ev::ClientSend {
                    client,
                    idx: idx + 1,
                },
            );
        }
        if self.sends_left == 0 {
            self.events
                .schedule(now + SHUTDOWN_LAG_NS, Ev::ShutdownSend);
        }
    }

    fn shutdown_send(&mut self, now: u64) {
        let proto = self.clients[0].proto;
        let bytes = wire::encode_request(proto, &Request::Shutdown);
        self.logln(now, format_args!("client 0 sends shutdown"));
        self.dispatch_to(now, 0, Dir::ToServer, bytes, Meta::Control, true);
    }

    fn deliver_to_client(&mut self, now: u64, conn: usize, bytes: Vec<u8>) {
        let mut got: Vec<Result<Response, String>> = Vec::new();
        {
            let c = &mut self.clients[conn];
            if c.proto == Protocol::Binary && !c.preamble_seen {
                // The first server message on a binary connection is the
                // 2-byte preamble echo, sent (critically) on its own.
                c.preamble_seen = true;
                if bytes.len() > 2 {
                    c.decoder.feed(&bytes[2..]);
                }
            } else {
                c.decoder.feed(&bytes);
            }
            loop {
                match c.decoder.next() {
                    Step::NeedMore => break,
                    Step::Message(m) => got.push(m),
                    Step::Preamble(_) => {
                        got.push(Err("unexpected preamble in reply stream".to_string()));
                        break;
                    }
                    Step::Corrupt(e) => {
                        got.push(Err(format!("client decoder corrupt: {e}")));
                        break;
                    }
                }
            }
        }
        for m in got {
            match &m {
                Ok(Response::Ok { id, .. }) => {
                    self.ledger.track(conn, *id).replies_decoded += 1;
                    self.stats.replies_decoded += 1;
                    self.logln(now, format_args!("client {conn} decoded id={id} ok"));
                }
                Ok(Response::Error {
                    id: Some(id), code, ..
                }) => {
                    self.ledger.track(conn, *id).replies_decoded += 1;
                    self.stats.replies_decoded += 1;
                    self.logln(
                        now,
                        format_args!("client {conn} decoded id={id} error={code}"),
                    );
                }
                Ok(Response::Error { id: None, code, .. }) => {
                    self.logln(
                        now,
                        format_args!("client {conn} decoded anonymous error={code}"),
                    );
                }
                Ok(Response::ShuttingDown) => {
                    self.logln(now, format_args!("client {conn} decoded shutting-down"));
                }
                Ok(_) => {
                    self.logln(now, format_args!("client {conn} decoded control reply"));
                }
                Err(e) => self
                    .violations
                    .push(format!("client {conn} reply stream broke: {e}")),
            }
            if let Ok(reply) = m {
                self.replies.push((conn, reply));
            }
        }
    }

    // ---- virtual network -------------------------------------------------

    fn dispatch_to(
        &mut self,
        now: u64,
        conn: usize,
        dir: Dir,
        bytes: Vec<u8>,
        meta: Meta,
        critical: bool,
    ) {
        match self.net.dispatch(now, conn, dir, critical, &mut self.eval) {
            Fate::Deliver { at, note } => {
                let copies = at.len() as u32;
                match (&meta, note) {
                    (_, None) => {}
                    (Meta::Request { client, id }, Some(n))
                    | (
                        Meta::Reply {
                            client,
                            id: Some(id),
                        },
                        Some(n),
                    ) => {
                        let (client, id) = (*client, *id);
                        self.logln(
                            now,
                            format_args!("net {n} {} client {client} id={id}", dir.label()),
                        );
                    }
                    (_, Some(n)) => {
                        self.logln(now, format_args!("net {n} {} conn {conn}", dir.label()))
                    }
                }
                match note {
                    Some("duplicated") => self.stats.net_duplicated += 1,
                    Some("delayed") => self.stats.net_delayed += 1,
                    _ => {}
                }
                match &meta {
                    Meta::Request { client, id } => {
                        self.ledger.track(*client, *id).copies_sent += copies;
                    }
                    Meta::Reply {
                        client,
                        id: Some(id),
                    } => {
                        self.ledger.track(*client, *id).reply_copies_sent += copies;
                    }
                    _ => {}
                }
                for t in at {
                    self.events.schedule(
                        t,
                        Ev::Deliver {
                            conn,
                            dir,
                            bytes: bytes.clone(),
                            meta: meta.clone(),
                        },
                    );
                }
            }
            Fate::Lost { reason } => {
                if reason == "partition" {
                    self.stats.partitions += 1;
                } else {
                    self.stats.net_dropped += 1;
                }
                match &meta {
                    Meta::Request { client, id } => {
                        let t = self.ledger.track(*client, *id);
                        t.copies_sent += 1;
                        t.copies_lost += 1;
                        let (client, id) = (*client, *id);
                        self.logln(
                            now,
                            format_args!(
                                "net lost ({reason}) {} client {client} id={id}",
                                dir.label()
                            ),
                        );
                    }
                    Meta::Reply { client, id } => {
                        if let Some(id) = *id {
                            let t = self.ledger.track(*client, id);
                            t.reply_copies_sent += 1;
                            t.reply_copies_lost += 1;
                        }
                        let client = *client;
                        self.logln(
                            now,
                            format_args!(
                                "net lost ({reason}) {} client {client} id={id:?}",
                                dir.label()
                            ),
                        );
                    }
                    _ => self.logln(
                        now,
                        format_args!("net lost ({reason}) {} conn {conn}", dir.label()),
                    ),
                }
            }
        }
    }

    // ---- server node -----------------------------------------------------

    fn deliver_to_server(&mut self, now: u64, conn: usize, bytes: Vec<u8>, meta: Meta) {
        if self.stopped {
            if let Meta::Request { client, id } = meta {
                self.ledger.track(client, id).delivered_after_stop += 1;
                self.stats.delivered_after_stop += 1;
                self.logln(
                    now,
                    format_args!("server stopped; dropping late request client {client} id={id}"),
                );
            }
            return;
        }
        if let Meta::Request { client, id } = &meta {
            self.ledger.track(*client, *id).delivered += 1;
        }
        let mut out = TransportBuf::default();
        let mut frames = Vec::new();
        {
            let dec = &mut self.sessions[conn];
            dec.feed(&bytes);
            engine::pump_session(dec, &mut out, |proto, parsed| frames.push((proto, parsed)));
        }
        for reply in out.0 {
            self.dispatch_to(now, conn, Dir::ToClient, reply, Meta::Control, true);
        }
        for (_proto, parsed) in frames {
            self.handle_frame(now, conn, parsed);
        }
    }

    fn handle_frame(&mut self, now: u64, conn: usize, parsed: Result<Request, String>) {
        match parsed {
            Err(message) => self.answer(now, conn, None, Reply::unparsed(message)),
            Ok(Request::Run {
                id,
                spec,
                deadline_ms,
                ..
            }) => self.handle_run(now, conn, id, spec, deadline_ms),
            Ok(Request::Ping) => {
                self.send_response(now, conn, &Response::Pong, Meta::Control, false);
            }
            Ok(Request::Health) => {
                let resp = engine::health(&HealthView {
                    live_workers: self.workers.iter().filter(|w| **w != Worker::Dead).count()
                        as u64,
                    dead_workers: self.stats.worker_deaths,
                    queue_depth: self.queue.len() as u64,
                    inflight: self.inflight.len() as u64,
                    admitted: self.stats.admitted,
                    completed: self.stats.completed,
                    shed: self.stats.shed,
                    watchdog_shed: self.stats.watchdog_shed,
                    distinct_clients: self.cfg.clients as u64,
                });
                self.send_response(now, conn, &resp, Meta::Control, false);
            }
            Ok(Request::Metrics) => {
                let resp = Response::Metrics {
                    exposition: "# simulated node: metrics served live only\n".to_string(),
                };
                self.send_response(now, conn, &resp, Meta::Control, false);
            }
            Ok(Request::Shutdown) => {
                self.shutdown_started = true;
                self.logln(
                    now,
                    format_args!("shutdown received: queue closed, draining"),
                );
                self.send_response(now, conn, &Response::ShuttingDown, Meta::Control, true);
            }
        }
    }

    fn handle_run(
        &mut self,
        now: u64,
        conn: usize,
        id: u64,
        spec: JobSpec,
        deadline_ms: Option<u64>,
    ) {
        // Admission-site faults, decided by the same seeded plan that
        // shapes the network. The real server unwinds an injected panic
        // into its frame handler's containment; here the fault is only
        // decided, and `engine` says what either driver replies.
        if let Some(d) = self.eval.decide(Site::JobAdmission) {
            if let Some(reply) = Reply::admission_fault(id, d.kind) {
                match reply.bucket {
                    Bucket::Shed => self.logln(
                        now,
                        format_args!("admission fault (shed) client {conn} id={id}"),
                    ),
                    _ => self.logln(
                        now,
                        format_args!("admission fault ({}) client {conn} id={id}", d.kind.name()),
                    ),
                }
                return self.answer(now, conn, Some(id), reply);
            }
        }
        let policy = engine::AdmissionPolicy {
            max_threads: self.cfg.max_threads,
            default_deadline_ms: None,
        };
        match engine::admit(self.registry, &policy, &spec, deadline_ms).resolve(id) {
            Err(reply) => {
                let code = reply.outcome;
                self.logln(now, format_args!("refused client {conn} id={id}: {code}"));
                self.answer(now, conn, Some(id), reply);
            }
            Ok(deadline_ms) => {
                if self.shutdown_started || self.queue.len() >= self.cfg.queue_capacity {
                    self.logln(now, format_args!("shed client {conn} id={id} (queue)"));
                    return self.answer(now, conn, Some(id), Reply::queue_full(id));
                }
                self.stats.admitted += 1;
                let deadline_ns = deadline_ms.map(|ms| now + ms * 1_000_000);
                {
                    let t = self.ledger.track(conn, id);
                    t.admitted = true;
                    t.deadline_ns = deadline_ns;
                }
                let seq = self.job_seq;
                self.job_seq += 1;
                self.queue.push_back(SimJob {
                    seq,
                    conn,
                    id,
                    spec,
                    deadline_ns,
                    admitted_ns: now,
                    gate: ReplyGate::new(),
                });
                self.logln(
                    now,
                    format_args!("admitted client {conn} id={id} queue={}", self.queue.len()),
                );
                if let Some(w) = self.idle_worker() {
                    self.start_jobs(now, w);
                }
            }
        }
    }

    fn idle_worker(&self) -> Option<usize> {
        self.workers.iter().position(|w| *w == Worker::Idle)
    }

    /// Pulls queued jobs onto worker `w` until it is busy, dead, or the
    /// queue is empty — the simulated version of the real `worker_loop`
    /// pop loop, including the pickup fault probe and the
    /// deadline-expired-in-queue check.
    fn start_jobs(&mut self, now: u64, w: usize) {
        loop {
            if self.workers[w] != Worker::Idle {
                return;
            }
            let Some(job) = self.queue.pop_front() else {
                return;
            };
            let mut start_lag = 0u64;
            if let Some(d) = self.eval.decide(Site::WorkerPickup) {
                match d.kind {
                    FaultKind::Panic => {
                        self.worker_death(now, w, job);
                        return;
                    }
                    FaultKind::Delay => start_lag = d.delay_us * 1_000,
                    _ => {}
                }
            }
            if let Some(dl) = job.deadline_ns {
                if now >= dl {
                    if job.gate.claim() {
                        self.assert_deadline_monotonic(now, job.conn, job.id, Some(dl));
                        self.logln(
                            now,
                            format_args!(
                                "deadline expired in queue: client {} id={}",
                                job.conn, job.id
                            ),
                        );
                        let reply = Reply::expired_in_queue(job.id);
                        self.answer(now, job.conn, Some(job.id), reply);
                    }
                    continue;
                }
            }
            self.execute(now, w, job, start_lag);
            return;
        }
    }

    fn worker_death(&mut self, now: u64, w: usize, job: SimJob) {
        self.stats.worker_deaths += 1;
        self.workers[w] = Worker::Dead;
        self.logln(
            now,
            format_args!("worker {w} died (injected panic at worker-pickup)"),
        );
        if self.cfg.bug == Bug::LoseJobOnWorkerDeath {
            // The planted bug: the drop backstop is skipped, so the picked
            // job vanishes without a reply. The exactly-one-reply and
            // conservation invariants must catch this.
            self.logln(
                now,
                format_args!(
                    "job client {} id={} lost with the worker (planted bug)",
                    job.conn, job.id
                ),
            );
        } else if job.gate.claim() {
            // The real WorkItem drop backstop: the dying worker's item
            // answers on the way out.
            self.answer(now, job.conn, Some(job.id), Reply::dropped(job.id));
        }
        self.events
            .schedule(now + RESPAWN_NS, Ev::WorkerRespawn { worker: w });
    }

    fn execute(&mut self, now: u64, w: usize, job: SimJob, start_lag: u64) {
        // Run the real kernel through the real registry (admission already
        // validated the spec). The wall-clock JobResult::elapsed is
        // discarded: the virtual duration below is drawn from the seeded
        // RNG so the event timeline never depends on machine speed.
        let exec = self
            .execs
            .entry(job.spec.threads)
            .or_insert_with(|| Executor::new(job.spec.threads));
        let token = CancelToken::new();
        let mut outcome = match self.registry.run(exec, &job.spec, &token) {
            // The virtual duration is filled in once it is known, below.
            Ok(r) => JobOutcome::Done {
                value: r.value,
                elapsed_ms: 0.0,
            },
            Err(e) => JobOutcome::Failed(e),
        };
        let mut dur = JOB_BASE_NS + self.rng.next_bounded(JOB_JITTER_NS) + start_lag;
        let mut wedged = false;
        if let Some(d) = self.eval.decide(Site::TaskExec) {
            match d.kind {
                FaultKind::Delay => {
                    // A wedged job: ignores its cancel token, runs long.
                    wedged = true;
                    dur += d.delay_us * 1_000;
                }
                FaultKind::Panic | FaultKind::TaskDrop => {
                    // Modelled as a fault that escapes the runtime and is
                    // contained by the worker, payload and all.
                    outcome =
                        JobOutcome::Panicked(tpm_fault::injected_payload(d.kind, Site::TaskExec));
                }
                _ => {}
            }
        }
        let mut t_end = now + dur;
        let mut kill_at = None;
        if let Some(dl) = job.deadline_ns {
            if wedged {
                // Token polling won't save us; the watchdog's hard-kill
                // point is deadline + kill_offset, same arithmetic as the
                // real server.
                kill_at = Some(dl + self.kill_offset_ns);
            } else if t_end > dl {
                // The runtimes poll the token between chunks: the job
                // stops shortly after its deadline passes.
                t_end = dl + POLL_LAG_NS;
                outcome = JobOutcome::Failed(ExecError::Deadline);
            }
        }
        if let JobOutcome::Done { elapsed_ms, .. } = &mut outcome {
            *elapsed_ms = (t_end - now) as f64 / 1e6;
        }
        self.logln(
            now,
            format_args!(
                "worker {w} starts client {} id={}{}",
                job.conn,
                job.id,
                if wedged { " (wedged)" } else { "" }
            ),
        );
        self.workers[w] = Worker::Busy;
        self.inflight.insert(
            job.seq,
            Inflight {
                conn: job.conn,
                id: job.id,
                gate: job.gate,
                kill_at,
                deadline_ns: job.deadline_ns,
                admitted_ns: job.admitted_ns,
                started_ns: now,
                outcome,
            },
        );
        self.events.schedule(
            t_end,
            Ev::WorkerDone {
                worker: w,
                seq: job.seq,
            },
        );
    }

    fn worker_done(&mut self, now: u64, w: usize, seq: u64) {
        let entry = self
            .inflight
            .remove(&seq)
            .expect("WorkerDone for unknown job");
        self.workers[w] = Worker::Idle;
        if entry.gate.claim() {
            let queue_ms = (entry.started_ns - entry.admitted_ns) as f64 / 1e6;
            let reply = Reply::finished(entry.id, entry.outcome, queue_ms);
            let code = reply.outcome;
            if code == "deadline" {
                self.assert_deadline_monotonic(now, entry.conn, entry.id, entry.deadline_ns);
            }
            match reply.bucket {
                Bucket::Completed => self.logln(
                    now,
                    format_args!("reply client {} id={} ok", entry.conn, entry.id),
                ),
                _ => self.logln(
                    now,
                    format_args!("reply client {} id={} error={code}", entry.conn, entry.id),
                ),
            }
            self.answer(now, entry.conn, Some(entry.id), reply);
        } else {
            self.logln(
                now,
                format_args!(
                    "worker {w} finished client {} id={} (reply already claimed)",
                    entry.conn, entry.id
                ),
            );
        }
        self.start_jobs(now, w);
    }

    fn worker_respawn(&mut self, now: u64, w: usize) {
        self.stats.worker_respawns += 1;
        self.workers[w] = Worker::Idle;
        self.logln(now, format_args!("worker {w} respawned"));
        self.start_jobs(now, w);
    }

    fn watchdog_tick(&mut self, now: u64) {
        if self.stopped {
            return; // the drained server stops ticking; no reschedule
        }
        let due: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.kill_at.is_some_and(|k| now >= k))
            .map(|(s, _)| *s)
            .collect();
        for seq in due {
            let (conn, id, deadline_ns, gate) = {
                let e = &self.inflight[&seq];
                (e.conn, e.id, e.deadline_ns, e.gate.clone())
            };
            let fire = if self.cfg.bug == Bug::WatchdogIgnoresGate {
                // The planted bug: reply without claiming the gate, so the
                // worker answers again later — a double reply the
                // exactly-one-reply invariant must catch.
                true
            } else {
                gate.claim()
            };
            // One shot per job either way.
            self.inflight.get_mut(&seq).expect("due entry").kill_at = None;
            if fire {
                self.assert_deadline_monotonic(now, conn, id, deadline_ns);
                self.logln(
                    now,
                    format_args!("watchdog kills client {conn} id={id} (past grace)"),
                );
                self.answer(now, conn, Some(id), Reply::watchdog_shed(id));
            }
        }
        let at = now + self.watchdog_interval_ns();
        self.events.schedule(at, Ev::WatchdogTick);
    }

    /// Applies one [`Reply`] the way `Shared::answer` does in the server:
    /// counts it in the bucket `engine` chose, then sends it. `id` is the
    /// request it answers (`None` only for unparseable bytes), for ledger
    /// attribution.
    fn answer(&mut self, now: u64, conn: usize, id: Option<u64>, reply: Reply) {
        let counter = match reply.bucket {
            Bucket::Completed => &mut self.stats.completed,
            Bucket::Failed => &mut self.stats.failed,
            Bucket::Refused => &mut self.stats.refused,
            Bucket::Shed => &mut self.stats.shed,
            Bucket::WatchdogShed => &mut self.stats.watchdog_shed,
            Bucket::Unparsed => &mut self.stats.parse_errors,
        };
        *counter += 1;
        let meta = Meta::Reply { client: conn, id };
        self.send_response(now, conn, &reply.response, meta, false);
    }

    fn send_response(
        &mut self,
        now: u64,
        conn: usize,
        resp: &Response,
        meta: Meta,
        critical: bool,
    ) {
        if let Meta::Reply {
            client,
            id: Some(id),
        } = &meta
        {
            self.ledger.track(*client, *id).replies_sent += 1;
        }
        let mut bytes = Vec::new();
        wire::encode_response_into(self.clients[conn].proto, resp, &mut bytes);
        self.dispatch_to(now, conn, Dir::ToClient, bytes, meta, critical);
    }

    /// Deadline monotonicity: a `deadline`-coded reply may never be sent
    /// before the request's deadline has actually passed.
    fn assert_deadline_monotonic(
        &mut self,
        now: u64,
        conn: usize,
        id: u64,
        deadline_ns: Option<u64>,
    ) {
        match deadline_ns {
            Some(dl) if now >= dl => {}
            Some(dl) => self.violations.push(format!(
                "deadline-monotonicity: client {conn} id {id}: deadline reply at {now} \
                 before deadline {dl}"
            )),
            None => self.violations.push(format!(
                "deadline-monotonicity: client {conn} id {id}: deadline reply for a \
                 request with no deadline"
            )),
        }
    }

    fn check_drained(&mut self, now: u64) {
        if self.shutdown_started
            && !self.stopped
            && self.queue.is_empty()
            && self.inflight.is_empty()
        {
            self.stopped = true;
            let line = format!(
                "drained: admitted={} completed={} failed={} shed={} watchdog_shed={}",
                self.stats.admitted,
                self.stats.completed,
                self.stats.failed,
                self.stats.shed,
                self.stats.watchdog_shed
            );
            self.logln(now, format_args!("{line}"));
        }
    }
}
