//! One reply vocabulary: for each of the seven ways a `run` request can be
//! answered, the real server (over a real socket) and the `tpm-desim`
//! simulator say the same thing — same id presence, code and message — and
//! count it in the same `engine::Bucket`. Both are compared against the
//! `engine::Reply` constructor for that outcome, which is the only place
//! the words live.
//!
//! Two outcomes (admission fault, drop backstop) are driven by a fault plan:
//! the server fires it through its probes, the simulator evaluates it
//! itself.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tpm_core::JobRegistry;
use tpm_desim::{DesimConfig, DesimReport, SimStats};
use tpm_fault::{FaultKind, FaultPlan, Site, SiteRule};
use tpm_serve::engine::{self, AdmissionPolicy, Bucket, JobOutcome, Reply};
use tpm_serve::{serve, Response, ServerConfig, ServerHandle, StatsSnapshot};

fn registry() -> JobRegistry {
    let mut reg = JobRegistry::new();
    reg.register("sum", "returns size", 1 << 20, |ctx| {
        Ok(ctx.spec.size as f64)
    });
    reg.register("wedge", "sleeps size ms, never polls", 10_000, |ctx| {
        std::thread::sleep(Duration::from_millis(ctx.spec.size as u64));
        Ok(0.0)
    });
    reg.register("poller", "polls its token every ms", 10_000, |ctx| loop {
        ctx.token.check()?;
        std::thread::sleep(Duration::from_millis(1));
    });
    reg.register("escape", "panics with an injected payload", 10_000, |_| {
        panic!(
            "{}",
            tpm_fault::injected_payload(FaultKind::Panic, Site::TaskExec)
        )
    });
    reg
}

/// A JSON-lines client that matches replies to requests by id.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stash: HashMap<u64, Response>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            stash: HashMap::new(),
        }
    }

    fn run(&mut self, id: u64, kernel: &str, size: usize, extra: &str) {
        let line = format!("{{\"id\":{id},\"kernel\":\"{kernel}\",\"size\":{size}{extra}}}\n");
        self.writer.write_all(line.as_bytes()).expect("send");
    }

    fn next(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        Response::parse(line.trim()).expect("decodable reply")
    }

    fn reply_for(&mut self, id: u64) -> Response {
        loop {
            if let Some(r) = self.stash.remove(&id) {
                return r;
            }
            match self.next() {
                r @ Response::Ok { id: got, .. } => self.stash.insert(got, r),
                r @ Response::Error { id: Some(got), .. } => self.stash.insert(got, r),
                other => panic!("unexpected reply {other:?}"),
            };
        }
    }

    /// Blocks until a worker has picked a job up (so what follows queues
    /// behind it).
    fn wait_until_executing(&mut self) {
        loop {
            self.writer.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
            match self.next() {
                Response::Health { inflight: 1, .. } => return,
                Response::Health { .. } => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
}

/// Drives one fresh server through `script` and returns the reply to
/// request `id` plus the drained server's counters.
fn on_server(
    config: ServerConfig,
    id: u64,
    script: impl FnOnce(&mut Client),
) -> (Response, StatsSnapshot) {
    let handle = serve(Arc::new(registry()), config).expect("bind");
    let mut client = Client::connect(&handle);
    script(&mut client);
    let reply = client.reply_for(id);
    (reply, handle.shutdown())
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        watchdog_interval_ms: 5,
        ..ServerConfig::default()
    }
}

/// A simulator run with exactly `rules` as its fault plan (no network
/// loss unless a rule says so), so every reply sent is a reply decoded.
fn on_desim(rules: Vec<SiteRule>, tweak: impl FnOnce(&mut DesimConfig)) -> DesimReport {
    let mut cfg = DesimConfig {
        seed: 5,
        plan: Some(FaultPlan { seed: 0, rules }),
        ..DesimConfig::default()
    };
    tweak(&mut cfg);
    let report = tpm_desim::run(&cfg, &registry());
    assert!(!report.failed(), "{}", report.render_failure());
    report
}

/// How many replies a server counted under `bucket` (it has no `refused`
/// counter: those are `failed` requests).
fn server_count(stats: &StatsSnapshot, bucket: Bucket) -> u64 {
    match bucket {
        Bucket::Completed => stats.completed,
        Bucket::Failed | Bucket::Refused => stats.failed,
        Bucket::Shed => stats.shed,
        Bucket::WatchdogShed => stats.watchdog_shed,
        Bucket::Unparsed => 0,
    }
}

fn desim_count(stats: &SimStats, bucket: Bucket) -> u64 {
    match bucket {
        Bucket::Completed => stats.completed,
        Bucket::Failed => stats.failed,
        Bucket::Refused => stats.refused,
        Bucket::Shed => stats.shed,
        Bucket::WatchdogShed => stats.watchdog_shed,
        Bucket::Unparsed => stats.parse_errors,
    }
}

/// Same words, whatever the request: id present or absent alike, same code,
/// same message (`ok` replies match each other).
fn same_words(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Ok { .. }, Response::Ok { .. }) => true,
        (
            Response::Error {
                id: ia,
                code: ca,
                message: ma,
            },
            Response::Error {
                id: ib,
                code: cb,
                message: mb,
            },
        ) => ia.is_some() == ib.is_some() && ca == cb && ma == mb,
        _ => false,
    }
}

/// The server's reply must be exactly `want` and the only reply in its
/// bucket.
fn assert_server(name: &str, want: &Reply, (got, stats): (Response, StatsSnapshot)) {
    assert_eq!(got, want.response, "{name}: server reply");
    assert_eq!(
        server_count(&stats, want.bucket),
        1,
        "{name}: server bucket {:?} in {stats:?}",
        want.bucket
    );
}

/// The simulator must have said `want`'s words at least once, and every
/// reply it counted under `want.bucket` must be one of them.
fn assert_desim(name: &str, want: &Reply, report: &DesimReport) {
    let said = report
        .replies
        .iter()
        .filter(|(_, r)| same_words(r, &want.response))
        .count() as u64;
    assert!(said > 0, "{name}: desim never said {:?}", want.response);
    assert_eq!(
        desim_count(&report.stats, want.bucket),
        said,
        "{name}: desim bucket {:?} vs replies with those words",
        want.bucket
    );
}

#[test]
fn server_and_simulator_say_the_same_thing_for_every_outcome() {
    // Fault plans are process-global; nothing else in this binary may run a
    // server while one is installed.
    let _serial = tpm_fault::session_serial();

    // 1. A fault at the admission site (the id travels into the reply).
    let want = Reply::admission_fault(1, FaultKind::Panic).unwrap();
    let plan = vec![SiteRule::nth(Site::JobAdmission, FaultKind::Panic, 1)];
    let session = tpm_fault::FaultSession::install(&FaultPlan {
        seed: 0,
        rules: plan.clone(),
    });
    let got = on_server(one_worker(), 1, |c| c.run(1, "sum", 3, ""));
    drop(session);
    assert_server("admission fault", &want, got);
    assert_desim("admission fault", &want, &on_desim(plan, |_| {}));

    // 2. `engine::admit` refuses: more threads than the node allows.
    let policy = AdmissionPolicy {
        max_threads: 4,
        default_deadline_ms: None,
    };
    let spec = tpm_core::JobSpec {
        kernel: "sum".into(),
        model: tpm_core::Model::OmpFor,
        variant: tpm_core::KernelVariant::Reference,
        size: 3,
        threads: 8,
    };
    let want = engine::admit(&registry(), &policy, &spec, None)
        .resolve(1)
        .unwrap_err();
    let config = ServerConfig {
        max_threads: 4,
        ..one_worker()
    };
    let got = on_server(config, 1, |c| c.run(1, "sum", 3, ",\"threads\":8"));
    assert_server("refused", &want, got);
    let report = on_desim(vec![], |cfg| cfg.threads = 8);
    assert_desim("refused", &want, &report);

    // 3. Queue full: one worker busy, one slot taken, the third is shed.
    let want = Reply::queue_full(3);
    let config = ServerConfig {
        queue_capacity: 1,
        ..one_worker()
    };
    let got = on_server(config, 3, |c| {
        c.run(1, "wedge", 150, "");
        c.wait_until_executing();
        c.run(2, "sum", 2, "");
        c.run(3, "sum", 3, "");
    });
    assert_server("queue full", &want, got);
    let report = on_desim(vec![], |cfg| {
        (cfg.workers, cfg.queue_capacity, cfg.gap_us) = (1, 1, 10);
        cfg.deadline_ms = None;
    });
    assert_desim("queue full", &want, &report);

    // 4. Expired in the queue: the deadline passes behind a busy worker.
    let want = Reply::expired_in_queue(2);
    let got = on_server(one_worker(), 2, |c| {
        c.run(1, "wedge", 100, "");
        c.wait_until_executing();
        c.run(2, "sum", 2, ",\"deadline_ms\":10");
    });
    assert_server("expired in queue", &want, got);
    let deadline_bound = on_desim(vec![], |cfg| {
        (cfg.workers, cfg.gap_us, cfg.deadline_ms) = (1, 10, Some(1));
    });
    assert!(deadline_bound.log.contains("deadline expired in queue"));
    assert_desim("expired in queue", &want, &deadline_bound);

    // 5a. Finished: ok.
    let got = on_server(one_worker(), 1, |c| c.run(1, "sum", 7, ""));
    let Response::Ok {
        elapsed_ms,
        queue_ms,
        ..
    } = got.0
    else {
        panic!("expected ok, got {:?}", got.0);
    };
    let done = JobOutcome::Done {
        value: 7.0,
        elapsed_ms,
    };
    let want = Reply::finished(1, done, queue_ms);
    assert_server("finished ok", &want, got);
    assert_desim("finished ok", &want, &on_desim(vec![], |_| {}));

    // 5b. Finished: the job observed its deadline mid-run.
    let want = Reply::finished(1, JobOutcome::Failed(tpm_core::ExecError::Deadline), 0.0);
    let got = on_server(one_worker(), 1, |c| {
        c.run(1, "poller", 1, ",\"deadline_ms\":20")
    });
    assert_server("finished deadline", &want, got);
    assert!(deadline_bound.log.contains("error=deadline"));
    assert_desim("finished deadline", &want, &deadline_bound);

    // 5c. Finished: a panic escaped the runtime and the worker contained it.
    let payload = tpm_fault::injected_payload(FaultKind::Panic, Site::TaskExec);
    let want = Reply::finished(1, JobOutcome::Panicked(payload), 0.0);
    let got = on_server(one_worker(), 1, |c| c.run(1, "escape", 1, ""));
    assert_server("finished panic", &want, got);
    let plan = vec![SiteRule::nth(Site::TaskExec, FaultKind::Panic, 2)];
    assert_desim("finished panic", &want, &on_desim(plan, |_| {}));

    // 6. The watchdog answers for a wedged job past its grace.
    let want = Reply::watchdog_shed(1);
    let got = on_server(one_worker(), 1, |c| {
        c.run(1, "wedge", 300, ",\"deadline_ms\":30")
    });
    assert_server("watchdog", &want, got);
    let mut wedge = SiteRule::nth(Site::TaskExec, FaultKind::Delay, 1);
    wedge.delay_us = 25_000;
    assert_desim("watchdog", &want, &on_desim(vec![wedge], |_| {}));

    // 7. The drop backstop: the worker died holding the request.
    let want = Reply::dropped(1);
    let plan = vec![SiteRule::nth(Site::WorkerPickup, FaultKind::Panic, 1)];
    let session = tpm_fault::FaultSession::install(&FaultPlan {
        seed: 0,
        rules: plan.clone(),
    });
    let got = on_server(one_worker(), 1, |c| c.run(1, "sum", 3, ""));
    drop(session);
    assert_server("dropped", &want, got);
    assert_desim("dropped", &want, &on_desim(plan, |_| {}));
}
