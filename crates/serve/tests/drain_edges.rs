//! Graceful-drain edge cases.
//!
//! `tests/epoll_server.rs` proves the reactor's drain lossless under
//! pipelining; these tests pin down the corners where drain interleaves with
//! something else:
//!
//! * a request that arrives *after* drain begins is explicitly refused, and
//!   jobs already queued (not yet picked up by a worker) are still answered;
//! * a queued job whose deadline expires while the server is draining gets a
//!   `deadline` error, not silence;
//! * a worker that dies (injected pickup panic) while the drain is in
//!   progress costs exactly one error reply, the slot respawns, and the
//!   respawned worker finishes the drain.
//!
//! Every test closes by checking the metrics-conservation identity the desim
//! invariant checker audits: `admitted == completed + failed + watchdog_shed`
//! once drained.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tpm_core::JobRegistry;
use tpm_serve::{serve, Response, ServerConfig, ServerHandle, StatsSnapshot};

fn test_registry() -> Arc<JobRegistry> {
    let mut reg = JobRegistry::new();
    reg.register("quick", "returns size", 1 << 20, |ctx| {
        Ok(ctx.spec.size as f64)
    });
    reg.register(
        "napper",
        "sleeps size ms (ignores the token)",
        10_000,
        |ctx| {
            std::thread::sleep(Duration::from_millis(ctx.spec.size as u64));
            Ok(ctx.spec.size as f64)
        },
    );
    Arc::new(reg)
}

// Fault plans are process-global, so every test here holds
// `tpm_fault::session_serial()`: the `inject` test's plan must fire on its
// own requests, not a neighbour's.

fn start(config: ServerConfig) -> ServerHandle {
    serve(test_registry(), config).expect("bind")
}

fn connect(handle: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn send_run(writer: &mut TcpStream, id: u64, kernel: &str, size: usize, deadline_ms: Option<u64>) {
    let deadline = deadline_ms.map_or(String::new(), |ms| format!(",\"deadline_ms\":{ms}"));
    let line = format!("{{\"id\":{id},\"kernel\":\"{kernel}\",\"size\":{size}{deadline}}}\n");
    writer.write_all(line.as_bytes()).expect("send request");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(Response::parse(line.trim()).expect("decodable response")),
        Err(e) => panic!("read failed: {e}"),
    }
}

/// Collects replies until EOF, keyed by request id.
fn drain_replies(reader: &mut BufReader<TcpStream>) -> HashMap<u64, Response> {
    let mut by_id = HashMap::new();
    while let Some(resp) = read_response(reader) {
        let id = match &resp {
            Response::Ok { id, .. } => *id,
            Response::Error { id, .. } => id.expect("request-scoped error"),
            other => panic!("unexpected response: {other:?}"),
        };
        assert!(by_id.insert(id, resp).is_none(), "duplicate reply for {id}");
    }
    by_id
}

fn assert_conserved(stats: &StatsSnapshot) {
    assert_eq!(
        stats.admitted,
        stats.completed + stats.failed + stats.watchdog_shed,
        "metrics conservation after drain: {stats:?}"
    );
}

#[test]
fn drain_answers_queued_jobs_and_refuses_late_arrivals() {
    let _serial = tpm_fault::session_serial();
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (mut reader, mut writer) = connect(&handle);
    // Occupy the sole worker, then queue jobs behind it: when drain begins
    // they are admitted but no worker has picked them up yet.
    send_run(&mut writer, 1, "napper", 250, None);
    for id in 2..=4 {
        send_run(&mut writer, id, "quick", id as usize, None);
    }
    // A ping round-trip proves all four requests reached admission (the
    // reactor handles a connection's messages in order).
    writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    assert_eq!(read_response(&mut reader), Some(Response::Pong));

    let shutdown = std::thread::spawn(move || handle.shutdown());
    // Give begin_shutdown a moment to close the queue, then race one more
    // request into the draining server: it must be refused out loud.
    std::thread::sleep(Duration::from_millis(40));
    send_run(&mut writer, 9, "quick", 9, None);

    let replies = drain_replies(&mut reader);
    assert_eq!(replies.len(), 5, "{replies:?}");
    for id in 1..=4u64 {
        assert!(
            matches!(replies[&id], Response::Ok { .. }),
            "queued job {id} answered ok: {:?}",
            replies[&id]
        );
    }
    match &replies[&9] {
        Response::Error { code, .. } => assert_eq!(*code, "overloaded"),
        other => panic!("late request must be refused, got {other:?}"),
    }
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.shed, 1, "the late arrival is an explicit shed");
    assert_conserved(&stats);
}

#[test]
fn drain_racing_deadline_expiry_answers_deadline_not_silence() {
    let _serial = tpm_fault::session_serial();
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (mut reader, mut writer) = connect(&handle);
    // The napper holds the worker well past job 2's 30 ms deadline; job 2
    // expires while sitting in the queue, mid-drain.
    send_run(&mut writer, 1, "napper", 200, None);
    send_run(&mut writer, 2, "quick", 2, Some(30));
    writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    assert_eq!(read_response(&mut reader), Some(Response::Pong));
    drop(writer);

    let stats = handle.shutdown();
    let replies = drain_replies(&mut reader);
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(
        matches!(replies[&1], Response::Ok { .. }),
        "{:?}",
        replies[&1]
    );
    match &replies[&2] {
        Response::Error { code, .. } => assert_eq!(
            *code, "deadline",
            "expired-in-queue job is answered, with the true cause"
        ),
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 1);
    assert_conserved(&stats);
}

mod inject {
    use super::*;
    use tpm_fault::{FaultKind, FaultPlan, FaultSession, Site, SiteRule};

    #[test]
    fn drain_with_a_worker_dying_mid_respawn_stays_lossless() {
        let _serial = tpm_fault::session_serial();
        // The sole worker's second pickup panics: job 1 runs clean, job 2
        // kills the worker mid-drain, jobs 3-4 must be finished by the
        // respawned slot.
        let session = FaultSession::install(&FaultPlan::single(SiteRule::nth(
            Site::WorkerPickup,
            FaultKind::Panic,
            2,
        )));
        let handle = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let (mut reader, mut writer) = connect(&handle);
        send_run(&mut writer, 1, "napper", 100, None);
        for id in 2..=4 {
            send_run(&mut writer, id, "quick", id as usize, None);
        }
        writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        assert_eq!(read_response(&mut reader), Some(Response::Pong));
        drop(writer);

        let stats = handle.shutdown();
        let replies = drain_replies(&mut reader);
        assert_eq!(replies.len(), 4, "{replies:?}");
        assert!(matches!(replies[&1], Response::Ok { .. }));
        match &replies[&2] {
            Response::Error { code, .. } => assert_eq!(
                *code, "panic",
                "the dying worker's job gets the backstop reply"
            ),
            other => panic!("expected backstop error, got {other:?}"),
        }
        for id in 3..=4u64 {
            assert!(
                matches!(replies[&id], Response::Ok { .. }),
                "respawned worker finishes the drain: {:?}",
                replies[&id]
            );
        }
        assert_eq!(
            session.report().fired.len(),
            1,
            "exactly one injected death"
        );
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.failed, 1, "the dropped job is counted, not lost");
        assert_conserved(&stats);
    }

    /// The `Drop` backstop's reply is labelled like every other reply: one
    /// dropped request adds one to `tpm_requests_total{outcome="panic"}` and
    /// one to `failed`.
    #[test]
    fn dropped_reply_is_counted_in_requests_total() {
        let _serial = tpm_fault::session_serial();
        let session = FaultSession::install(&FaultPlan::single(SiteRule::nth(
            Site::WorkerPickup,
            FaultKind::Panic,
            1,
        )));
        let handle = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let panics = |h: &ServerHandle| {
            let scrape = tpm_metrics::text::validate(&h.metrics_text()).expect("valid exposition");
            scrape
                .get("tpm_requests_total", &[("outcome", "panic")])
                .unwrap_or(0.0)
        };
        let (before, failed_before) = (panics(&handle), handle.stats().failed);
        let (mut reader, mut writer) = connect(&handle);
        send_run(&mut writer, 1, "quick", 1, None);
        match read_response(&mut reader) {
            Some(Response::Error { code, .. }) => assert_eq!(code, "panic"),
            other => panic!("expected the backstop reply, got {other:?}"),
        }
        assert_eq!(
            session.report().fired.len(),
            1,
            "exactly one injected death"
        );
        assert_eq!(panics(&handle), before + 1.0);
        assert_eq!(handle.stats().failed, failed_before + 1);
        drop(writer);
        assert_conserved(&handle.shutdown());
    }
}
