//! End-to-end tests for the reactor: binary protocol, pipelining with
//! out-of-order completion, many concurrent connections, graceful drain,
//! both wire protocols side by side — and the same pipelining / exactly-once
//! / drain / corrupt-frame cases again over the portable tick poller, the
//! one every target without the epoll shim runs on.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpm_core::{JobRegistry, JobSpec, KernelVariant, Model};
use tpm_serve::wire::{self, ResponseDecoder, Step};
use tpm_serve::{
    loadgen, serve, serve_over_tick_poller, LoadgenConfig, Protocol, Request, Response,
    ServerConfig, ServerHandle,
};

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

fn spec(kernel: &str, size: usize) -> JobSpec {
    JobSpec {
        kernel: kernel.to_string(),
        model: Model::CilkFor,
        variant: KernelVariant::Reference,
        size,
        threads: 1,
    }
}

type Start = fn(ServerConfig) -> ServerHandle;

/// The server as every caller gets it: the reactor over the platform's
/// poller (kernel epoll on Linux x86-64).
fn start(config: ServerConfig) -> ServerHandle {
    serve(test_registry(), config).expect("bind")
}

/// Runs `case` over the platform's poller, then over the tick poller. On a
/// target without the epoll shim the two are the same poller.
fn on_both_pollers(case: fn(Start)) {
    case(start);
    case(|config| serve_over_tick_poller(test_registry(), config).expect("bind"));
}

/// A binary-protocol client: handshakes on connect, pipelines requests,
/// decodes replies incrementally.
struct BinClient {
    stream: TcpStream,
    decoder: ResponseDecoder,
}

impl BinClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .write_all(&wire::client_preamble(1))
            .expect("send preamble");
        let mut accept = [0u8; 2];
        stream.read_exact(&mut accept).expect("read preamble reply");
        assert_eq!(accept, wire::server_preamble(1));
        Self {
            stream,
            decoder: ResponseDecoder::new(Protocol::Binary),
        }
    }

    fn send(&mut self, req: &Request) {
        self.stream
            .write_all(&wire::encode_request(Protocol::Binary, req))
            .expect("send frame");
    }

    fn send_run(&mut self, id: u64, spec: &JobSpec, deadline_ms: Option<u64>) {
        self.send(&Request::Run {
            id,
            spec: spec.clone(),
            deadline_ms,
            client: None,
        });
    }

    /// Reads until one complete response decodes (panics on EOF).
    fn recv(&mut self) -> Response {
        self.recv_eof().expect("unexpected EOF")
    }

    /// Reads until one complete response decodes, or `None` on EOF.
    fn recv_eof(&mut self) -> Option<Response> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.decoder.next() {
                Step::NeedMore => {}
                Step::Message(resp) => return Some(resp.expect("decodable response")),
                other => panic!("unexpected step: {other:?}"),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.decoder.feed(&chunk[..n]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

#[test]
fn binary_protocol_serves_runs_and_commands_over_the_reactor() {
    let handle = start(ServerConfig::default());
    let mut client = BinClient::connect(handle.addr());

    client.send(&Request::Ping);
    assert_eq!(client.recv(), Response::Pong);

    client.send_run(9, &spec("quick", 123), None);
    match client.recv() {
        Response::Ok { id, value, .. } => {
            assert_eq!(id, 9);
            assert_eq!(value, 123.0);
        }
        other => panic!("{other:?}"),
    }

    client.send_run(10, &spec("nope", 1), None);
    match client.recv() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, Some(10));
            assert_eq!(code, "bad_config");
        }
        other => panic!("{other:?}"),
    }

    client.send(&Request::Health);
    match client.recv() {
        Response::Health {
            live_workers,
            admitted,
            ..
        } => {
            assert_eq!(live_workers, 2);
            assert_eq!(admitted, 1);
        }
        other => panic!("{other:?}"),
    }

    client.send(&Request::Metrics);
    match client.recv() {
        Response::Metrics { exposition } => {
            assert!(
                exposition.contains("serve_connections_open 1"),
                "one binary client open"
            );
            assert!(exposition.contains("serve_bytes_read_total"));
        }
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

#[test]
fn deadline_is_enforced_over_the_binary_path() {
    let handle = start(ServerConfig {
        workers: 1,
        deadline_grace: 2.0,
        watchdog_interval_ms: 5,
        ..ServerConfig::default()
    });
    let mut client = BinClient::connect(handle.addr());
    // The napper ignores its token for 500 ms under a 40 ms deadline; the
    // watchdog answers long before the job finishes.
    client.send_run(1, &spec("napper", 500), Some(40));
    let started = Instant::now();
    match client.recv() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, Some(1));
            assert_eq!(code, "deadline");
        }
        other => panic!("{other:?}"),
    }
    assert!(started.elapsed() < Duration::from_millis(400));
    handle.shutdown();
}

#[test]
fn pipelined_requests_complete_out_of_order_exactly_once() {
    on_both_pollers(|start| {
        let handle = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let mut client = BinClient::connect(handle.addr());
        // A slow job then a fast one, pipelined on one connection with two
        // workers: the fast reply overtakes the slow one.
        client.send_run(1, &spec("napper", 300), None);
        client.send_run(2, &spec("quick", 7), None);
        let first = client.recv();
        let second = client.recv();
        let mut by_id = HashMap::new();
        for resp in [first.clone(), second] {
            match resp {
                Response::Ok { id, value, .. } => {
                    assert!(
                        by_id.insert(id, value).is_none(),
                        "duplicate reply for {id}"
                    );
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(by_id.len(), 2, "both pipelined requests answered");
        assert_eq!(by_id[&1], 300.0);
        assert_eq!(by_id[&2], 7.0);
        match first {
            Response::Ok { id, .. } => assert_eq!(id, 2, "fast job overtakes the slow one"),
            _ => unreachable!(),
        }
        handle.shutdown();
    });
}

#[test]
fn graceful_drain_flushes_pipelined_replies_before_close() {
    on_both_pollers(|start| {
        let handle = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut client = BinClient::connect(handle.addr());
        const JOBS: u64 = 8;
        for id in 0..JOBS {
            client.send_run(id, &spec("napper", 10), None);
        }
        // Let the jobs reach the queue, then drain the server while most are
        // still waiting: every one of them must still be answered, then EOF.
        std::thread::sleep(Duration::from_millis(30));
        let shutdown = std::thread::spawn(move || handle.shutdown());
        let mut seen = std::collections::HashSet::new();
        while let Some(resp) = client.recv_eof() {
            match resp {
                Response::Ok { id, .. } => {
                    assert!(seen.insert(id), "duplicate reply for {id}");
                }
                other => panic!("{other:?}"),
            }
            if seen.len() == JOBS as usize {
                break;
            }
        }
        assert_eq!(
            seen.len(),
            JOBS as usize,
            "drain answered every admitted job"
        );
        let stats = shutdown.join().unwrap();
        assert_eq!(stats.admitted, JOBS);
        assert_eq!(stats.completed, JOBS);
    });
}

#[test]
fn corrupt_framing_gets_an_error_reply_then_close() {
    on_both_pollers(|start| {
        let handle = start(ServerConfig::default());
        let mut client = BinClient::connect(handle.addr());
        // A zero length prefix is unrecoverable framing corruption.
        client.stream.write_all(&0u32.to_le_bytes()).unwrap();
        match client.recv_eof() {
            Some(Response::Error { id, code, .. }) => {
                assert_eq!(id, None);
                assert_eq!(code, "parse");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            client.recv_eof(),
            None,
            "connection closes after corruption"
        );
        // The server survives and takes new connections.
        let mut fresh = BinClient::connect(handle.addr());
        fresh.send(&Request::Ping);
        assert_eq!(fresh.recv(), Response::Pong);
        handle.shutdown();
    });
}

#[test]
fn many_concurrent_binary_connections_all_answered_exactly_once() {
    on_both_pollers(|start| {
        let handle = start(ServerConfig {
            workers: 2,
            queue_capacity: 512,
            ..ServerConfig::default()
        });
        let config = LoadgenConfig {
            protocol: Protocol::Binary,
            window: 4,
            ..LoadgenConfig::new(handle.addr().to_string(), 64, 5, spec("quick", 3))
        };
        let report = loadgen::run(&config).expect("loadgen");
        assert_eq!(report.sent, 64 * 5);
        assert_eq!(report.ok, 64 * 5, "{report:?}");
        assert!(!report.has_unexpected_failures(), "{report:?}");
        let stats = handle.shutdown();
        assert_eq!(stats.admitted, 64 * 5);
        assert_eq!(stats.completed, 64 * 5);
    });
}

#[test]
fn json_and_binary_coexist_on_the_reactor() {
    let handle = start(ServerConfig::default());
    // Binary client on one connection...
    let mut bin = BinClient::connect(handle.addr());
    bin.send_run(1, &spec("quick", 5), None);
    // ...JSON-lines client on another, concurrently.
    let mut json = TcpStream::connect(handle.addr()).unwrap();
    json.write_all(b"{\"id\":2,\"kernel\":\"quick\",\"size\":6}\n")
        .unwrap();
    match bin.recv() {
        Response::Ok { id, value, .. } => {
            assert_eq!(id, 1);
            assert_eq!(value, 5.0);
        }
        other => panic!("{other:?}"),
    }
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        json.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        buf.push(byte[0]);
    }
    match Response::parse(std::str::from_utf8(&buf).unwrap().trim()).unwrap() {
        Response::Ok { id, value, .. } => {
            assert_eq!(id, 2);
            assert_eq!(value, 6.0);
        }
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

#[test]
fn loadgen_pipelines_json_over_the_reactor_as_well() {
    let handle = start(ServerConfig {
        queue_capacity: 256,
        ..ServerConfig::default()
    });
    let config = LoadgenConfig {
        protocol: Protocol::Json,
        window: 8,
        ..LoadgenConfig::new(handle.addr().to_string(), 8, 20, spec("quick", 2))
    };
    let report = loadgen::run(&config).expect("loadgen");
    assert_eq!(report.ok, 8 * 20, "{report:?}");
    assert!(!report.has_unexpected_failures(), "{report:?}");
    handle.shutdown();
}
