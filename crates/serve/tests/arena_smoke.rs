//! The reply-buffer pool must change where reply bytes live, never what
//! they say: a pipelined batch over each wire protocol gets every kernel's
//! own answer back while the pool demonstrably cycles (buffers returned and
//! handed out again), plus a loadgen smoke over both protocols asserting
//! clean runs and live pool metrics.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use tpm_core::{JobRegistry, JobSpec, KernelVariant, Model};
use tpm_serve::wire::{self, ResponseDecoder, Step};
use tpm_serve::{loadgen, serve, LoadgenConfig, Protocol, Request, Response, ServerConfig};

fn test_registry() -> Arc<JobRegistry> {
    let mut reg = JobRegistry::new();
    reg.register("quick", "returns size", 1 << 20, |ctx| {
        Ok(ctx.spec.size as f64)
    });
    Arc::new(reg)
}

fn spec(size: usize) -> JobSpec {
    JobSpec {
        kernel: "quick".to_string(),
        model: Model::CilkFor,
        variant: KernelVariant::Reference,
        size,
        threads: 1,
    }
}

/// Pipelines `n` run requests (id i carries size 100 + i) over one
/// connection and returns every reply keyed by id, reduced to outcome and
/// value.
fn run_batch(addr: std::net::SocketAddr, proto: Protocol, n: u64) -> BTreeMap<u64, (String, u64)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    if proto == Protocol::Binary {
        stream
            .write_all(&wire::client_preamble(tpm_serve::frame::SUPPORTED_VERSION))
            .unwrap();
        let mut accept = [0u8; 2];
        stream.read_exact(&mut accept).unwrap();
    }
    let mut bytes = Vec::new();
    for id in 0..n {
        let req = Request::Run {
            id,
            spec: spec(100 + id as usize),
            deadline_ms: None,
            client: Some("arena-smoke".to_string()),
        };
        wire::encode_request_into(proto, &req, &mut bytes);
    }
    stream.write_all(&bytes).unwrap();

    let mut decoder = ResponseDecoder::new(proto);
    let mut got = BTreeMap::new();
    let mut chunk = [0u8; 4096];
    while got.len() < n as usize {
        let read = stream.read(&mut chunk).unwrap();
        assert!(read > 0, "server closed early ({}/{n} replies)", got.len());
        decoder.feed(&chunk[..read]);
        loop {
            match decoder.next() {
                Step::NeedMore => break,
                Step::Message(Ok(Response::Ok { id, value, .. })) => {
                    got.insert(id, ("ok".to_string(), value as u64));
                }
                Step::Message(Ok(Response::Error { id, code, .. })) => {
                    got.insert(id.unwrap(), (code.to_string(), 0));
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
    }
    got
}

/// One series' current value out of a Prometheus exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().last())
        .unwrap_or_else(|| panic!("{name} exposed:\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn replies_are_the_kernels_answers_while_the_pool_cycles() {
    for proto in [Protocol::Json, Protocol::Binary] {
        let handle = serve(
            test_registry(),
            ServerConfig {
                workers: 2,
                queue_capacity: 256,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        // Two batches on fresh connections: the second is served out of
        // buffers the first returned.
        for _ in 0..2 {
            let replies = run_batch(handle.addr(), proto, 64);
            assert_eq!(replies.len(), 64);
            for (id, (code, value)) in &replies {
                assert_eq!(code, "ok", "{proto:?} id {id}");
                assert_eq!(*value, 100 + id, "{proto:?}: size echoed back");
            }
        }
        let text = handle.metrics_text();
        assert!(metric(&text, "tpm_arena_resets_total") >= 128.0, "{text}");
        assert!(metric(&text, "tpm_arena_pool_hits_total") > 0.0, "{text}");
        assert!(
            metric(&text, "tpm_arena_bytes_recycled_total") > 0.0,
            "{text}"
        );
        handle.shutdown();
    }
}

#[test]
fn loadgen_smoke_is_clean_and_pool_metrics_are_live() {
    for proto in [Protocol::Json, Protocol::Binary] {
        let handle = serve(
            test_registry(),
            ServerConfig {
                workers: 2,
                queue_capacity: 256,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let report = loadgen::run(&LoadgenConfig {
            protocol: proto,
            window: 8,
            ..LoadgenConfig::new(handle.addr().to_string(), 4, 50, spec(64))
        })
        .expect("loadgen");
        assert_eq!(report.sent, 200, "{proto:?}");
        assert_eq!(report.ok, 200, "{proto:?}");
        assert!(!report.has_unexpected_failures(), "{report:?}");

        let text = handle.metrics_text();
        assert!(
            metric(&text, "tpm_arena_resets_total") > 0.0,
            "pool saw returns:\n{text}"
        );
        handle.shutdown();
    }
}
