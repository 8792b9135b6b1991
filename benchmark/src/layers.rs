//! Per-layer measurements made from outside: the benchmark calls each
//! layer's public functions in a loop and times them.
//!
//! Two parts. [`replay`] walks a request list through the server's own
//! steps in-process — decode, admit, `JobRegistry::run`, encode — one span
//! per call, so a served request's cost splits into codec, admission,
//! input generation and kernel body. [`probe`] times the mechanisms under
//! the runtimes in isolation (deque operations, barrier episode, mailbox
//! send, region launch per model, arena and histogram operations, the
//! simulator loops). Neither depends on the workload's traffic, only on the
//! machine and the commit, which is what makes them comparable across
//! workloads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tpm_alloc::{Arena, BufPool};
use tpm_core::{Executor, JobRegistry, JobSpec, Model};
use tpm_kernels::{Axpy, Fib, Matmul, Sum};
use tpm_rodinia::{Bfs, HotSpot};
use tpm_serve::engine::{self, AdmissionPolicy};
use tpm_serve::frame::SUPPORTED_VERSION;
use tpm_serve::wire::{self, Decoder, Step};
use tpm_serve::{BoundedQueue, Protocol, Request, Response, ServerConfig};
use tpm_sim::{DequeKind, Simulator};
use tpm_sync::{chase_lev, CancelToken, LockedDeque, MpscQueue, SpinLatch};

use crate::gen::{self, MixJob};
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Median over five batches of the mean nanoseconds one call of `f` takes.
fn per_op_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches).expect("five batches")
}

/// The value the sequential reference computes for a served job — what an
/// `ok` reply must carry.
pub fn reference_value(spec: &JobSpec) -> f64 {
    match spec.kernel.as_str() {
        "sum" => {
            let k = Sum::native(spec.size);
            k.seq(&k.alloc())
        }
        "fib" => Fib::seq(spec.size as u64) as f64,
        "matmul" => {
            let k = Matmul::native(spec.size);
            let (a, b) = k.alloc();
            k.seq(&a, &b).iter().sum()
        }
        other => panic!("no sequential reference for served kernel {other:?}"),
    }
}

/// Times the kernel's public input generation alone (what `JobRegistry::run`
/// spends before the body starts), nanoseconds.
fn alloc_ns(spec: &JobSpec) -> u64 {
    let t = Instant::now();
    match spec.kernel.as_str() {
        "sum" => drop(std::hint::black_box(Sum::native(spec.size).alloc())),
        "matmul" => drop(std::hint::black_box(Matmul::native(spec.size).alloc())),
        _ => return 0,
    }
    t.elapsed().as_nanos() as u64
}

/// Mean decode and encode cost per message and wire bytes per request
/// (request plus `ok` reply) for `requests` in `proto`.
fn wire_costs(requests: &[Request], proto: Protocol) -> (f64, f64, f64) {
    let mut stream = Vec::new();
    if proto == Protocol::Binary {
        stream.extend_from_slice(&wire::client_preamble(SUPPORTED_VERSION));
    }
    for r in requests {
        wire::encode_request_into(proto, r, &mut stream);
    }
    let request_bytes = stream.len();
    let decode_ns = per_op_ns(1, || {
        let mut d = Decoder::new();
        d.feed(&stream);
        let mut n = 0;
        loop {
            match d.next() {
                Step::Message(Ok(_)) => n += 1,
                Step::Preamble(_) => {}
                Step::NeedMore => break,
                other => panic!("replayed request stream did not decode: {other:?}"),
            }
        }
        assert_eq!(n, requests.len());
    }) / requests.len() as f64;
    let reply = Response::Ok {
        id: 1,
        value: 3071.25,
        elapsed_ms: 0.0123,
        queue_ms: 0.0045,
    };
    let mut out = Vec::with_capacity(256);
    let encode_ns = per_op_ns(requests.len(), || {
        out.clear();
        wire::encode_response_into(proto, &reply, &mut out);
        std::hint::black_box(&out);
    });
    let bytes = request_bytes as f64 / requests.len() as f64 + out.len() as f64;
    (decode_ns, encode_ns, bytes)
}

/// Walks `requests` through decode → admit → `JobRegistry::run` → encode in
/// this thread, one span per call under a `replay.request` root, and
/// returns the per-layer costs. `classes[i]` names the [`spec::MIX_JOBS`]
/// entry request *i* reports under.
pub fn replay(
    registry: &JobRegistry,
    requests: &[Request],
    classes: &[usize],
    proto: Protocol,
    tracer: &mut Tracer,
) -> Metrics {
    let mut m = Metrics::new();
    let (dec, enc, bytes) = wire_costs(requests, Protocol::Binary);
    m.insert("serve.wire.decode_req_ns".into(), dec);
    m.insert("serve.wire.encode_resp_ns".into(), enc);
    m.insert("serve.wire.bytes_per_req".into(), bytes);
    let (dec, enc, bytes) = wire_costs(requests, Protocol::Json);
    m.insert("serve.wire.decode_req_json_ns".into(), dec);
    m.insert("serve.wire.encode_resp_json_ns".into(), enc);
    m.insert("serve.wire.bytes_per_req_json".into(), bytes);

    let config = ServerConfig::default();
    let policy = AdmissionPolicy {
        max_threads: config.max_threads,
        default_deadline_ms: config.default_deadline_ms,
    };
    // One executor per thread count, as each service worker caches them.
    let mut execs: BTreeMap<usize, Executor> = BTreeMap::new();
    let token = CancelToken::new();
    let mut decoder = Decoder::new();
    if proto == Protocol::Binary {
        decoder.feed(&wire::client_preamble(SUPPORTED_VERSION));
        assert!(matches!(decoder.next(), Step::Preamble(_)));
    }
    let mut bytes = Vec::with_capacity(256);
    let mut out = Vec::with_capacity(256);
    let mut run_ns: Vec<Vec<f64>> = vec![Vec::new(); spec::MIX_JOBS.len()];
    let mut body_share: Vec<Vec<f64>> = vec![Vec::new(); spec::MIX_JOBS.len()];
    let mut admit_ns = Vec::with_capacity(requests.len());
    for (i, (request, &class)) in requests.iter().zip(classes).enumerate() {
        let id = i as u64;
        let root_start = Instant::now();
        bytes.clear();
        wire::encode_request_into(proto, request, &mut bytes);
        let decoded = tracer.span("serve.wire.decode", id, "replay.request", || {
            decoder.feed(&bytes);
            decoder.next()
        });
        let Step::Message(Ok(Request::Run {
            spec, deadline_ms, ..
        })) = decoded
        else {
            panic!("replayed request did not decode: {decoded:?}");
        };
        let t = Instant::now();
        let admission = engine::admit(registry, &policy, &spec, deadline_ms);
        let admitted = Instant::now();
        tracer.record("serve.engine.admit", id, "replay.request", t, admitted);
        admit_ns.push((admitted - t).as_nanos() as f64);
        assert!(
            matches!(admission, engine::Admission::Accept { .. }),
            "replayed request refused: {admission:?}"
        );
        let exec = execs
            .entry(spec.threads)
            .or_insert_with(|| Executor::new(spec.threads));
        let alloc = alloc_ns(&spec);
        let run_start = Instant::now();
        let result = registry
            .run(exec, &spec, &token)
            .expect("replayed job runs");
        let run_end = Instant::now();
        let total = (run_end - run_start).as_nanos() as u64;
        tracer.record(
            "core.registry.run",
            id,
            "replay.request",
            run_start,
            run_end,
        );
        let start_ns = tracer.ns(run_start);
        let alloc = alloc.min(total);
        tracer.record_ns("kernels.alloc", id, "core.registry.run", start_ns, alloc);
        tracer.record_ns(
            "kernels.body",
            id,
            "core.registry.run",
            start_ns + alloc,
            total - alloc,
        );
        run_ns[class].push(total as f64);
        body_share[class].push((total - alloc) as f64 / total.max(1) as f64);
        let reply = Response::Ok {
            id,
            value: result.value,
            elapsed_ms: result.elapsed.as_secs_f64() * 1e3,
            queue_ms: 0.0,
        };
        tracer.span("serve.wire.encode", id, "replay.request", || {
            out.clear();
            wire::encode_response_into(proto, &reply, &mut out);
        });
        tracer.record("replay.request", id, "", root_start, Instant::now());
    }
    m.insert(
        "serve.engine.admit_ns".into(),
        median(&admit_ns).unwrap_or(0.0),
    );
    for (class, job) in spec::MIX_JOBS.iter().enumerate() {
        if let Some(ns) = median(&run_ns[class]) {
            m.insert(format!("core.registry.run_us.{job}"), ns / 1e3);
            m.insert(
                format!("core.registry.body_share.{job}"),
                median(&body_share[class]).unwrap_or(0.0),
            );
        }
    }
    m
}

/// The request list replayed when the workload itself sends none: the
/// `serve_open` catalog, ten times over.
pub fn default_replay_list() -> (Vec<Request>, Vec<usize>) {
    let catalog = gen::mix_catalog();
    requests_of(
        &catalog,
        &mut (0..10 * catalog.len()).map(|i| i % catalog.len()),
    )
}

/// `Request`s and classes for a sequence of catalog indices.
pub fn requests_of(
    catalog: &[MixJob],
    jobs: &mut dyn Iterator<Item = usize>,
) -> (Vec<Request>, Vec<usize>) {
    jobs.enumerate()
        .map(|(i, j)| {
            (
                Request::Run {
                    id: i as u64,
                    spec: catalog[j].spec.clone(),
                    deadline_ms: None,
                    client: None,
                },
                catalog[j].class,
            )
        })
        .unzip()
}

struct CountActor(Arc<AtomicU64>);

impl tpm_actors::Actor for CountActor {
    type Msg = u64;
    fn on_message(&mut self, msg: u64, _ctx: &tpm_actors::ActorCtx<'_, '_>) {
        self.0.fetch_add(msg, Ordering::Release);
    }
}

/// Times each mechanism below the runtimes in isolation.
pub fn probe() -> Metrics {
    let mut m = Metrics::new();
    let threads = spec::MAX_JOB_THREADS;

    // tpm-serve: the bounded admission queue.
    let queue: BoundedQueue<u64> = BoundedQueue::new(ServerConfig::default().queue_capacity);
    m.insert(
        "serve.queue.push_pop_ns".into(),
        per_op_ns(50_000, || {
            let _ = queue.try_push(1);
            std::hint::black_box(queue.pop());
        }),
    );

    // tpm-core: executor construction and an empty region per model.
    m.insert(
        "core.executor.build_us".into(),
        per_op_ns(4, || drop(Executor::new(threads))) / 1e3,
    );
    let exec = Executor::new(threads);
    let token = CancelToken::new();
    for model in Model::ALL {
        let ns = per_op_ns(100, || {
            exec.try_parallel_for(model, 0..spec::FINE_REGION_ITERS, &token, &|_| {})
                .expect("empty region runs");
        });
        m.insert(format!("core.executor.region_us.{model}"), ns / 1e3);
    }

    // tpm-kernels / tpm-rodinia: input generation, and computed traffic.
    let (hs_n, hs_steps) = spec::COARSE_HOTSPOT;
    let allocs: [(&str, &dyn Fn()); 5] = [
        ("sum_1m", &|| drop(Sum::native(spec::OPEN_BIG_SIZE).alloc())),
        ("axpy", &|| drop(Axpy::native(spec::COARSE_AXPY_N).alloc())),
        ("matmul", &|| {
            drop(Matmul::native(spec::COARSE_MATMUL_N).alloc())
        }),
        ("hotspot", &|| {
            drop(HotSpot::native(hs_n, hs_steps).generate())
        }),
        ("bfs", &|| {
            drop(Bfs::native(spec::COARSE_BFS_NODES).generate())
        }),
    ];
    for (name, f) in allocs {
        m.insert(format!("kernels.alloc_ms.{name}"), per_op_ns(1, f) / 1e6);
    }
    // Per inner iteration, computed from the loop bodies (cache misses not
    // counted): sum reads one f64 and does a multiply-add; axpy reads two
    // and writes one; matmul's inner loop reads one element of B per
    // multiply-add (A's element is held in a register).
    for (k, bytes, flops) in [("sum", 8.0, 2.0), ("axpy", 24.0, 2.0), ("matmul", 8.0, 2.0)] {
        m.insert(format!("kernels.bytes_per_iter.{k}"), bytes);
        m.insert(format!("kernels.flops_per_iter.{k}"), flops);
    }

    // tpm-sync: the deques, barrier, latch, mailbox queue, cancel token.
    let (w, s) = chase_lev::deque::<u64>(1024);
    m.insert(
        "sync.chase_lev.push_pop_ns".into(),
        per_op_ns(100_000, || {
            w.push(1);
            std::hint::black_box(w.pop());
        }),
    );
    m.insert(
        "sync.chase_lev.steal_ns".into(),
        per_op_ns(100_000, || {
            w.push(1);
            std::hint::black_box(s.steal().success());
        }),
    );
    let (dest, _dest_stealer) = chase_lev::deque::<u64>(1024);
    const BATCH: usize = 64;
    m.insert(
        "sync.chase_lev.steal_batch_ns_per_item".into(),
        per_op_ns(2_000, || {
            for i in 0..BATCH as u64 {
                w.push(i);
            }
            // Steal-half until the victim is empty, popping what arrived.
            while s.steal_batch_into(&dest, 32) > 0 {
                while dest.pop().is_some() {}
            }
        }) / BATCH as f64,
    );
    let locked = LockedDeque::new();
    m.insert(
        "sync.locked_deque.push_pop_ns".into(),
        per_op_ns(100_000, || {
            locked.push_bottom(1u64);
            std::hint::black_box(locked.pop_bottom());
        }),
    );
    const PHASES: usize = 2_000;
    let barrier = tpm_sync::Barrier::new(threads);
    let episode_ns = per_op_ns(1, || {
        std::thread::scope(|sc| {
            for _ in 1..threads {
                sc.spawn(|| {
                    for _ in 0..PHASES {
                        barrier.wait();
                    }
                });
            }
            for _ in 0..PHASES {
                barrier.wait();
            }
        });
    }) / PHASES as f64;
    m.insert("sync.barrier.episode_us".into(), episode_ns / 1e3);
    m.insert(
        "sync.latch.set_wait_ns".into(),
        per_op_ns(100_000, || {
            let latch = SpinLatch::new();
            latch.set();
            latch.wait();
        }),
    );
    let mpsc = MpscQueue::new();
    m.insert(
        "sync.mpsc.send_recv_ns".into(),
        per_op_ns(100_000, || {
            mpsc.push(1u64);
            std::hint::black_box(mpsc.pop());
        }),
    );
    let child = CancelToken::with_deadline(std::time::Duration::from_secs(3600)).child();
    m.insert(
        "sync.cancel.poll_ns".into(),
        per_op_ns(100_000, || {
            std::hint::black_box(child.is_cancelled());
        }),
    );

    // tpm-rawthreads: one spawn-and-join region; tpm-actors: a message
    // through a mailbox to an activation.
    m.insert(
        "rawthreads.spawn_join_us".into(),
        per_op_ns(50, || {
            tpm_rawthreads::threads_for(threads, 0..threads, |_, _| {})
        }) / 1e3,
    );
    let delivered = Arc::new(AtomicU64::new(0));
    let addr = exec
        .actors()
        .spawn_actor(CountActor(Arc::clone(&delivered)));
    const MESSAGES: u64 = 20_000;
    let mut want = 0;
    m.insert(
        "actors.mailbox.send_activate_ns".into(),
        per_op_ns(1, || {
            for _ in 0..MESSAGES {
                addr.send(1);
            }
            want += MESSAGES;
            while delivered.load(Ordering::Acquire) < want {
                std::thread::yield_now();
            }
        }) / MESSAGES as f64,
    );

    // tpm-alloc and tpm-metrics: the four operations on the per-request path.
    let mut arena = Arena::new();
    m.insert(
        "alloc.arena.alloc_reset_ns".into(),
        per_op_ns(100_000, || {
            std::hint::black_box(arena.alloc_bytes(64));
            arena.reset();
        }),
    );
    let pool = BufPool::for_serve(2);
    m.insert(
        "alloc.pool.get_put_ns".into(),
        per_op_ns(100_000, || drop(std::hint::black_box(pool.take()))),
    );
    let hist = tpm_metrics::Histogram::new();
    let mut v = 0u64;
    m.insert(
        "metrics.histogram.record_ns".into(),
        per_op_ns(100_000, || {
            v = v.wrapping_add(7919);
            hist.record(v % 1_000_000);
        }),
    );
    let counter = tpm_metrics::Counter::new();
    m.insert(
        "metrics.counter.inc_ns".into(),
        per_op_ns(100_000, || counter.inc()),
    );

    // tpm-sim: the loop simulator, the task-tree simulator, the placement
    // sweep — simulated work items per second of wall time.
    let sim = Simulator::paper_testbed();
    let axpy = Axpy::paper().sim_workload();
    let t = Instant::now();
    let mut events = 0u64;
    for model in Model::ALL {
        for p in tpm_harness::experiments::THREADS {
            events += sim
                .run_loop(tpm_harness::experiments::sim_policy(model), &axpy, p)
                .tasks;
        }
    }
    m.insert(
        "sim.loop_events_per_s".into(),
        events as f64 / t.elapsed().as_secs_f64(),
    );
    let fib = Fib::paper().sim_workload();
    let t = Instant::now();
    let tasks = sim.run_fib(DequeKind::LockFree, &fib, 36).tasks;
    m.insert(
        "sim.tree_tasks_per_s".into(),
        tasks as f64 / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    std::hint::black_box(tpm_sim::placement_sweep(&sim, &fib, &[8, 36]));
    m.insert(
        "sim.placement_pass_ms".into(),
        t.elapsed().as_secs_f64() * 1e3,
    );
    m
}
