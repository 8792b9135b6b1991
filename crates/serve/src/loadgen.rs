//! A closed-loop load generator for the job server.
//!
//! `clients` threads each open one **persistent connection** and issue
//! `requests` job requests over it, keeping up to `window` of them in
//! flight (pipelined — replies may come back out of order and are matched
//! to their send time by request id). `window = 1` is the classic
//! closed-loop model whose offered load self-throttles as the server slows;
//! larger windows measure the pipelining headroom the reactor exists for.
//! Either wire protocol works ([`Protocol`]): JSON lines, or the
//! length-prefixed binary framing (the generator performs the preamble
//! handshake). Every outcome is counted (including `overloaded` rejections:
//! shed load is *reported*, never dropped) and round-trip latencies
//! aggregate into throughput and p50/p99 quantiles.
//!
//! Failure classes are kept separate so a driver can tell an environment
//! problem from a server decision: `connect_refused` (the server was not
//! there, even after retries), `timed_out` (a socket deadline fired
//! mid-conversation), `rejected` (the server shed the request at admission),
//! `deadline` (the job's own budget expired), and `failed` (anything else).
//! Connects retry with exponential backoff and deterministic seeded jitter,
//! so a load run that races server startup doesn't abort on the first
//! `ECONNREFUSED`.
//!
//! Latencies aggregate into two [`Histogram`]s rather than a sorted vector:
//! the **client** round trip (send → reply, including queue wait and the
//! socket) and the **server**-reported execution time from each `ok` reply.
//! Reporting both side by side makes queueing visible — a large client p99
//! over a small server p99 means time is spent waiting, not computing.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tpm_alloc::Arena;
use tpm_core::JobSpec;
use tpm_metrics::Histogram;

use crate::frame::SUPPORTED_VERSION;
use crate::protocol::{Request, Response};
use crate::wire::{self, Protocol, ResponseDecoder, Step};

/// What to offer at the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections (closed-loop clients).
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
    /// The job every request names.
    pub spec: JobSpec,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Connection attempts per client before giving up (≥ 1). Retries use
    /// exponential backoff with seeded jitter.
    pub connect_retries: u32,
    /// Base backoff before the second connect attempt, in milliseconds;
    /// doubles per attempt (plus up to 50% jitter).
    pub retry_base_ms: u64,
    /// Seed for the retry jitter — same seed, same backoff schedule.
    pub seed: u64,
    /// Wire protocol each connection speaks.
    pub protocol: Protocol,
    /// Requests kept in flight per connection (≥ 1; 1 = strict closed
    /// loop, send-then-wait).
    pub window: usize,
}

impl LoadgenConfig {
    /// A config with the retry policy defaulted (5 attempts, 10 ms base),
    /// JSON protocol, and a window of 1 (closed loop).
    pub fn new(addr: String, clients: usize, requests: usize, spec: JobSpec) -> Self {
        Self {
            addr,
            clients,
            requests,
            spec,
            deadline_ms: None,
            connect_retries: 5,
            retry_base_ms: 10,
            seed: 0x10ad_6e11,
            protocol: Protocol::Json,
            window: 1,
        }
    }
}

/// Aggregated outcome of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests sent (= clients × requests when every reply arrived).
    pub sent: u64,
    /// Replies answered `ok`.
    pub ok: u64,
    /// Replies answered `overloaded` (shed at admission).
    pub rejected: u64,
    /// Replies answered `deadline`.
    pub deadline: u64,
    /// Replies with any other error code.
    pub failed: u64,
    /// Clients that never got a connection (after all retries), or whose
    /// connection was refused mid-run.
    pub connect_refused: u64,
    /// Socket timeouts observed mid-conversation.
    pub timed_out: u64,
    /// Wall-clock duration of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Answered requests (any outcome) per second of wall time.
    pub throughput: f64,
    /// Median round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Mean round-trip latency, milliseconds.
    pub mean_ms: f64,
    /// Slowest round trip, milliseconds.
    pub max_ms: f64,
    /// Median server-side execution time, milliseconds (from `ok` replies'
    /// `elapsed_ms`; 0 when nothing succeeded). Compare with [`p50_ms`]
    /// (client view) to see queueing/transport overhead.
    ///
    /// [`p50_ms`]: Self::p50_ms
    pub server_p50_ms: f64,
    /// 99th-percentile server-side execution time, milliseconds.
    pub server_p99_ms: f64,
}

impl LoadgenReport {
    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\":{},\"ok\":{},\"rejected\":{},\"deadline\":{},\"failed\":{},\
             \"connect_refused\":{},\"timed_out\":{},\
             \"wall_ms\":{},\"throughput_rps\":{},\"p50_ms\":{},\"p99_ms\":{},\
             \"mean_ms\":{},\"max_ms\":{},\
             \"server_p50_ms\":{},\"server_p99_ms\":{}}}",
            self.sent,
            self.ok,
            self.rejected,
            self.deadline,
            self.failed,
            self.connect_refused,
            self.timed_out,
            crate::json::num(self.wall_ms),
            crate::json::num(self.throughput),
            crate::json::num(self.p50_ms),
            crate::json::num(self.p99_ms),
            crate::json::num(self.mean_ms),
            crate::json::num(self.max_ms),
            crate::json::num(self.server_p50_ms),
            crate::json::num(self.server_p99_ms),
        )
    }

    /// Whether the run saw any outcome a driver should treat as unexpected:
    /// environment failures (refused connects, socket timeouts) or
    /// non-protocol errors. Server-side shedding (`rejected`) and job
    /// deadlines are *expected* classes under overload and don't count.
    pub fn has_unexpected_failures(&self) -> bool {
        self.failed > 0 || self.connect_refused > 0 || self.timed_out > 0
    }
}

/// The per-request outcomes one client observed. Latencies go straight into
/// the run's shared histograms ([`Hists`]) — lock-free, so clients never
/// contend on a vector.
#[derive(Debug, Default)]
struct ClientTally {
    sent: u64,
    ok: u64,
    rejected: u64,
    deadline: u64,
    failed: u64,
    connect_refused: u64,
    timed_out: u64,
}

/// The run's latency aggregation: client round trips and server-reported
/// execution times, both in nanoseconds.
#[derive(Debug, Default)]
struct Hists {
    client: Histogram,
    server: Histogram,
}

/// SplitMix64 finalizer — the same deterministic hash `tpm-fault` uses, here
/// driving retry jitter so backoff schedules replay under a fixed seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Connects with exponential backoff: attempt `a` (from 1) sleeps
/// `base × 2^(a−1)` plus up to 50% deterministic jitter before retrying.
fn connect_with_retry(config: &LoadgenConfig, client: usize) -> std::io::Result<TcpStream> {
    let attempts = config.connect_retries.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        match TcpStream::connect(&config.addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < attempts {
            let backoff = config.retry_base_ms.saturating_mul(1 << attempt.min(16));
            let jitter = mix(config.seed ^ ((client as u64) << 32) ^ u64::from(attempt))
                % (backoff / 2).max(1);
            std::thread::sleep(Duration::from_millis(backoff + jitter));
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// Writes every staged slice with as few syscalls as the kernel allows —
/// a full pipeline window usually goes out in one `writev`.
fn write_all_vectored(stream: &mut TcpStream, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Buckets a mid-run IO error into the report's failure classes.
fn classify_io_error(e: &std::io::Error, tally: &mut ClientTally) {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::ConnectionRefused => tally.connect_refused += 1,
        ErrorKind::TimedOut | ErrorKind::WouldBlock => tally.timed_out += 1,
        _ => tally.failed += 1,
    }
}

/// Runs the closed loop and aggregates every client's outcomes.
///
/// IO failures no longer abort the run: they are classified into the
/// report's `connect_refused` / `timed_out` / `failed` counters (the
/// `io::Result` return is kept for API stability and is always `Ok`).
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let started = Instant::now();
    let hists = Hists::default();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|c| {
                let hists = &hists;
                s.spawn(move || client_loop(config, c, hists))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut total = ClientTally::default();
    for t in tallies {
        total.sent += t.sent;
        total.ok += t.ok;
        total.rejected += t.rejected;
        total.deadline += t.deadline;
        total.failed += t.failed;
        total.connect_refused += t.connect_refused;
        total.timed_out += t.timed_out;
    }
    let client = hists.client.snapshot();
    let server = hists.server.snapshot();
    let ns_to_ms = |v: f64| v / 1e6;
    let wall_s = wall.as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        sent: total.sent,
        ok: total.ok,
        rejected: total.rejected,
        deadline: total.deadline,
        failed: total.failed,
        connect_refused: total.connect_refused,
        timed_out: total.timed_out,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput: client.count() as f64 / wall_s,
        p50_ms: ns_to_ms(client.quantile(0.50)),
        p99_ms: ns_to_ms(client.quantile(0.99)),
        mean_ms: ns_to_ms(client.mean()),
        max_ms: ns_to_ms(client.max as f64),
        server_p50_ms: ns_to_ms(server.quantile(0.50)),
        server_p99_ms: ns_to_ms(server.quantile(0.99)),
    })
}

fn client_loop(config: &LoadgenConfig, client: usize, hists: &Hists) -> ClientTally {
    let mut tally = ClientTally::default();
    let ident = format!("lg-{client}");
    let stream = match connect_with_retry(config, client) {
        Ok(s) => s,
        Err(e) => {
            classify_io_error(&e, &mut tally);
            // A non-refused connect failure (unroutable address, …) still
            // counts once — in `failed` via the classifier above.
            return tally;
        }
    };
    if stream.set_nodelay(true).is_err() {
        tally.failed += 1;
        return tally;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            classify_io_error(&e, &mut tally);
            return tally;
        }
    };
    let mut reader = stream;
    if config.protocol == Protocol::Binary {
        // Preamble handshake: propose our version, consume the server's
        // two-byte accept before any frame flows.
        let mut accept = [0u8; 2];
        if let Err(e) = writer
            .write_all(&wire::client_preamble(SUPPORTED_VERSION))
            .and_then(|()| reader.read_exact(&mut accept))
        {
            classify_io_error(&e, &mut tally);
            return tally;
        }
    }
    let mut decoder = ResponseDecoder::new(config.protocol);
    let window = config.window.max(1);
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let mut chunk = [0u8; 16 << 10];
    // One request value per connection, re-id'd per send: the spec and
    // client-identity strings are built once, not cloned per request.
    let mut request = Request::Run {
        id: 0,
        spec: config.spec.clone(),
        deadline_ms: config.deadline_ms,
        client: Some(ident),
    };
    // Each window top-up is staged in the arena (encode into `scratch`,
    // copy into a region) and sent as one vectored write; the regions die
    // at the `reset()` after the write — one arena generation per batch.
    let mut arena = Arena::new();
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    let mut batch: Vec<(u64, Instant)> = Vec::with_capacity(window);
    'conn: while next < config.requests || !in_flight.is_empty() {
        // Fill the pipeline window, then service replies.
        if next < config.requests && in_flight.len() < window {
            let mut staged: Vec<IoSlice<'_>> = Vec::with_capacity(window);
            while next < config.requests && in_flight.len() + staged.len() < window {
                let id = (client * config.requests + next) as u64;
                if let Request::Run {
                    id: ref mut rid, ..
                } = request
                {
                    *rid = id;
                }
                scratch.clear();
                wire::encode_request_into(config.protocol, &request, &mut scratch);
                staged.push(IoSlice::new(arena.alloc_slice_copy(&scratch)));
                batch.push((id, Instant::now()));
                next += 1;
            }
            let write = write_all_vectored(&mut writer, &mut staged);
            drop(staged);
            arena.reset();
            if let Err(e) = write {
                classify_io_error(&e, &mut tally);
                break 'conn;
            }
            for (id, sent_at) in batch.drain(..) {
                tally.sent += 1;
                in_flight.insert(id, sent_at);
            }
        }
        // Drain what the decoder already buffered before blocking on the
        // socket again — replies can arrive fused in one read.
        let mut progressed = false;
        loop {
            match decoder.next() {
                Step::NeedMore => break,
                Step::Preamble(_) => {}
                Step::Message(resp) => {
                    progressed = true;
                    absorb(resp, &mut in_flight, &mut tally, hists);
                }
                Step::Corrupt(_) => {
                    tally.failed += 1;
                    break 'conn;
                }
            }
        }
        if progressed {
            continue; // window may have opened; top it up first
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // server closed mid-run; report what we have
            Ok(n) => decoder.feed(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                classify_io_error(&e, &mut tally);
                break;
            }
        }
    }
    tally
}

/// Folds one decoded reply into the tallies, matched to its send time by
/// request id (pipelined replies arrive in any order).
fn absorb(
    resp: Result<Response, String>,
    in_flight: &mut HashMap<u64, Instant>,
    tally: &mut ClientTally,
    hists: &Hists,
) {
    match resp {
        Ok(Response::Ok { id, elapsed_ms, .. }) => {
            if let Some(sent_at) = in_flight.remove(&id) {
                hists.client.record(sent_at.elapsed().as_nanos() as u64);
            }
            tally.ok += 1;
            hists.server.record((elapsed_ms.max(0.0) * 1e6) as u64);
        }
        Ok(Response::Error { id, code, .. }) => {
            // Only a parse error is legitimately id-less (the server could
            // not decode which request it was); every other error names its
            // request, contained admission panics included. A parse error
            // still answered *some* request, so retire the oldest and the
            // window can't wedge waiting for a reply that already came.
            let id = id.or_else(|| in_flight.keys().min().copied());
            if let Some(sent_at) = id.and_then(|id| in_flight.remove(&id)) {
                hists.client.record(sent_at.elapsed().as_nanos() as u64);
            }
            match code {
                "overloaded" => tally.rejected += 1,
                "deadline" => tally.deadline += 1,
                _ => tally.failed += 1,
            }
        }
        // Pong/health/…: we never sent those requests.
        Ok(_) | Err(_) => tally.failed += 1,
    }
}
