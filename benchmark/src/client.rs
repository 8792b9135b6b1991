//! The load generator: persistent connections speaking either wire
//! protocol, a closed loop (send the next request when a reply frees a
//! window slot) and an open loop (send on a schedule whatever the server
//! does, time each reply from when its request was *due*).
//!
//! Every reply is checked: an `ok` must carry the value the sequential
//! reference computes for its job, anything else counts as failed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tpm_core::JobSpec;
use tpm_serve::frame::SUPPORTED_VERSION;
use tpm_serve::wire::{self, ResponseDecoder, Step};
use tpm_serve::{Protocol, Request, Response};
use tpm_sync::epoll::{Epoll, Event, EPOLLIN};

use crate::gen::{Arrival, MixJob};
use crate::proc;
use crate::spec::SEGMENTS;
use crate::trace::Tracer;

/// Relative tolerance when a reply's value is compared with the sequential
/// reference (parallel reductions reassociate the sum).
pub const VALUE_TOL: f64 = 1e-9;

/// How long a generator waits for bytes before it gives the connection up;
/// the requests still in flight then count as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long before a request is due the open-loop sender stops sleeping and
/// spins instead.
const SPIN_TAIL: Duration = Duration::from_micros(150);

/// One client connection, handshake done.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    decoder: ResponseDecoder,
    proto: Protocol,
}

impl Conn {
    /// Connects, disables Nagle, and for the binary protocol completes the
    /// preamble handshake.
    pub fn open(addr: SocketAddr, proto: Protocol) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        if proto == Protocol::Binary {
            let mut accept = [0u8; 2];
            stream.write_all(&wire::client_preamble(SUPPORTED_VERSION))?;
            stream.read_exact(&mut accept)?;
        }
        Ok(Conn {
            stream,
            decoder: ResponseDecoder::new(proto),
            proto,
        })
    }
}

/// Latency samples of the replies that completed in one segment of the
/// window.
#[derive(Debug, Default, Clone)]
pub struct SegLog {
    /// Round trip per `ok` reply, nanoseconds (from the due time in the
    /// open loop).
    pub rtt_ns: Vec<u32>,
    /// Server-reported execution time per `ok` reply, nanoseconds; kept on
    /// traced runs only.
    pub exec_ns: Vec<u32>,
    /// Job class per `ok` reply; kept on traced runs only.
    pub class: Vec<u8>,
    /// Round trips of the large `sum` jobs alone ([`BIG_CLASS`]): the
    /// requests `serve_open`'s `p50_ms` is the median of.
    pub big_rtt_ns: Vec<u32>,
}

/// What one generator thread saw.
#[derive(Debug)]
pub struct ClientLog {
    /// One entry per window segment.
    pub segs: Vec<SegLog>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed, answered with a wrong value, or never
    /// answered.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Generator threads behind this log.
    pub threads: usize,
    /// CPU milliseconds those threads used themselves (not the server's).
    pub cpu_ms: f64,
    /// This thread's id and its CPU reading when the log was opened.
    own: (u32, f64),
    /// Spans, on traced runs.
    pub tracer: Option<Tracer>,
}

impl ClientLog {
    /// An empty log opened by the calling generator thread.
    pub fn new(tracer: Option<Tracer>) -> Self {
        let tid = proc::current_tid();
        Self {
            segs: vec![SegLog::default(); SEGMENTS],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            threads: 1,
            cpu_ms: 0.0,
            own: (tid, proc::thread_cpu_ms(tid)),
            tracer,
        }
    }

    /// Closes the log on the thread that opened it: records the CPU the
    /// thread used in between.
    fn done(mut self) -> Self {
        self.cpu_ms = proc::thread_cpu_ms(self.own.0) - self.own.1;
        self
    }

    /// Counts one failed request, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Logs one correct `ok` reply: its latency in the segment it completed
    /// in, and on traced requests its spans.
    fn ok(&mut self, win: &Window, r: OkReply) {
        let exec_ns = (r.elapsed_ms.max(0.0) * 1e6) as u64;
        if let Some(seg) = win.segment_of(r.done_ns) {
            let s = &mut self.segs[seg];
            let ns = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            let rtt = ns(r.done_ns.saturating_sub(r.from_ns));
            s.rtt_ns.push(rtt);
            if r.class == BIG_CLASS {
                s.big_rtt_ns.push(rtt);
            }
            if win.trace_stride.is_some() {
                s.exec_ns.push(ns(exec_ns));
                s.class.push(r.class);
            }
        }
        if win.traces(r.id) {
            let t = self.tracer.as_mut().expect("traced window has a tracer");
            let root = "client.request";
            t.record_ns(
                root,
                r.id,
                "",
                r.from_ns,
                r.done_ns.saturating_sub(r.from_ns),
            );
            t.record_ns(
                "client.send_wait",
                r.id,
                root,
                r.written_ns,
                r.read_ns.saturating_sub(r.written_ns),
            );
            t.record_ns(
                "client.decode",
                r.id,
                root,
                r.decode_ns,
                r.done_ns.saturating_sub(r.decode_ns),
            );
            // The server reports how long the job ran, not when: draw it
            // ending as the reply's bytes were read.
            t.record_ns(
                "serve.exec",
                r.id,
                root,
                r.read_ns.saturating_sub(exec_ns),
                exec_ns,
            );
        }
    }

    /// Folds another thread's log into this one.
    pub fn merge(&mut self, other: ClientLog) {
        for (a, b) in self.segs.iter_mut().zip(other.segs) {
            a.rtt_ns.extend(b.rtt_ns);
            a.exec_ns.extend(b.exec_ns);
            a.class.extend(b.class);
            a.big_rtt_ns.extend(b.big_rtt_ns);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.threads += other.threads;
        self.cpu_ms += other.cpu_ms;
        match (&mut self.tracer, other.tracer) {
            (Some(a), Some(b)) => a.absorb(b),
            (a @ None, b) => *a = b,
            _ => {}
        }
    }
}

/// Class of the 1 M-element `sum` jobs in [`crate::spec::MIX_JOBS`].
pub const BIG_CLASS: u8 = 1;

/// One correct `ok` reply; times are nanoseconds after the window opened.
struct OkReply {
    id: u64,
    /// Index into [`crate::spec::MIX_JOBS`].
    class: u8,
    /// Where its latency starts: the send (closed loop) or the due time
    /// (open loop).
    from_ns: u64,
    /// When its request had been written to the socket.
    written_ns: u64,
    /// When the bytes carrying it were read.
    read_ns: u64,
    /// When decoding it started.
    decode_ns: u64,
    /// When it was decoded.
    done_ns: u64,
    /// Server-reported execution time.
    elapsed_ms: f64,
}

/// The request id a reply answers, if it carries one.
fn reply_id(resp: &Result<Response, String>) -> Option<u64> {
    match resp {
        Ok(Response::Ok { id, .. }) => Some(*id),
        Ok(Response::Error { id, .. }) => *id,
        _ => None,
    }
}

/// The measured window: when it opened, how long it lasts, whether spans
/// are recorded.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When the window opened.
    pub start: Instant,
    /// Its length in seconds.
    pub seconds: f64,
    /// Record a span set for every `stride`-th request; `None` on untraced
    /// runs.
    pub trace_stride: Option<u64>,
}

impl Window {
    /// A window opening now.
    pub fn open(seconds: f64, trace_stride: Option<u64>) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            trace_stride,
        }
    }

    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }

    /// The segment an event `ns` after the start falls in; `None` once the
    /// window has closed (replies drained afterwards are checked and
    /// counted, not timed).
    pub fn segment_of(&self, ns: u64) -> Option<usize> {
        let seg_ns = self.seconds * 1e9 / SEGMENTS as f64;
        let seg = (ns as f64 / seg_ns) as usize;
        (seg < SEGMENTS).then_some(seg)
    }

    /// Nanoseconds from the window's opening to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    fn tracer(&self, lane: u32) -> Option<Tracer> {
        self.trace_stride.map(|_| Tracer::new(self.start, lane))
    }

    fn traces(&self, id: u64) -> bool {
        self.trace_stride.is_some_and(|s| id.is_multiple_of(s))
    }
}

/// Closed-loop parameters for one connection.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// The job every request names.
    pub job: JobSpec,
    /// The value an `ok` reply must carry.
    pub expected: f64,
    /// Requests kept in flight.
    pub window: usize,
    /// First request id (ids count up from it).
    pub id_base: u64,
    /// Stop after this many requests even if the window is still open
    /// (warm-up); `u64::MAX` otherwise.
    pub max_requests: u64,
}

struct InFlight {
    id: u64,
    sent: Instant,
    encoded: Instant,
    written: Instant,
}

fn clamp_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Drives one connection in a closed loop until the window closes (or
/// `max_requests` were sent), then drains what is in flight.
pub fn closed_loop(conn: &mut Conn, cfg: &ClosedLoop, win: &Window, lane: u32) -> ClientLog {
    let mut log = ClientLog::new(win.tracer(lane));
    let end = win.end();
    let mut request = Request::Run {
        id: 0,
        spec: cfg.job.clone(),
        deadline_ms: None,
        client: None,
    };
    let mut inflight: Vec<InFlight> = Vec::with_capacity(cfg.window);
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 << 10];
    let mut next_id = cfg.id_base;
    let mut last_read = Instant::now();
    'conn: loop {
        let sending = log.attempted < cfg.max_requests && Instant::now() < end;
        if !sending && inflight.is_empty() {
            break;
        }
        if sending && inflight.len() < cfg.window {
            out.clear();
            let first_new = inflight.len();
            while inflight.len() < cfg.window && log.attempted < cfg.max_requests {
                if let Request::Run { id, .. } = &mut request {
                    *id = next_id;
                }
                let sent = Instant::now();
                wire::encode_request_into(conn.proto, &request, &mut out);
                let encoded = if win.traces(next_id) {
                    Instant::now()
                } else {
                    sent
                };
                inflight.push(InFlight {
                    id: next_id,
                    sent,
                    encoded,
                    written: sent,
                });
                next_id += 1;
                log.attempted += 1;
            }
            if let Err(e) = conn.stream.write_all(&out) {
                log.fail(format!("write: {e}"));
                break;
            }
            if win.trace_stride.is_some() {
                let written = Instant::now();
                for f in &mut inflight[first_new..] {
                    f.written = written;
                }
            }
        }
        let mut progressed = false;
        loop {
            let decode_start = Instant::now();
            match conn.decoder.next() {
                Step::NeedMore => break,
                Step::Preamble(_) => {}
                Step::Message(resp) => {
                    progressed = true;
                    let done = Instant::now();
                    let slot =
                        reply_id(&resp).and_then(|id| inflight.iter().position(|f| f.id == id));
                    let Some(slot) = slot else {
                        log.fail(format!("unmatched reply {resp:?}"));
                        // An id-less error still answered something: retire the
                        // oldest request so the window cannot wedge.
                        if !inflight.is_empty() {
                            inflight.remove(0);
                        }
                        continue;
                    };
                    let f = inflight.swap_remove(slot);
                    match resp {
                        Ok(Response::Ok {
                            value, elapsed_ms, ..
                        }) if tpm_core::approx::rel_close(value, cfg.expected, VALUE_TOL) => {
                            if win.traces(f.id) {
                                let t = log.tracer.as_mut().expect("traced window has a tracer");
                                t.record(
                                    "client.encode",
                                    f.id,
                                    "client.request",
                                    f.sent,
                                    f.encoded,
                                );
                            }
                            log.ok(
                                win,
                                OkReply {
                                    id: f.id,
                                    class: 0,
                                    from_ns: win.ns(f.sent),
                                    written_ns: win.ns(f.written),
                                    read_ns: win.ns(last_read),
                                    decode_ns: win.ns(decode_start),
                                    done_ns: win.ns(done),
                                    elapsed_ms,
                                },
                            );
                        }
                        other => log.fail(format!("request {}: {other:?}", f.id)),
                    }
                }
                Step::Corrupt(msg) => {
                    log.fail(format!("corrupt reply stream: {msg}"));
                    break 'conn;
                }
            }
        }
        if progressed {
            continue;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                log.fail("server closed the connection".to_string());
                break;
            }
            Ok(n) => {
                last_read = Instant::now();
                conn.decoder.feed(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                log.fail(format!("read: {e}"));
                break;
            }
        }
    }
    // Whatever is still in flight was never answered.
    for f in inflight {
        log.fail(format!("request {} unanswered", f.id));
    }
    log.done()
}

/// What the open loop adds to a [`ClientLog`].
#[derive(Debug)]
pub struct OpenLog {
    /// Replies, merged over sender and receiver.
    pub log: ClientLog,
    /// Per request, how long after its due time it was written, nanoseconds.
    pub late_ns: Vec<u32>,
}

/// Sends `schedule` over `conns` (request *i* on connection *i mod n*) from
/// one sender thread while one receiver thread collects replies from all
/// connections, each timed from its request's due time. The sender never
/// has more than [`crate::spec::OPEN_MAX_OUTSTANDING`] requests unanswered;
/// time it waits for a slot is lateness like any other. `pace` lets a test
/// stall the generator: it is called before each send with the request
/// index.
pub fn open_loop(
    conns: &mut [Conn],
    schedule: &[Arrival],
    catalog: &[MixJob],
    expected: &[f64],
    win: &Window,
    pace: &(dyn Fn(usize) + Sync),
) -> std::io::Result<OpenLog> {
    let writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.stream.try_clone())
        .collect::<Result<_, _>>()?;
    let proto = conns[0].proto;
    let sent_all = AtomicBool::new(false);
    // Requests written and not yet answered; the sender holds back at
    // `OPEN_MAX_OUTSTANDING`. The receiver clears `receiving` when it gives
    // up, so a dead connection cannot park the sender for ever.
    let outstanding = AtomicUsize::new(0);
    let receiving = AtomicBool::new(true);
    // Send instant per request (ns after the window start, 0 = not yet),
    // for the receiver's send-to-reply span.
    let sent_ns: Vec<AtomicU64> = schedule.iter().map(|_| AtomicU64::new(0)).collect();

    let (send_log, late_ns, recv_log) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut log = ClientLog::new(win.tracer(0));
            let mut late = Vec::with_capacity(schedule.len());
            let mut out = Vec::with_capacity(256);
            let mut writers = writers;
            for (i, a) in schedule.iter().enumerate() {
                pace(i);
                let due = win.start + Duration::from_nanos(a.due_ns);
                let now = Instant::now();
                // Sleep to just short of the due time, then spin: a sleeping
                // thread wakes 50–100 us late and by a different amount every
                // time, which would go straight into every latency.
                if let Some(nap) = due.checked_duration_since(now + SPIN_TAIL) {
                    std::thread::sleep(nap);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                while outstanding.load(Ordering::Acquire) >= crate::spec::OPEN_MAX_OUTSTANDING
                    && receiving.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
                let request = Request::Run {
                    id: i as u64,
                    spec: catalog[a.job].spec.clone(),
                    deadline_ms: Some(crate::spec::OPEN_DEADLINE_MS),
                    client: None,
                };
                out.clear();
                let enc_start = Instant::now();
                wire::encode_request_into(proto, &request, &mut out);
                let send = Instant::now();
                late.push(clamp_ns(send.saturating_duration_since(due)));
                sent_ns[i].store(win.ns(send), Ordering::Release);
                outstanding.fetch_add(1, Ordering::AcqRel);
                log.attempted += 1;
                let conn = i % writers.len();
                if let Err(e) = writers[conn].write_all(&out) {
                    log.fail(format!("write: {e}"));
                    break;
                }
                if win.traces(i as u64) {
                    let t = log.tracer.as_mut().expect("traced window has a tracer");
                    t.record("client.encode", i as u64, "client.request", enc_start, send);
                }
            }
            sent_all.store(true, Ordering::Release);
            (log.done(), late)
        });
        let receiver = s.spawn(|| {
            let mut log = ClientLog::new(win.tracer(1));
            // However this thread ends, the sender must not wait on it.
            struct Release<'a>(&'a AtomicBool);
            impl Drop for Release<'_> {
                fn drop(&mut self) {
                    self.0.store(false, Ordering::Release);
                }
            }
            let _release = Release(&receiving);
            let mut answered = vec![false; schedule.len()];
            let mut remaining = schedule.len();
            let epoll = match Epoll::new() {
                Ok(e) => e,
                Err(e) => {
                    log.fail(format!("epoll: {e}"));
                    return log.done();
                }
            };
            for (i, c) in conns.iter().enumerate() {
                if let Err(e) = epoll.add(c.stream.as_raw_fd(), i as u64, EPOLLIN) {
                    log.fail(format!("epoll add: {e}"));
                    return log.done();
                }
            }
            let mut events = [Event::zeroed(); 8];
            let mut chunk = [0u8; 16 << 10];
            let mut idle_since = Instant::now();
            while remaining > 0 {
                let n = match epoll.wait(&mut events, 100) {
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
                    Err(e) => {
                        log.fail(format!("epoll wait: {e}"));
                        break;
                    }
                };
                if n == 0 {
                    // Nothing for a while after the last send: the rest is lost.
                    if sent_all.load(Ordering::Acquire) && idle_since.elapsed() > IO_TIMEOUT / 5 {
                        break;
                    }
                    continue;
                }
                idle_since = Instant::now();
                for ev in &events[..n] {
                    let conn = &mut conns[ev.data() as usize];
                    let got = match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            log.fail("server closed the connection".to_string());
                            remaining = 0;
                            break;
                        }
                        Ok(n) => n,
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                            ) =>
                        {
                            continue
                        }
                        Err(e) => {
                            log.fail(format!("read: {e}"));
                            remaining = 0;
                            break;
                        }
                    };
                    let read_at = Instant::now();
                    conn.decoder.feed(&chunk[..got]);
                    loop {
                        let decode_start = Instant::now();
                        let resp = match conn.decoder.next() {
                            Step::NeedMore => break,
                            Step::Preamble(_) => continue,
                            Step::Message(resp) => resp,
                            Step::Corrupt(msg) => {
                                log.fail(format!("corrupt reply stream: {msg}"));
                                remaining = 0;
                                break;
                            }
                        };
                        let done = Instant::now();
                        let Some(i) = reply_id(&resp)
                            .map(|id| id as usize)
                            .filter(|&i| i < answered.len() && !answered[i])
                        else {
                            log.fail(format!("unmatched reply {resp:?}"));
                            continue;
                        };
                        answered[i] = true;
                        remaining -= 1;
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                        let a = schedule[i];
                        match resp {
                            Ok(Response::Ok {
                                value, elapsed_ms, ..
                            }) if tpm_core::approx::rel_close(
                                value,
                                expected[a.job],
                                VALUE_TOL,
                            ) =>
                            {
                                log.ok(
                                    win,
                                    OkReply {
                                        id: i as u64,
                                        class: catalog[a.job].class as u8,
                                        from_ns: a.due_ns,
                                        written_ns: sent_ns[i].load(Ordering::Acquire),
                                        read_ns: win.ns(read_at),
                                        decode_ns: win.ns(decode_start),
                                        done_ns: win.ns(done),
                                        elapsed_ms,
                                    },
                                );
                            }
                            other => log.fail(format!("request {i}: {other:?}")),
                        }
                    }
                }
            }
            for (i, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
                // Only requests that were actually sent can be unanswered.
                if sent_ns[i].load(Ordering::Acquire) != 0 {
                    log.fail(format!("request {i} unanswered"));
                }
            }
            log.done()
        });
        let (send_log, late) = sender.join().expect("open-loop sender panicked");
        let recv_log = receiver.join().expect("open-loop receiver panicked");
        (send_log, late, recv_log)
    });
    let mut log = send_log;
    log.merge(recv_log);
    Ok(OpenLog { log, late_ns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::sync::Arc;

    #[test]
    fn window_cuts_into_equal_segments_and_closes() {
        let win = Window::open(10.0, None);
        assert_eq!(win.segment_of(0), Some(0));
        assert_eq!(win.segment_of(1_999_999_999), Some(0));
        assert_eq!(win.segment_of(2_000_000_000), Some(1));
        assert_eq!(win.segment_of(9_999_999_999), Some(SEGMENTS - 1));
        assert_eq!(win.segment_of(10_000_000_000), None);
    }

    /// A generator that stalls must charge the stall to the requests that
    /// were due meanwhile: latency runs from the due time, not from the
    /// (late) send.
    #[test]
    fn a_generator_stall_counts_against_the_requests_due_during_it() {
        const STALL: Duration = Duration::from_millis(60);
        const STALL_AT: usize = 5;
        let registry = Arc::new(tpm_harness::jobs::registry());
        let server = tpm_serve::serve(Arc::clone(&registry), tpm_serve::ServerConfig::default())
            .expect("server starts");
        let catalog = gen::mix_catalog();
        let expected: Vec<f64> = catalog
            .iter()
            .map(|j| crate::layers::reference_value(&j.spec))
            .collect();
        let mut conns: Vec<Conn> = (0..2)
            .map(|_| Conn::open(server.addr(), Protocol::Binary).expect("connects"))
            .collect();
        // Twenty small jobs, one due every millisecond.
        let schedule: Vec<Arrival> = (1..=20)
            .map(|i| Arrival {
                due_ns: i * 1_000_000,
                job: 0,
            })
            .collect();
        // One segment spans the whole test; trace every request so send
        // times are in the span log.
        let win = Window::open(5.0 * SEGMENTS as f64, Some(1));
        let open = open_loop(&mut conns, &schedule, &catalog, &expected, &win, &|i| {
            if i == STALL_AT {
                std::thread::sleep(STALL);
            }
        })
        .expect("open loop runs");
        drop(conns);
        let _ = server.shutdown();

        assert_eq!(
            (open.log.attempted, open.log.failed),
            (20, 0),
            "{:?}",
            open.log.errors
        );
        let stall_ns = STALL.as_nanos() as u32;
        // Before the stall the generator is on time. The stall starts when
        // the previous request went out (1 ms before the stalled one is due),
        // so that request is late by the stall less 1 ms, and the one due
        // 10 ms after it by 10 ms less again.
        assert!(open.late_ns[..STALL_AT].iter().all(|&l| l < stall_ns / 2));
        assert!(open.late_ns[STALL_AT] >= stall_ns - 2_000_000);
        assert!(open.late_ns[STALL_AT + 10] >= stall_ns - 12_000_000);
        // Latency from the due time therefore contains the stall for every
        // request that was due during it...
        let spans = open.log.tracer.expect("traced").spans;
        let from_due = |i: usize| {
            spans
                .iter()
                .find(|s| s.name == "client.request" && s.id == i as u64)
                .expect("every request has a root span")
                .dur_ns
        };
        let from_send = |i: usize| {
            spans
                .iter()
                .find(|s| s.name == "client.send_wait" && s.id == i as u64)
                .expect("every request has a send span")
                .dur_ns
        };
        assert!(from_due(STALL_AT) >= u64::from(stall_ns) - 2_000_000);
        assert!(from_due(STALL_AT + 10) >= u64::from(stall_ns) - 12_000_000);
        // ...while the send-to-reply time of the same requests does not.
        assert!(from_send(STALL_AT) < u64::from(stall_ns) / 2);
        assert!(from_due(0) < u64::from(stall_ns) / 2);
        // And the recorded round trips are the from-due ones.
        let recorded: Vec<u32> = open
            .log
            .segs
            .iter()
            .flat_map(|s| s.rtt_ns.clone())
            .collect();
        assert_eq!(recorded.len(), 20);
        assert_eq!(
            recorded
                .iter()
                .filter(|&&r| r >= stall_ns - 16_000_000)
                .count(),
            15
        );
    }
}
