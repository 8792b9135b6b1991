//! The data path: one thread multiplexing every connection.
//!
//! Layout: the listener is token 0, the wake is token 1, connections get
//! tokens from 2 up. Everything is level-triggered — on every readiness
//! report the reactor reads (or writes) until `WouldBlock`, so there is no
//! edge-tracking state, and a poller that over-reports (the tick poller
//! [`tpm_sync::epoll`] provides off Linux x86-64) is as correct as the
//! kernel's. Decoded requests dispatch through [`handle_frame`]; workers
//! hand finished replies back over an mpsc channel tagged with the
//! connection token and signal the wake, which pops the reactor out of its
//! wait to append the bytes to that connection's write buffer.
//!
//! Lifecycle invariants:
//!
//! * Every decoded message owes exactly one reply through the channel
//!   (`Conn::awaiting` counts them), so a half-closed connection is held
//!   open until its last reply has been flushed — pipelined clients can
//!   `shutdown(WR)` after their final request and still collect everything.
//! * The reactor exits only when shutdown is flagged AND the admission
//!   queue is drained AND the server-wide live-item count
//!   ([`Shared::pending`]) is zero AND every write buffer is flushed.
//!   `pending` is decremented by `WorkItem::Drop` *after* the reply is
//!   sent, so "pending == 0" proves every reply is already in the channel
//!   — the final drain below cannot lose one.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

use tpm_alloc::PooledBuf;
use tpm_sync::epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

use crate::engine::{self, Transport};
use crate::server::{handle_frame, ReplySink, Shared};
use crate::wire::Decoder;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// A write buffer past this mark means the client has stopped reading while
/// we keep producing; drop the connection rather than buffer unboundedly.
const MAX_WRITE_BUFFER: usize = 16 << 20;

/// Stop `memmove`-compacting the write buffer below this much consumed
/// prefix; small flushed prefixes are reclaimed for free once the buffer
/// fully drains.
const COMPACT_THRESHOLD: usize = 64 << 10;

struct Conn {
    token: u64,
    stream: TcpStream,
    peer: String,
    decoder: Decoder,
    /// Pending outbound bytes; `wpos..` is unwritten.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The event set currently armed in the epoll interest list.
    armed: u32,
    /// Replies owed by the worker pool (one per decoded message).
    awaiting: usize,
    /// No more reads: EOF, half-close, or a corrupt stream. The connection
    /// closes once `awaiting` drains and `wbuf` flushes.
    closing: bool,
    /// Unusable (IO error): close immediately, abandoning unflushed output.
    broken: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn done(&self) -> bool {
        self.broken || (self.closing && self.awaiting == 0 && self.flushed())
    }

    fn desired_events(&self) -> u32 {
        let mut want = 0;
        if !self.closing {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.flushed() {
            want |= EPOLLOUT;
        }
        want
    }
}

/// The reactor thread body. Owns the (nonblocking) listener, the poller,
/// and the completion channel; runs until shutdown fully drains.
pub(crate) fn run(ep: &Epoll, listener: TcpListener, shared: &Arc<Shared>) {
    let wake = &shared.reactor_wake;
    if ep
        .add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
        .is_err()
        || ep.add_wake(wake, TOKEN_WAKE).is_err()
    {
        return;
    }
    let (tx, rx) = mpsc::channel();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![Event::zeroed(); 256];
    let mut chunk = vec![0u8; 16 << 10];
    // Sweep scratch, reused every iteration: the idle tick allocates
    // nothing.
    let mut dead = Vec::new();

    loop {
        // The 100 ms timeout is a backstop: the wake makes shutdown
        // and completions prompt, but a lost race is only ever a tick late.
        let n = match ep.wait(&mut events, 100) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
            Err(_) => break,
        };
        for ev in &events[..n] {
            match ev.data() {
                TOKEN_LISTENER => accept_ready(ep, &listener, shared, &mut conns, &mut next_token),
                TOKEN_WAKE => {
                    wake.drain();
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        on_conn_ready(conn, ev.events(), shared, &tx, &mut chunk);
                    }
                }
            }
        }
        drain_completions(&mut conns, &rx);
        sweep(ep, shared, &mut conns, &mut dead);

        if shared.shutdown.load(Ordering::SeqCst)
            && shared.queue.is_empty()
            && shared.pending.load(Ordering::SeqCst) == 0
        {
            // pending hit zero after our drain above may have missed its
            // reply; every send happens-before the decrement, so one more
            // drain now is guaranteed to see everything.
            drain_completions(&mut conns, &rx);
            sweep(ep, shared, &mut conns, &mut dead);
            if conns.values().all(Conn::flushed) {
                break;
            }
        }
    }
    // Remaining connections (clients that never disconnected) close here.
    for _ in conns.drain() {
        shared.metrics.conn_closed();
    }
}

fn accept_ready(
    ep: &Epoll,
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, addr)) => {
                // Post-shutdown arrivals are accepted and immediately dropped
                // so the listener never reports a stale pending accept.
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let armed = EPOLLIN | EPOLLRDHUP;
                if ep.add(stream.as_raw_fd(), token, armed).is_err() {
                    continue;
                }
                shared.metrics.conn_opened();
                conns.insert(
                    token,
                    Conn {
                        token,
                        stream,
                        peer: addr.ip().to_string(),
                        decoder: Decoder::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        armed,
                        awaiting: 0,
                        closing: false,
                        broken: false,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn on_conn_ready(
    conn: &mut Conn,
    events: u32,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<(u64, PooledBuf)>,
    chunk: &mut [u8],
) {
    if events & EPOLLERR != 0 {
        conn.broken = true;
        return;
    }
    // RDHUP/HUP still deliver any bytes queued ahead of the close; read to
    // EOF rather than dropping them.
    if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !conn.closing {
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    shared.metrics.add_bytes_read(n as u64);
                    conn.decoder.feed(&chunk[..n]);
                    pump_conn(conn, shared, tx);
                    if conn.closing {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
    }
    // EPOLLOUT needs no handling here: `sweep` flushes every connection
    // with buffered output each iteration.
}

/// The reactor's [`Transport`]: protocol-level replies (preamble echo,
/// corrupt-stream error) go straight into the connection's write buffer —
/// no worker, no channel.
struct WbufTransport<'a> {
    wbuf: &'a mut Vec<u8>,
}

impl Transport for WbufTransport<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }
}

/// Decodes and dispatches everything the connection's buffer holds.
fn pump_conn(conn: &mut Conn, shared: &Arc<Shared>, tx: &mpsc::Sender<(u64, PooledBuf)>) {
    // Split-borrow the connection: the transport owns the write buffer
    // while the frame callback reads the token/peer and counts replies owed.
    let Conn {
        token,
        peer,
        decoder,
        wbuf,
        awaiting,
        ..
    } = conn;
    let mut transport = WbufTransport { wbuf };
    let alive = engine::pump_session(decoder, &mut transport, |proto, parsed| {
        *awaiting += 1;
        let sink = ReplySink {
            conn: *token,
            proto,
            pool: Arc::clone(&shared.pool),
            tx: tx.clone(),
            wake: Arc::clone(&shared.reactor_wake),
        };
        handle_frame(parsed, shared, &sink, peer);
    });
    if !alive {
        // Framing is unrecoverable: the parse-error reply is already in the
        // write buffer; stop reading. Replies already owed still flush
        // before the close.
        conn.closing = true;
    }
}

fn drain_completions(conns: &mut HashMap<u64, Conn>, rx: &mpsc::Receiver<(u64, PooledBuf)>) {
    while let Ok((token, bytes)) = rx.try_recv() {
        // A missing token means the client disconnected mid-job; its reply
        // has nowhere to go. Either way `bytes` drops here, returning its
        // capacity to the pool.
        if let Some(conn) = conns.get_mut(&token) {
            conn.awaiting = conn.awaiting.saturating_sub(1);
            conn.wbuf.extend_from_slice(&bytes);
        }
    }
}

/// Per-iteration maintenance: flush buffered output, re-arm interest sets
/// that changed, and reap finished or broken connections.
fn sweep(ep: &Epoll, shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>, dead: &mut Vec<u64>) {
    dead.clear();
    for conn in conns.values_mut() {
        if !conn.broken {
            flush_conn(conn, shared);
        }
        if conn.done() {
            dead.push(conn.token);
            continue;
        }
        let want = conn.desired_events();
        if want != conn.armed && ep.modify(conn.stream.as_raw_fd(), conn.token, want).is_ok() {
            conn.armed = want;
        }
    }
    for token in dead.drain(..) {
        if let Some(conn) = conns.remove(&token) {
            let _ = ep.delete(conn.stream.as_raw_fd());
            shared.metrics.conn_closed();
        }
    }
}

fn flush_conn(conn: &mut Conn, shared: &Arc<Shared>) {
    if conn.wbuf.len() - conn.wpos > MAX_WRITE_BUFFER {
        // The client is not reading; cut it loose instead of buffering
        // toward OOM.
        conn.broken = true;
        return;
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.broken = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                shared.metrics.add_bytes_written(n as u64);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
    if conn.flushed() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > COMPACT_THRESHOLD {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}
