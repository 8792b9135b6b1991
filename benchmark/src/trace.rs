//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented here (that is ROADMAP item 4);
//! the benchmark times the calls it makes — client encode, socket wait,
//! client decode, and in the in-process replay decode → admit → run → encode
//! — and keeps one span per call in memory until the run ends. Spans of one
//! request share its id; a span names its parent, so a layer's self time is
//! its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `serve.wire.decode`.
    pub name: &'static str,
    /// The request (or grid cell visit) this span belongs to.
    pub id: u64,
    /// Name of the span that caused this one; empty for a root.
    pub parent: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Lane the span is drawn in (one per recording thread).
    pub lane: u32,
}

/// An in-memory span log for one thread; merged with [`Tracer::absorb`] and
/// written once, after the measured window.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lane: u32,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Self {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.record_ns(
            name,
            id,
            parent,
            self.ns(start),
            end.saturating_duration_since(start).as_nanos() as u64,
        );
    }

    /// Records a span from a start offset and a duration measured elsewhere
    /// (the server-reported execution time has no client-side instants).
    pub fn record_ns(
        &mut self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            dur_ns,
            lane: self.lane,
        });
    }

    /// Times `f` as one span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, id, parent, start, Instant::now());
        r
    }

    /// Moves another tracer's spans into this log, shifting them onto this
    /// log's origin (each measured window starts its own clock).
    pub fn absorb(&mut self, other: Tracer) {
        let later = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let earlier = self
            .origin
            .saturating_duration_since(other.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns = (s.start_ns + later).saturating_sub(earlier);
            s
        }));
    }
}

/// Per span name: how many were recorded, their total duration, and their
/// total self time (duration minus same-request children naming it parent).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus child durations, nanoseconds.
    pub self_ns: u64,
}

/// Self time per span name. A child is a span with the same request id
/// whose `parent` is the name; children of one parent do not overlap here
/// (each thread records its calls one after another), so subtraction is
/// exact.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        *child_ns.entry((s.parent, s.id)).or_default() += s.dur_ns;
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns;
        let children = child_ns.get(&(s.name, s.id)).copied().unwrap_or(0);
        e.self_ns += s.dur_ns.saturating_sub(children);
    }
    out
}

/// Writes the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// complete (`X`) events, microsecond timestamps, request id and parent in
/// `args`.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":\"{}\"}}}}{comma}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent,
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_request_only() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.record_ns("core.registry.run", 1, "", 0, 100);
        t.record_ns("kernels.alloc", 1, "core.registry.run", 0, 70);
        t.record_ns("kernels.body", 1, "core.registry.run", 70, 20);
        t.record_ns("core.registry.run", 2, "", 200, 50);
        t.record_ns("kernels.body", 2, "core.registry.run", 200, 45);
        let st = self_times(&t.spans);
        assert_eq!(
            st["core.registry.run"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 10 + 5
            }
        );
        assert_eq!(st["kernels.alloc"].self_ns, 70);
        assert_eq!(st["kernels.body"].total_ns, 65);
    }

    #[test]
    fn absorbed_spans_move_onto_the_absorbing_origin() {
        let origin = Instant::now();
        let mut run = Tracer::new(origin, 0);
        let mut window = Tracer::new(origin + std::time::Duration::from_micros(5), 1);
        window.record_ns("client.request", 1, "", 100, 10);
        run.absorb(window);
        assert_eq!((run.spans[0].start_ns, run.spans[0].lane), (5_100, 1));
    }
}
