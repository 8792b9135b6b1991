//! Chrome-trace (Trace Event Format) JSON export.
//!
//! The output is the JSON-object form (`{"traceEvents": [...]}`) understood
//! by Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Region
//! begin/end events become duration (`B`/`E`) phases; everything else becomes
//! a thread-scoped instant (`i`). Each worker gets its own `tid` with a
//! `thread_name` metadata record.

use std::fmt::Write as _;

use tpm_sync::json;

use crate::event::EventKind;
use crate::session::Trace;

/// Serializes a [`Trace`] as Chrome-trace JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 * 1024 + trace.total_events() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, worker) in trace.workers.iter().enumerate() {
        let tid = tid as u64 + 1;
        push_event(&mut out, &mut first, |o| {
            let _ = write!(
                o,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(&worker.name)
            );
        });
        // Unbalanced region stack protection: if the trace window cut a span
        // in half, emit the missing end at the session boundary so B/E pairs
        // stay matched and the file stays loadable.
        let mut open_regions: u32 = 0;
        for ev in &worker.events {
            let ts_us = micros(ev.ts_ns.saturating_sub(trace.started_ns));
            match ev.kind {
                EventKind::RegionBegin => {
                    open_regions += 1;
                    let name = crate::resolve(ev.a).unwrap_or("region");
                    push_event(&mut out, &mut first, |o| {
                        let _ = write!(
                            o,
                            "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us}}}",
                            json::escape(name)
                        );
                    });
                }
                EventKind::RegionEnd => {
                    if open_regions == 0 {
                        continue; // begin fell outside the window; skip
                    }
                    open_regions -= 1;
                    push_event(&mut out, &mut first, |o| {
                        let _ =
                            write!(o, "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us}}}");
                    });
                }
                kind => {
                    push_event(&mut out, &mut first, |o| {
                        let _ = write!(
                            o,
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                             \"tid\":{tid},\"ts\":{ts_us},\
                             \"args\":{{\"a\":{},\"b\":{}}}}}",
                            kind.name(),
                            ev.a,
                            ev.b
                        );
                    });
                }
            }
        }
        for _ in 0..open_regions {
            let ts_us = micros(trace.duration_ns());
            push_event(&mut out, &mut first, |o| {
                let _ = write!(o, "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us}}}");
            });
        }
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, f: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    f(out);
}

/// Nanoseconds → microseconds with sub-µs precision, rendered without
/// trailing zeros ambiguity (always three decimals).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::session::WorkerTrace;

    fn sample_trace() -> Trace {
        let name_id = crate::intern("test-span");
        Trace {
            workers: vec![WorkerTrace {
                name: "w\"0\"".into(),
                dropped: 0,
                events: vec![
                    Event {
                        ts_ns: 100,
                        kind: EventKind::RegionBegin,
                        a: name_id,
                        b: 0,
                    },
                    Event {
                        ts_ns: 1_500,
                        kind: EventKind::Steal,
                        a: 3,
                        b: 0,
                    },
                    Event {
                        ts_ns: 2_000,
                        kind: EventKind::RegionEnd,
                        a: name_id,
                        b: 0,
                    },
                ],
            }],
            started_ns: 0,
            stopped_ns: 5_000,
        }
    }

    #[test]
    fn emits_balanced_b_e_and_instants() {
        let json = to_chrome_json(&sample_trace());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"name\":\"test-span\""));
        // Escaped worker name survives.
        assert!(json.contains("w\\\"0\\\""));
    }

    #[test]
    fn closes_spans_cut_by_the_window() {
        let mut trace = sample_trace();
        trace.workers[0].events.pop(); // drop the RegionEnd
        let json = to_chrome_json(&trace);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn skips_end_without_begin() {
        let mut trace = sample_trace();
        trace.workers[0].events.remove(0); // drop the RegionBegin
        let json = to_chrome_json(&trace);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
    }

    #[test]
    fn micros_formats_sub_microsecond() {
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(7), "0.007");
        assert_eq!(micros(1_000_000), "1000.000");
    }
}
