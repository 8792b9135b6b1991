//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, matched by `id` (responses
//! may interleave across a connection's in-flight requests). A request either
//! names a job —
//!
//! ```json
//! {"id":1,"kernel":"matmul","model":"omp_for","size":256,"threads":2,"deadline_ms":500}
//! ```
//!
//! — or a control command (`{"cmd":"shutdown"}`, `{"cmd":"ping"}`). Responses
//! are `{"id":1,"ok":true,"value":…,"elapsed_ms":…,"queue_ms":…}` on success
//! and `{"id":1,"ok":false,"error":"<code>","message":…}` on failure, with
//! `error` one of `parse`, `overloaded`, `bad_config`, `deadline`,
//! `cancelled`, `panic`.

use tpm_core::{JobSpec, KernelVariant, Model};

use crate::json::{self, Json};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job; reply carries the same `id`.
    Run {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// What to run.
        spec: JobSpec,
        /// Per-request deadline; the job (queue wait included) is abandoned
        /// once it passes.
        deadline_ms: Option<u64>,
        /// Optional caller identity (tenant/client id) for distinct-client
        /// accounting. Connections without one are identified by peer
        /// address.
        client: Option<String>,
    },
    /// Liveness probe; replies `{"ok":true,"pong":true}`.
    Ping,
    /// Health probe; replies worker liveness and queue depth.
    Health,
    /// Metrics scrape; replies the full Prometheus text exposition.
    Metrics,
    /// Stop accepting work, drain the queue, exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let map = json::parse_object(line)?;
        if let Some(cmd) = map.get("cmd") {
            return match cmd.as_str() {
                Some("shutdown") => Ok(Request::Shutdown),
                Some("ping") => Ok(Request::Ping),
                Some("health") => Ok(Request::Health),
                Some("metrics") => Ok(Request::Metrics),
                _ => Err(format!("unknown cmd {cmd:?}")),
            };
        }
        let id = map
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("missing or invalid \"id\"")?;
        let kernel = map
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("missing \"kernel\"")?
            .to_string();
        let model = match map.get("model").and_then(Json::as_str) {
            None => Model::OmpFor,
            Some(name) => Model::parse(name).ok_or_else(|| format!("unknown model {name:?}"))?,
        };
        let variant = match map.get("variant").and_then(Json::as_str) {
            None => KernelVariant::Reference,
            Some(name) => {
                KernelVariant::parse(name).ok_or_else(|| format!("unknown variant {name:?}"))?
            }
        };
        let size = map
            .get("size")
            .and_then(Json::as_u64)
            .ok_or("missing or invalid \"size\"")? as usize;
        let threads = match map.get("threads") {
            None => 1,
            Some(v) => v.as_u64().ok_or("invalid \"threads\"")? as usize,
        };
        let deadline_ms = match map.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("invalid \"deadline_ms\"")?),
        };
        let client = map.get("client").and_then(Json::as_str).map(str::to_string);
        Ok(Request::Run {
            id,
            spec: JobSpec {
                kernel,
                model,
                variant,
                size,
                threads,
            },
            deadline_ms,
            client,
        })
    }

    /// Serializes a run request (used by the load generator and tests).
    pub fn run_line(id: u64, spec: &JobSpec, deadline_ms: Option<u64>) -> String {
        Self::run_line_as(id, spec, deadline_ms, None)
    }

    /// [`run_line`](Self::run_line) with an explicit client identity.
    pub fn run_line_as(
        id: u64,
        spec: &JobSpec,
        deadline_ms: Option<u64>,
        client: Option<&str>,
    ) -> String {
        let mut line = format!(
            "{{\"id\":{},\"kernel\":\"{}\",\"model\":\"{}\",\"variant\":\"{}\",\"size\":{},\"threads\":{}",
            id,
            json::escape(&spec.kernel),
            spec.model.name(),
            spec.variant.name(),
            spec.size,
            spec.threads,
        );
        if let Some(ms) = deadline_ms {
            line.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        if let Some(c) = client {
            line.push_str(&format!(",\"client\":\"{}\"", json::escape(c)));
        }
        line.push('}');
        line
    }
}

/// A response line, before serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job completed.
    Ok {
        /// Echo of the request id.
        id: u64,
        /// Kernel-defined scalar output.
        value: f64,
        /// Kernel body time (`JobResult::elapsed`): the timed parallel
        /// region only, input lookup/generation excluded.
        elapsed_ms: f64,
        /// Time spent queued before a worker picked the job up.
        queue_ms: f64,
    },
    /// The job failed or was refused.
    Error {
        /// Echo of the request id (absent for unparseable lines).
        id: Option<u64>,
        /// Stable machine-readable code (`deadline`, `overloaded`, …).
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `health`: worker liveness and load, for monitoring.
    Health {
        /// Workers currently able to take jobs.
        live_workers: u64,
        /// Worker-death incidents observed (each healed by a respawn).
        dead_workers: u64,
        /// Jobs waiting in the admission queue right now.
        queue_depth: u64,
        /// Jobs currently executing on a worker.
        inflight: u64,
        /// Jobs admitted since startup (compact RED snapshot).
        admitted: u64,
        /// Jobs completed successfully since startup.
        completed: u64,
        /// Requests the node answered `overloaded`/`deadline` itself since
        /// startup, as one sum: refused at admission for load **plus**
        /// executing jobs the watchdog gave up on past their deadline grace
        /// (`shed + watchdog_shed` of the node's counters). Built only by
        /// [`engine::health`](crate::engine::health), so every node means
        /// the same sum.
        shed: u64,
        /// Estimated distinct clients seen (HLL sketch; ~1% error).
        distinct_clients: u64,
    },
    /// Reply to `metrics`: the full Prometheus text exposition, carried as
    /// one escaped JSON string so the one-line-per-response framing holds.
    Metrics {
        /// Prometheus text exposition format, newlines and all.
        exposition: String,
    },
    /// Reply to `shutdown`: the server stops accepting and drains.
    ShuttingDown,
}

/// Error code for lines that could not be parsed at all.
pub const CODE_PARSE: &str = "parse";
/// Error code for admission-queue overflow (load shedding).
pub const CODE_OVERLOADED: &str = "overloaded";
/// Error code for failures injected by an active fault plan (`tpm-fault`):
/// distinguishable from organic `panic` so chaos runs can tell them apart.
pub const CODE_INJECTED: &str = "injected";

impl Response {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Ok {
                id,
                value,
                elapsed_ms,
                queue_ms,
            } => format!(
                "{{\"id\":{},\"ok\":true,\"value\":{},\"elapsed_ms\":{},\"queue_ms\":{}}}",
                id,
                json::num(*value),
                json::num(*elapsed_ms),
                json::num(*queue_ms),
            ),
            Response::Error { id, code, message } => {
                let id_part = match id {
                    Some(id) => format!("\"id\":{id},"),
                    None => String::new(),
                };
                format!(
                    "{{{}\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}",
                    id_part,
                    code,
                    json::escape(message),
                )
            }
            Response::Pong => "{\"ok\":true,\"pong\":true}".to_string(),
            Response::Health {
                live_workers,
                dead_workers,
                queue_depth,
                inflight,
                admitted,
                completed,
                shed,
                distinct_clients,
            } => format!(
                "{{\"ok\":true,\"health\":true,\"live_workers\":{live_workers},\
                 \"dead_workers\":{dead_workers},\"queue_depth\":{queue_depth},\
                 \"inflight\":{inflight},\"admitted\":{admitted},\
                 \"completed\":{completed},\"shed\":{shed},\
                 \"distinct_clients\":{distinct_clients}}}"
            ),
            Response::Metrics { exposition } => format!(
                "{{\"ok\":true,\"metrics\":true,\"exposition\":\"{}\"}}",
                json::escape(exposition),
            ),
            Response::ShuttingDown => "{\"ok\":true,\"shutdown\":true}".to_string(),
        }
    }

    /// Parses a response line (load generator / client side).
    pub fn parse(line: &str) -> Result<Response, String> {
        let map = json::parse_object(line)?;
        let ok = match map.get("ok") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing \"ok\"".to_string()),
        };
        if ok {
            if map.contains_key("pong") {
                return Ok(Response::Pong);
            }
            if map.contains_key("health") {
                let field = |name: &str| map.get(name).and_then(Json::as_u64).unwrap_or(0);
                return Ok(Response::Health {
                    live_workers: field("live_workers"),
                    dead_workers: field("dead_workers"),
                    queue_depth: field("queue_depth"),
                    inflight: field("inflight"),
                    admitted: field("admitted"),
                    completed: field("completed"),
                    shed: field("shed"),
                    distinct_clients: field("distinct_clients"),
                });
            }
            if map.contains_key("metrics") {
                return Ok(Response::Metrics {
                    exposition: map
                        .get("exposition")
                        .and_then(Json::as_str)
                        .ok_or("missing exposition")?
                        .to_string(),
                });
            }
            if map.contains_key("shutdown") {
                return Ok(Response::ShuttingDown);
            }
            Ok(Response::Ok {
                id: map.get("id").and_then(Json::as_u64).ok_or("missing id")?,
                value: map.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                elapsed_ms: map
                    .get("elapsed_ms")
                    .and_then(Json::as_f64)
                    .ok_or("missing elapsed_ms")?,
                queue_ms: map.get("queue_ms").and_then(Json::as_f64).unwrap_or(0.0),
            })
        } else {
            let code = match map.get("error").and_then(Json::as_str) {
                Some("parse") => CODE_PARSE,
                Some("overloaded") => CODE_OVERLOADED,
                Some("bad_config") => "bad_config",
                Some("deadline") => "deadline",
                Some("cancelled") => "cancelled",
                Some("panic") => "panic",
                Some("injected") => CODE_INJECTED,
                other => return Err(format!("unknown error code {other:?}")),
            };
            Ok(Response::Error {
                id: map.get("id").and_then(Json::as_u64),
                code,
                message: map
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let spec = JobSpec {
            kernel: "matmul".to_string(),
            model: Model::CilkFor,
            variant: KernelVariant::Optimized,
            size: 256,
            threads: 4,
        };
        let line = Request::run_line(9, &spec, Some(500));
        assert_eq!(
            Request::parse(&line).unwrap(),
            Request::Run {
                id: 9,
                spec: spec.clone(),
                deadline_ms: Some(500),
                client: None,
            }
        );
        let line = Request::run_line_as(9, &spec, None, Some("tenant-a"));
        match Request::parse(&line).unwrap() {
            Request::Run { client, .. } => assert_eq!(client.as_deref(), Some("tenant-a")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn defaults_apply() {
        let r = Request::parse(r#"{"id":1,"kernel":"sum","size":10}"#).unwrap();
        match r {
            Request::Run {
                spec, deadline_ms, ..
            } => {
                assert_eq!(spec.model, Model::OmpFor);
                assert_eq!(spec.variant, KernelVariant::Reference);
                assert_eq!(spec.threads, 1);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(Request::parse(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(Request::parse(r#"{"cmd":"health"}"#), Ok(Request::Health));
        assert_eq!(Request::parse(r#"{"cmd":"metrics"}"#), Ok(Request::Metrics));
        assert!(Request::parse(r#"{"cmd":"reboot"}"#).is_err());
    }

    #[test]
    fn bad_requests_are_errors() {
        for bad in [
            r#"{"kernel":"sum","size":10}"#,                      // no id
            r#"{"id":1,"size":10}"#,                              // no kernel
            r#"{"id":1,"kernel":"sum"}"#,                         // no size
            r#"{"id":1,"kernel":"sum","size":10,"model":"omp"}"#, // bad model
            r#"{"id":-1,"kernel":"sum","size":10}"#,              // negative id
            "not json",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::Ok {
                id: 3,
                value: 1.5,
                elapsed_ms: 2.25,
                queue_ms: 0.5,
            },
            Response::Error {
                id: Some(4),
                code: "deadline",
                message: "deadline expired".to_string(),
            },
            Response::Error {
                id: None,
                code: CODE_PARSE,
                message: "bad line".to_string(),
            },
            Response::Error {
                id: Some(7),
                code: CODE_INJECTED,
                message: "injected panic at job-admission".to_string(),
            },
            Response::Pong,
            Response::Health {
                live_workers: 2,
                dead_workers: 1,
                queue_depth: 3,
                inflight: 2,
                admitted: 40,
                completed: 35,
                shed: 2,
                distinct_clients: 4,
            },
            Response::Metrics {
                exposition: "# TYPE a counter\na 1\n".to_string(),
            },
            Response::ShuttingDown,
        ] {
            assert_eq!(Response::parse(&r.to_line()), Ok(r.clone()), "{r:?}");
        }
    }

    #[test]
    fn exec_errors_map_to_codes() {
        let line = Response::Error {
            id: Some(1),
            code: tpm_core::ExecError::Deadline.code(),
            message: String::new(),
        }
        .to_line();
        assert!(line.contains("\"error\":\"deadline\""), "{line}");
    }
}
