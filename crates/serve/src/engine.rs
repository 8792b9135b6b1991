//! Transport-independent service state machines and the reply vocabulary.
//!
//! The reactor data path and the deterministic simulator (`tpm-desim`) run
//! the code in this module — not copies of it:
//!
//! * [`Transport`] — the one thing a driver must provide: a way to queue
//!   bytes toward the peer. The reactor appends to the connection's write
//!   buffer; the simulator schedules a virtual-network delivery.
//! * [`pump_session`] — the decode loop over a [`Decoder`]: answers
//!   preambles, surfaces complete frames to the caller, and on a corrupt
//!   stream sends the parse-error reply itself and asks for a close.
//! * [`admit`] — the pre-queue admission decision for a `run` request
//!   (thread-limit check, spec validation, deadline resolution).
//! * [`Reply`] — every reply the service can produce for a request, built
//!   in one place *together with* the counter [`Bucket`] and the outcome
//!   label it lands in; [`health`] does the same for the `health` reply.
//!   A driver applies a `Reply` to its own transport, stats struct and log;
//!   it builds no error reply and picks no counter itself.
//! * [`ReplyGate`] — the exactly-one-reply claim shared by worker, watchdog,
//!   shed path, and drop backstop.
//! * [`kill_offset`] — the watchdog's hard-kill margin past a deadline.
//!
//! What is *not* here, on purpose: scheduling. When a job starts, how long
//! it runs, when the watchdog looks and when a worker dies are real threads
//! and `Instant` in `server.rs` and virtual workers on a virtual clock in
//! the simulator. Both ask this module what to say once they know what
//! happened.

use crate::protocol::{Request, Response, CODE_INJECTED, CODE_OVERLOADED, CODE_PARSE};
use crate::wire::{self, Decoder, Step};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpm_core::{ExecError, JobRegistry, JobSpec};
use tpm_fault::{FaultKind, Site};

/// The byte-output half of a connection, as the engine sees it.
///
/// Implementations must preserve ordering: bytes sent earlier reach the
/// peer earlier (per connection).
pub trait Transport {
    /// Queues `bytes` for delivery to the peer.
    fn send_bytes(&mut self, bytes: &[u8]);
}

/// Drains every decodable message out of `decoder`, sending protocol-level
/// replies (preamble echo, corrupt-stream error) through `transport` and
/// handing each complete frame to `on_frame` along with the connection's
/// sniffed protocol (fixed by the time the first frame decodes).
///
/// Returns `false` when the framing layer is lost — the parse-error reply
/// has already been sent and the caller must close the connection.
pub fn pump_session(
    decoder: &mut Decoder,
    transport: &mut dyn Transport,
    mut on_frame: impl FnMut(crate::wire::Protocol, Result<Request, String>),
) -> bool {
    loop {
        match decoder.next() {
            Step::NeedMore => return true,
            Step::Preamble(version) => {
                transport.send_bytes(&wire::server_preamble(Decoder::negotiate(version)));
            }
            Step::Message(parsed) => {
                let proto = decoder.protocol().unwrap_or_default();
                on_frame(proto, parsed);
            }
            Step::Corrupt(message) => {
                let proto = decoder.protocol().unwrap_or_default();
                let mut buf = Vec::new();
                wire::encode_response_into(proto, &Reply::unparsed(message).response, &mut buf);
                transport.send_bytes(&buf);
                return false;
            }
        }
    }
}

/// The admission-relevant slice of the server configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Upper bound on `spec.threads` a request may ask for.
    pub max_threads: usize,
    /// Deadline applied when the request carries none.
    pub default_deadline_ms: Option<u64>,
}

/// What [`admit`] decided for one `run` request.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Admit, with the resolved deadline budget (request's own, or the
    /// server default).
    Accept {
        /// Deadline budget in milliseconds; `None` means unbounded.
        deadline_ms: Option<u64>,
    },
    /// Refuse before the queue. `shed` selects the shed counter over the
    /// failed counter.
    Refuse {
        /// Wire error code for the refusal reply.
        code: &'static str,
        /// Human-readable refusal message.
        message: String,
        /// True when this is load shedding rather than a bad request.
        shed: bool,
    },
}

/// The pre-queue admission decision for a `run` request: thread-limit
/// check, then spec validation, then deadline resolution. Queue capacity is
/// deliberately *not* checked here — that decision belongs to the queue
/// push itself ([`Reply::queue_full`]).
pub fn admit(
    registry: &JobRegistry,
    policy: &AdmissionPolicy,
    spec: &JobSpec,
    deadline_ms: Option<u64>,
) -> Admission {
    if spec.threads > policy.max_threads {
        return Admission::Refuse {
            code: "bad_config",
            message: format!(
                "threads {} exceeds server limit {}",
                spec.threads, policy.max_threads
            ),
            shed: false,
        };
    }
    if let Err(e) = registry.validate(spec) {
        return Admission::Refuse {
            code: e.code(),
            message: e.to_string(),
            shed: false,
        };
    }
    Admission::Accept {
        deadline_ms: deadline_ms.or(policy.default_deadline_ms),
    }
}

impl Admission {
    /// Splits the decision into the resolved deadline budget (admit) or the
    /// refusal [`Reply`] for request `id`.
    pub fn resolve(self, id: u64) -> Result<Option<u64>, Reply> {
        match self {
            Admission::Accept { deadline_ms } => Ok(deadline_ms),
            Admission::Refuse {
                code,
                message,
                shed,
            } => Err(Reply::error(
                Some(id),
                code,
                message,
                if shed { Bucket::Shed } else { Bucket::Refused },
            )),
        }
    }
}

/// The request counter a reply is counted in. Every reply lands in exactly
/// one bucket, so `admitted == completed + failed + watchdog_shed` (the
/// conservation identity the simulator audits) is a property of this
/// vocabulary rather than of each driver's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// An admitted job that ran and was answered `ok`.
    Completed,
    /// An admitted job answered with an error: job error, deadline, a
    /// contained panic, or the drop backstop.
    Failed,
    /// Refused before the queue for a reason other than load: a bad
    /// request, or a fault at the admission site. The server has no counter
    /// of its own for these and folds them into `failed`; the simulator
    /// keeps them apart.
    Refused,
    /// Refused before the queue for load: queue full or closed, or an
    /// injected admission shed.
    Shed,
    /// An executing job the watchdog answered for, past its deadline grace.
    WatchdogShed,
    /// Not a request at all — bytes that did not parse. Counted by no
    /// request counter (the simulator tallies `parse_errors`).
    Unparsed,
}

/// How a job picked up by a worker ended, as the driver observed it.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// `JobRegistry::run` returned a value.
    Done {
        /// Kernel-defined scalar output.
        value: f64,
        /// Kernel body time, milliseconds.
        elapsed_ms: f64,
    },
    /// `JobRegistry::run` returned an error (deadline, cancellation, a
    /// panic the runtime contained, a bad spec).
    Failed(ExecError),
    /// A panic escaped the runtime and was contained by the worker; the
    /// payload's message.
    Panicked(String),
}

/// One reply, with where it is counted: the wire [`Response`], the stats
/// [`Bucket`], and the `outcome` label for request metrics and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// What goes on the wire.
    pub response: Response,
    /// Which request counter it increments.
    pub bucket: Bucket,
    /// The `tpm_requests_total{outcome=…}` label: `ok`, the wire error
    /// code, or `watchdog`.
    pub outcome: &'static str,
}

impl Reply {
    fn error(id: Option<u64>, code: &'static str, message: String, bucket: Bucket) -> Self {
        Self {
            response: Response::Error { id, code, message },
            bucket,
            outcome: code,
        }
    }

    /// A panic payload's wire code: `injected` when it came from an active
    /// fault plan, `panic` when it is organic.
    fn panic_code(message: &str) -> &'static str {
        if tpm_fault::is_injected_message(message) {
            CODE_INJECTED
        } else {
            "panic"
        }
    }

    /// Bytes that did not parse as a request. Legitimately id-less.
    #[must_use]
    pub fn unparsed(message: String) -> Self {
        Self::error(None, CODE_PARSE, message, Bucket::Unparsed)
    }

    /// A panic contained while dispatching a decoded message — in practice
    /// the job-admission fault site. `id` is the `run` request's id when the
    /// message was one (it was already decoded, so the reply carries it).
    #[must_use]
    pub fn admission_panic(id: Option<u64>, message: String) -> Self {
        Self::error(id, Self::panic_code(&message), message, Bucket::Refused)
    }

    /// The reply for a fault-plan decision at the job-admission site, or
    /// `None` when `kind` is inert there. A `Panic` yields exactly what
    /// [`admission_panic`](Self::admission_panic) yields for the payload
    /// `tpm_fault::injected_panic` unwinds with, so a driver that really
    /// panics (the server) and one that only decides (the simulator) say
    /// the same thing.
    #[must_use]
    pub fn admission_fault(id: u64, kind: FaultKind) -> Option<Self> {
        match kind {
            FaultKind::Panic | FaultKind::TaskDrop => Some(Self::admission_panic(
                Some(id),
                tpm_fault::injected_payload(kind, Site::JobAdmission),
            )),
            FaultKind::StealMiss => Some(Self::error(
                Some(id),
                CODE_OVERLOADED,
                "injected admission shed".to_string(),
                Bucket::Shed,
            )),
            FaultKind::Delay | FaultKind::Duplicate | FaultKind::Partition => None,
        }
    }

    /// The admission queue was full, or already closed for the drain.
    #[must_use]
    pub fn queue_full(id: u64) -> Self {
        Self::error(
            Some(id),
            CODE_OVERLOADED,
            "admission queue full".to_string(),
            Bucket::Shed,
        )
    }

    /// The job's deadline passed while it sat in the queue. The server
    /// never calls this: it hands the expired token to `JobRegistry::run`,
    /// whose up-front check returns [`ExecError::Deadline`], and reports
    /// that through [`finished`](Self::finished) — which is what this is.
    /// The simulator reads its virtual clock instead of a token, so it
    /// needs the name.
    #[must_use]
    pub fn expired_in_queue(id: u64) -> Self {
        Self::finished(id, JobOutcome::Failed(ExecError::Deadline), 0.0)
    }

    /// A worker finished (or gave up on) job `id` after it waited
    /// `queue_ms` in the queue.
    #[must_use]
    pub fn finished(id: u64, outcome: JobOutcome, queue_ms: f64) -> Self {
        match outcome {
            JobOutcome::Done { value, elapsed_ms } => Self {
                response: Response::Ok {
                    id,
                    value,
                    elapsed_ms,
                    queue_ms,
                },
                bucket: Bucket::Completed,
                outcome: "ok",
            },
            JobOutcome::Failed(e) => Self::error(Some(id), e.code(), e.to_string(), Bucket::Failed),
            JobOutcome::Panicked(message) => Self::error(
                Some(id),
                Self::panic_code(&message),
                message,
                Bucket::Failed,
            ),
        }
    }

    /// The watchdog gave up on an executing job past its deadline grace.
    #[must_use]
    pub fn watchdog_shed(id: u64) -> Self {
        Self {
            outcome: "watchdog",
            ..Self::error(
                Some(id),
                "deadline",
                "shed by watchdog: exceeded deadline grace".to_string(),
                Bucket::WatchdogShed,
            )
        }
    }

    /// The drop backstop: a request dropped unanswered (its worker died
    /// between pickup and reply) still costs exactly one error reply.
    #[must_use]
    pub fn dropped(id: u64) -> Self {
        Self::error(
            Some(id),
            "panic",
            "request dropped without a reply".to_string(),
            Bucket::Failed,
        )
    }
}

/// The node's state as the `health` reply reports it — one view type so the
/// server and the simulator cannot disagree about what a field means.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthView {
    /// Workers currently able to take jobs.
    pub live_workers: u64,
    /// Worker-death incidents observed.
    pub dead_workers: u64,
    /// Jobs waiting in the admission queue.
    pub queue_depth: u64,
    /// Jobs executing on a worker.
    pub inflight: u64,
    /// Requests admitted to the queue since startup.
    pub admitted: u64,
    /// Replies counted [`Bucket::Completed`].
    pub completed: u64,
    /// Replies counted [`Bucket::Shed`].
    pub shed: u64,
    /// Replies counted [`Bucket::WatchdogShed`].
    pub watchdog_shed: u64,
    /// Estimated distinct clients seen.
    pub distinct_clients: u64,
}

/// Builds the `health` reply. The wire field `shed` is every request the
/// node answered for instead of a worker finishing it:
/// `shed + watchdog_shed`.
#[must_use]
pub fn health(view: &HealthView) -> Response {
    Response::Health {
        live_workers: view.live_workers,
        dead_workers: view.dead_workers,
        queue_depth: view.queue_depth,
        inflight: view.inflight,
        admitted: view.admitted,
        completed: view.completed,
        shed: view.shed + view.watchdog_shed,
        distinct_clients: view.distinct_clients,
    }
}

/// How far past a request's deadline the watchdog lets it run before the
/// hard kill: `(grace − 1) × budget`, floored at zero. The kill point is
/// `deadline + kill_offset(budget, grace)`.
#[must_use]
pub fn kill_offset(budget: Duration, grace: f64) -> Duration {
    budget.mul_f64((grace - 1.0).max(0.0))
}

/// The exactly-one-reply claim for a request. Whoever [`claim`]s first —
/// worker, watchdog, shed path, or drop backstop — owns the reply; everyone
/// else must stay silent.
///
/// [`claim`]: ReplyGate::claim
#[derive(Debug, Clone, Default)]
pub struct ReplyGate(Arc<AtomicBool>);

impl ReplyGate {
    /// An unclaimed gate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to claim the reply. Returns `true` exactly once across all
    /// clones — the caller that gets `true` sends the reply.
    pub fn claim(&self) -> bool {
        !self.0.swap(true, Ordering::SeqCst)
    }

    /// True once someone has claimed the reply.
    #[must_use]
    pub fn is_claimed(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Protocol;
    use tpm_core::{KernelVariant, Model};

    #[derive(Default)]
    struct VecTransport(Vec<Vec<u8>>);
    impl Transport for VecTransport {
        fn send_bytes(&mut self, bytes: &[u8]) {
            self.0.push(bytes.to_vec());
        }
    }

    fn test_registry() -> JobRegistry {
        let mut r = JobRegistry::new();
        r.register("sum", "echoes the size", 1 << 20, |ctx| {
            Ok(ctx.spec.size as f64)
        });
        r
    }

    fn spec(threads: usize) -> JobSpec {
        JobSpec {
            kernel: "sum".to_string(),
            model: Model::OmpFor,
            variant: KernelVariant::Reference,
            size: 64,
            threads,
        }
    }

    #[test]
    fn pump_answers_preamble_and_surfaces_frames() {
        let mut d = Decoder::new();
        d.feed(&wire::client_preamble(1));
        d.feed(&wire::encode_request(Protocol::Binary, &Request::Ping));
        let mut t = VecTransport::default();
        let mut frames = Vec::new();
        let alive = pump_session(&mut d, &mut t, |proto, f| frames.push((proto, f)));
        assert!(alive);
        assert_eq!(t.0, vec![wire::server_preamble(1).to_vec()]);
        assert_eq!(frames, vec![(Protocol::Binary, Ok(Request::Ping))]);
    }

    #[test]
    fn pump_replies_and_closes_on_corrupt_stream() {
        let mut d = Decoder::new();
        d.feed(&wire::client_preamble(1));
        d.feed(&0u32.to_le_bytes()); // zero-length frame: framing lost
        let mut t = VecTransport::default();
        let alive = pump_session(&mut d, &mut t, |_, _| panic!("no frame expected"));
        assert!(!alive);
        assert_eq!(t.0.len(), 2, "preamble echo then parse-error reply");
        let err = String::from_utf8_lossy(&t.0[1]).to_string();
        assert!(err.contains("frame length") || !err.is_empty());
    }

    #[test]
    fn admit_enforces_thread_limit_then_validation_then_deadline_default() {
        let reg = test_registry();
        let policy = AdmissionPolicy {
            max_threads: 4,
            default_deadline_ms: Some(250),
        };
        match admit(&reg, &policy, &spec(8), None) {
            Admission::Refuse { code, shed, .. } => {
                assert_eq!(code, "bad_config");
                assert!(!shed);
            }
            other => panic!("{other:?}"),
        }
        let mut unknown = spec(2);
        unknown.kernel = "nope".to_string();
        assert!(matches!(
            admit(&reg, &policy, &unknown, None),
            Admission::Refuse { .. }
        ));
        assert_eq!(
            admit(&reg, &policy, &spec(2), None),
            Admission::Accept {
                deadline_ms: Some(250)
            }
        );
        assert_eq!(
            admit(&reg, &policy, &spec(2), Some(50)),
            Admission::Accept {
                deadline_ms: Some(50)
            }
        );
    }

    type Pins<'a> = (Option<u64>, &'a str, &'a str, Bucket, &'a str);

    /// One row per error-reply constructor, pinning `(id, code, message,
    /// bucket, outcome label)`. The simulator's event log prints the label
    /// and its report the bucket totals, so this table is what keeps
    /// `desim` reports byte-identical across refactors.
    #[test]
    fn every_error_constructor_pins_id_code_message_bucket_and_label() {
        use Bucket::*;
        let admit_panic = "injected panic at job-admission";
        let admit_drop = "injected task-drop at job-admission";
        let exec_panic = "injected panic at task-exec";
        let finished = |outcome| Reply::finished(8, outcome, 0.0);
        let refuse = |shed| Admission::Refuse {
            code: "bad_config",
            message: "no".into(),
            shed,
        };
        #[rustfmt::skip]
        let table: Vec<(Reply, Pins<'_>)> = vec![
            (Reply::unparsed("bad json".into()), (None, "parse", "bad json", Unparsed, "parse")),
            (Reply::admission_panic(Some(7), admit_panic.into()), (Some(7), "injected", admit_panic, Refused, "injected")),
            (Reply::admission_panic(None, "index out of bounds".into()), (None, "panic", "index out of bounds", Refused, "panic")),
            (Reply::admission_fault(3, FaultKind::Panic).unwrap(), (Some(3), "injected", admit_panic, Refused, "injected")),
            (Reply::admission_fault(3, FaultKind::TaskDrop).unwrap(), (Some(3), "injected", admit_drop, Refused, "injected")),
            (Reply::admission_fault(3, FaultKind::StealMiss).unwrap(), (Some(3), "overloaded", "injected admission shed", Shed, "overloaded")),
            (refuse(false).resolve(4).unwrap_err(), (Some(4), "bad_config", "no", Refused, "bad_config")),
            (refuse(true).resolve(4).unwrap_err(), (Some(4), "bad_config", "no", Shed, "bad_config")),
            (Reply::queue_full(5), (Some(5), "overloaded", "admission queue full", Shed, "overloaded")),
            (Reply::expired_in_queue(6), (Some(6), "deadline", "deadline expired", Failed, "deadline")),
            (finished(JobOutcome::Failed(ExecError::Cancelled)), (Some(8), "cancelled", "cancelled", Failed, "cancelled")),
            (finished(JobOutcome::Failed(ExecError::Panic("boom".into()))), (Some(8), "panic", "execution panicked: boom", Failed, "panic")),
            (finished(JobOutcome::Panicked("boom".into())), (Some(8), "panic", "boom", Failed, "panic")),
            (finished(JobOutcome::Panicked(exec_panic.into())), (Some(8), "injected", exec_panic, Failed, "injected")),
            (Reply::watchdog_shed(9), (Some(9), "deadline", "shed by watchdog: exceeded deadline grace", WatchdogShed, "watchdog")),
            (Reply::dropped(10), (Some(10), "panic", "request dropped without a reply", Failed, "panic")),
        ];
        for (reply, want) in &table {
            let Response::Error { id, code, message } = &reply.response else {
                panic!("not an error reply: {reply:?}");
            };
            let got = (*id, *code, message.as_str(), reply.bucket, reply.outcome);
            assert_eq!(got, *want);
        }
    }

    #[test]
    fn a_decided_admission_fault_equals_the_unwound_one() {
        // What the server's containment builds from the real panic payload
        // is what the simulator gets from the decision alone.
        for kind in [FaultKind::Panic, FaultKind::TaskDrop] {
            let payload = tpm_fault::injected_payload(kind, Site::JobAdmission);
            assert_eq!(
                Reply::admission_fault(3, kind),
                Some(Reply::admission_panic(Some(3), payload))
            );
        }
        for inert in [FaultKind::Delay, FaultKind::Duplicate, FaultKind::Partition] {
            assert_eq!(Reply::admission_fault(3, inert), None);
        }
    }

    #[test]
    fn expired_in_queue_is_what_running_an_expired_token_yields() {
        // The server's path to the same reply: the registry's up-front
        // token check.
        let token = tpm_sync::CancelToken::with_deadline(Duration::ZERO);
        let run = test_registry().run(&tpm_core::Executor::new(2), &spec(2), &token);
        let outcome = JobOutcome::Failed(run.unwrap_err());
        assert_eq!(Reply::finished(6, outcome, 0.0), Reply::expired_in_queue(6));
    }

    #[test]
    fn finished_ok_and_accepted_admission_carry_their_values_through() {
        let done = JobOutcome::Done {
            value: 2.5,
            elapsed_ms: 0.25,
        };
        let want = Reply {
            response: Response::Ok {
                id: 8,
                value: 2.5,
                elapsed_ms: 0.25,
                queue_ms: 1.5,
            },
            bucket: Bucket::Completed,
            outcome: "ok",
        };
        assert_eq!(Reply::finished(8, done, 1.5), want);
        let accept = Admission::Accept {
            deadline_ms: Some(9),
        };
        assert_eq!(accept.resolve(1), Ok(Some(9)));
    }

    #[test]
    fn health_shed_is_admission_shed_plus_watchdog_shed() {
        let view = HealthView {
            live_workers: 2,
            dead_workers: 1,
            queue_depth: 3,
            inflight: 1,
            admitted: 40,
            completed: 30,
            shed: 5,
            watchdog_shed: 2,
            distinct_clients: 4,
        };
        let want = Response::Health {
            live_workers: 2,
            dead_workers: 1,
            queue_depth: 3,
            inflight: 1,
            admitted: 40,
            completed: 30,
            shed: 7,
            distinct_clients: 4,
        };
        assert_eq!(health(&view), want);
    }

    #[test]
    fn kill_offset_floors_at_zero_and_scales_with_grace() {
        let budget = Duration::from_millis(100);
        assert_eq!(kill_offset(budget, 1.0), Duration::ZERO);
        assert_eq!(kill_offset(budget, 0.5), Duration::ZERO);
        assert_eq!(kill_offset(budget, 3.0), Duration::from_millis(200));
    }

    #[test]
    fn reply_gate_grants_exactly_one_claim() {
        let gate = ReplyGate::new();
        let clone = gate.clone();
        assert!(!gate.is_claimed());
        assert!(gate.claim());
        assert!(!clone.claim());
        assert!(clone.is_claimed());
    }
}
