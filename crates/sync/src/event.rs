//! The one scheduler-event vocabulary: the runtime events the paper's
//! analysis is phrased in (steals, chunk dispatches, barrier episodes, task
//! creation, thread spawn cost) plus lock and worker-health events. A runtime
//! reports each event once, with `tpm_trace::emit`, which bumps the
//! [`WorkerStats`](crate::WorkerStats) counter of a
//! [counted](EventKind::counted) kind and records the trace event; the
//! metrics view reads the counters back under [`EventKind::metric_label`].

/// Declares [`EventKind`] with its discriminants, [`EventKind::ALL`] and
/// [`EventKind::name`] from one list, so the three cannot drift apart.
macro_rules! event_kinds {
    ($($(#[doc = $doc:literal])+ $kind:ident = $n:literal => $name:literal,)+) => {
        /// What happened. Discriminants are stable: the trace ring stores them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[doc = $doc])+ $kind = $n,)+
        }

        impl EventKind {
            /// Every kind, in discriminant order.
            pub const ALL: [EventKind; [$($n),+].len()] = [$(EventKind::$kind),+];

            /// Stable lowercase name (used in Chrome-trace output and summaries).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)+
                }
            }
        }
    };
}

event_kinds! {
    /// A named span opened on this worker (`a` = region name id).
    RegionBegin = 0 => "region_begin",
    /// The most recent open span on this worker closed (`a` = name id).
    RegionEnd = 1 => "region_end",
    /// A worksharing/splitting loop chunk started executing (`a` = chunk
    /// length in iterations).
    ChunkDispatch = 2 => "chunk_dispatch",
    /// A task was created: pushed onto the emitting worker's own deque,
    /// where it is stealable, or launched by the raw-threads `async_task`
    /// (`a` = queue depth hint, optional). An external submission to a pool
    /// (injector, mailbox) is not a spawn.
    TaskSpawn = 3 => "task_spawn",
    /// A task was dequeued and executed.
    TaskExec = 4 => "task_exec",
    /// A steal attempt succeeded (`a` = victim worker index, `b` = items
    /// moved when the steal takes a batch).
    Steal = 5 => "steal",
    /// A steal attempt found nothing or lost the race (`a` = victim index).
    FailedSteal = 6 => "failed_steal",
    /// This worker arrived at a barrier.
    BarrierArrive = 7 => "barrier_arrive",
    /// This worker was released from a barrier (`a` = wait nanoseconds,
    /// summed into `barrier_wait_ns`).
    BarrierRelease = 8 => "barrier_release",
    /// A lock was acquired (uncontended fast path included).
    LockAcquire = 9 => "lock_acquire",
    /// A lock acquisition had to wait for another holder.
    LockContended = 10 => "lock_contended",
    /// An OS thread was created on behalf of this worker (`a` = ordinal).
    ThreadSpawn = 11 => "thread_spawn",
    /// An OS thread was joined (`a` = ordinal).
    ThreadJoin = 12 => "thread_join",
    /// A worker died from an escaped panic (`a` = worker index).
    WorkerDeath = 13 => "worker_death",
    /// A replacement worker took over a dead worker's slot (`a` = index).
    WorkerRespawn = 14 => "worker_respawn",
    /// A team continued at reduced parallelism after a worker death
    /// (`a` = surviving width).
    DegradedWidth = 15 => "degraded_width",
    /// One claim transaction against a dynamic/guided loop's shared
    /// counter; one claim can serve a batch of chunks.
    LoopClaim = 16 => "loop_claim",
    /// The worker gave up spinning/yielding, parked, and was woken.
    Park = 17 => "park",
}

impl EventKind {
    /// The kinds with an always-on counter, in counter-slot (and scrape)
    /// order. The rest are only traced.
    pub const COUNTED: [EventKind; 9] = [
        EventKind::TaskSpawn,
        EventKind::TaskExec,
        EventKind::Steal,
        EventKind::FailedSteal,
        EventKind::ChunkDispatch,
        EventKind::LoopClaim,
        EventKind::BarrierRelease,
        EventKind::Park,
        EventKind::ThreadSpawn,
    ];

    /// This kind's index into [`Self::COUNTED`] (and so into a
    /// [`WorkerStats`](crate::WorkerStats)), or `None` if it is only traced.
    /// A constant wherever `self` is.
    #[inline]
    pub const fn slot(self) -> Option<usize> {
        match self {
            EventKind::TaskSpawn => Some(0),
            EventKind::TaskExec => Some(1),
            EventKind::Steal => Some(2),
            EventKind::FailedSteal => Some(3),
            EventKind::ChunkDispatch => Some(4),
            EventKind::LoopClaim => Some(5),
            EventKind::BarrierRelease => Some(6),
            EventKind::Park => Some(7),
            EventKind::ThreadSpawn => Some(8),
            _ => None,
        }
    }

    /// Whether this kind has an always-on counter.
    #[inline]
    pub const fn counted(self) -> bool {
        self.slot().is_some()
    }

    /// The `event` label of this kind's `tpm_runtime_events_total` series;
    /// `None` if it is only traced.
    pub fn metric_label(self) -> Option<&'static str> {
        Some(match self {
            EventKind::TaskSpawn => "spawned",
            EventKind::TaskExec => "executed",
            EventKind::Steal => "steals",
            EventKind::FailedSteal => "failed_steals",
            EventKind::ChunkDispatch => "chunks",
            EventKind::LoopClaim => "loop_claims",
            EventKind::BarrierRelease => "barrier_waits",
            EventKind::Park => "parks",
            EventKind::ThreadSpawn => "thread_spawns",
            _ => return None,
        })
    }

    /// Decodes a discriminant produced by `as u8`; `None` if out of range.
    pub fn from_u8(v: u8) -> Option<Self> {
        EventKind::ALL.get(v as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_u8() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn counted_kinds_have_slots_labels_and_nothing_else_does() {
        for (i, k) in EventKind::COUNTED.iter().enumerate() {
            assert_eq!(k.slot(), Some(i), "{k:?}");
        }
        for k in EventKind::ALL {
            assert_eq!(k.counted(), EventKind::COUNTED.contains(&k), "{k:?}");
            assert_eq!(k.metric_label().is_some(), k.counted(), "{k:?}");
        }
    }
}
