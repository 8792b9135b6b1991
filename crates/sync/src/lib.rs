//! # tpm-sync — from-scratch synchronization primitives
//!
//! The substrate layer of the `threadcmp` workspace (a Rust reproduction of
//! *Comparison of Threading Programming Models*, 2017). Every primitive the
//! three threading runtimes need is built here from `std` atomics and thread
//! parking — no external concurrency crates — following the constructions in
//! *Rust Atomics and Locks* (Bos, 2023):
//!
//! | Primitive | Used by | Models |
//! |---|---|---|
//! | [`SpinLock`] | everything | short critical sections |
//! | [`Mutex`] | `omp_lock_t`, `critical` | `omp_lock_t`, `std::mutex`, `pthread_mutex` |
//! | [`Barrier`] | `tpm-forkjoin` | `#pragma omp barrier`, `pthread_barrier_t` |
//! | [`SpinLatch`] / [`CountLatch`] | both task runtimes | join counters behind `cilk_sync` / `taskwait` |
//! | [`chase_lev`] deque | `tpm-worksteal` | Cilk Plus's lock-free work-stealing protocol |
//! | [`LockedDeque`] | `tpm-forkjoin` tasking | Intel OpenMP's lock-based task deques |
//! | [`oneshot`] channel | `tpm-rawthreads` | `std::future` |
//! | [`Reducer`] | all three | Cilk reducers / OpenMP `reduction` clause |
//! | [`IdleStrategy`] / [`Sleepers`] | every pooled runtime | worker idle loops and outside callers' waits (spin → yield → park until woken) |
//! | [`MpscQueue`] | `tpm-actors` | Vyukov MPSC mailboxes (Charm++/ParalleX-style messaging) |
//! | [`PoolConfig`] / [`env_flag`] | all pooled runtimes | the one runtime configuration (threads/pin/numa/idle, each runtime's `with_config`) and the one boolean env-knob parser |
//! | [`CancelToken`] | all three | cooperative cancellation + deadlines (job service) |
//! | [`affinity`] | all three | core pinning (`TPM_PIN`, `OMP_PROC_BIND` analogue) |
//! | [`epoll`] | `tpm-serve` | readiness polling for the socket reactor (raw epoll syscalls on Linux x86-64, a tick poller elsewhere) |
//! | [`json`] | every JSON reader and writer | the one escaper, number policy and pull reader (wire, traces, metrics, figures, fault plans) |
//! | [`event`] + [`stats`] | every runtime, `tpm-trace`, `tpm-serve` | the one scheduler-event vocabulary ([`EventKind`]) and its always-on per-worker counters |
//! | [`Backoff`], [`CachePadded`], [`rng`] | all | mechanics |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
mod backoff;
mod barrier;
mod cache_padded;
mod cancel;
pub mod chase_lev;
pub mod epoll;
pub mod event;
mod idle;
pub mod json;
mod latch;
pub mod layout;
mod locked_deque;
mod mpsc;
mod mutex;
pub mod oneshot;
mod pool;
mod reducer;
pub mod rng;
mod spinlock;
pub mod stats;
pub mod topology;

pub use backoff::Backoff;
pub use barrier::{Barrier, BarrierWaitResult};
pub use cache_padded::CachePadded;
pub use cancel::{CancelReason, CancelToken};
pub use chase_lev::{deque as chase_lev_deque, Steal, Stealer, Worker};
pub use event::EventKind;
pub use idle::{IdleStrategy, Sleepers};
pub use latch::{CountLatch, SpinLatch};
pub use locked_deque::LockedDeque;
pub use mpsc::MpscQueue;
pub use mutex::{Mutex, MutexGuard};
pub use oneshot::{channel as oneshot_channel, Receiver, RecvError, Sender};
pub use pool::{env_flag, PoolConfig};
pub use reducer::Reducer;
pub use rng::{SplitMix64, XorShift64Star};
pub use spinlock::{SpinGuard, SpinLock};
pub use stats::{Counter, SchedulerStats, StatsSnapshot, WorkerStats};
