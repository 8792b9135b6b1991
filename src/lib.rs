//! # threadcmp — a Rust reproduction of *Comparison of Threading Programming Models* (2017)
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`sync`] — from-scratch primitives (Chase–Lev deques, barriers, latches,
//!   locks, reducers).
//! * [`forkjoin`] — the OpenMP-like runtime (worksharing + lock-based-deque
//!   tasking).
//! * [`worksteal`] — the Cilk-Plus-like runtime (randomized work stealing).
//! * [`rawthreads`] — the C++11-like layer (raw threads, async futures).
//! * [`actors`] — the message-driven actor runtime (typed mailboxes over
//!   lock-free MPSC queues, stealable activations, futures/continuations).
//! * The unified comparison API at the crate root: [`Executor`], [`Model`],
//!   [`Figure`], [`Series`].
//! * [`sim`] — the deterministic 36-core testbed simulator.
//! * [`features`] — the paper's Tables I–III as data.
//! * [`kernels`] / [`rodinia`] — the benchmark suite (Axpy, Sum, Matvec,
//!   Matmul, Fib; BFS, HotSpot, LUD, LavaMD, SRAD).
//! * [`serve`] — the cancellable job service (JSON-lines TCP server +
//!   load generator) over the unified executor.
//! * [`fault`] — seeded deterministic fault injection (always compiled in;
//!   one atomic load per probe while no plan is installed) used by the
//!   chaos suite.
//! * [`harness`] — experiment definitions for every figure, with claim
//!   checks.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the reproduction
//! methodology.

pub use tpm_core::{
    approx, job, timing, ExecError, Executor, Family, Figure, JobRegistry, JobResult, JobSpec,
    KernelVariant, Model, Pattern, Series,
};

pub use tpm_actors as actors;
pub use tpm_fault as fault;
pub use tpm_features as features;
pub use tpm_forkjoin as forkjoin;
pub use tpm_harness as harness;
pub use tpm_kernels as kernels;
pub use tpm_metrics as metrics;
pub use tpm_rawthreads as rawthreads;
pub use tpm_rodinia as rodinia;
pub use tpm_serve as serve;
pub use tpm_sim as sim;
pub use tpm_sync as sync;
pub use tpm_worksteal as worksteal;
