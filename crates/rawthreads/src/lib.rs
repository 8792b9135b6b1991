//! # tpm-rawthreads — the C++11 threading analogue
//!
//! The "no runtime" baseline of the `threadcmp` workspace (after *Comparison
//! of Threading Programming Models*, 2017): what the paper's `std::thread` /
//! `std::async` versions do, this crate does —
//!
//! * [`threads_for`] / [`threads_for_reduce`]: one freshly created OS thread
//!   per chunk, manual static chunking, join at the end. No pool, so every
//!   region pays thread creation (the paper's C++ data-parallel versions).
//! * [`async_task`] with [`Launch::Async`] (thread per task) or
//!   [`Launch::Deferred`] (lazy, on `get`), returning a [`Future`].
//! * [`recursive_reduce_cancel`] / [`fib_with_cutoff`]: the recursive
//!   versions with the paper's `BASE = N / num_threads` cutoff (a recursive
//!   loop is the reduction over `()`).
//! * [`fib_thread_per_call`] + [`ThreadBudget`]: the *uncut* recursion whose
//!   thread explosion the paper reports as "the system hangs", reproduced as
//!   a deterministic, guarded error.
//!
//! "In thread level parallelism programmers should take care of load
//! balancing" — accordingly, nothing here balances anything.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod future;
mod recursive;
pub mod stats;
mod threads;

pub use future::{async_task, Future, Launch};
pub use recursive::{
    base_cutoff, fib_thread_per_call, fib_with_cutoff, recursive_reduce_cancel, ThreadBudget,
    ThreadExplosion,
};
pub use stats::stats;
pub use threads::{block_chunk, threads_for, threads_for_cancel, threads_for_reduce};
