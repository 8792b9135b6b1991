//! # tpm-alloc — memory subsystem for the threading-model comparison
//!
//! The source paper's taxonomy gives memory abstraction its own axis; this
//! crate supplies the workspace's side of that axis, built from `std` only
//! (the workspace builds offline — no jemalloc, no bumpalo):
//!
//! | Piece | Replaces | Used by |
//! |---|---|---|
//! | [`Arena`] | per-task `Box`/`Vec` churn | per-worker scratch (loadgen encode, job staging) |
//! | [`BufPool`] / [`PooledBuf`] | per-reply `Vec<u8>` allocations | `tpm-serve` reply path |
//! | [`CountingAlloc`] | — | harness binaries, to *measure* allocations/request |
//!
//! Design notes:
//!
//! * [`Arena`] is a chunked bump allocator. Allocation takes `&self` and
//!   hands out `&mut` regions tied to that borrow; [`Arena::reset`] takes
//!   `&mut self`, so the borrow checker statically proves no allocation
//!   outlives its generation — "no stale reads across resets" is a
//!   compile-time fact, re-checked dynamically by the generation counter.
//! * [`BufPool`] is the cross-thread variant: replies are encoded on worker
//!   threads but freed on the reactor thread, so region reuse rides
//!   on a [`PooledBuf`] drop-return instead of a lifetime. Each return is a
//!   bulk reset of that buffer (`clear`, capacity kept), counted in
//!   [`PoolStats::returns`].
//! * [`CountingAlloc`] wraps [`std::alloc::System`] with relaxed atomic
//!   counters so BENCH rows can report measured allocations per request
//!   rather than estimates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod counting;
mod pool;

pub use arena::{Arena, ArenaStats};
pub use counting::{snapshot, AllocSnapshot, CountingAlloc};
pub use pool::{BufPool, PoolStats, PooledBuf};
