//! # tpm-actors — message-driven many-tasking runtime
//!
//! The fourth programming model of the `threadcmp` workspace. The paper
//! compares three *threading* models; the Kulkarni–Lumsdaine AMT survey
//! extends the comparison to asynchronous many-tasking runtimes (Charm++,
//! HPX/ParalleX, AM++), whose unit of scheduling is a *message-driven
//! activation* rather than a loop chunk or a spawned frame. This crate
//! rebuilds that model on the workspace's own substrate:
//!
//! * **Typed mailboxes** over lock-free Vyukov MPSC queues
//!   ([`tpm_sync::MpscQueue`]) — wait-free sends, exactly-once delivery,
//!   per-sender FIFO, with an IDLE/SCHEDULED state machine serializing each
//!   actor ([`Actor`], [`Addr`]).
//! * **Work stealing of activations** — per-worker Chase–Lev deques, batch
//!   stealing, NUMA-aware victim order, parking until woken, self-healing
//!   workers: `tpm-worksteal`'s own pool, scheduling mailbox drains and
//!   one-shot parcels instead of spawned frames ([`ActorRuntime`]).
//! * **Futures/continuations** for task dependencies ([`future`],
//!   [`Promise::on_complete`]) — the last child to complete propagates
//!   upward on its own worker; nothing blocks.
//! * **Loop entry points** ([`scatter_for_indexed_cancel`],
//!   [`recursive_for_indexed_cancel`]), one per decomposition, so every
//!   kernel's loops and reductions run under the `actor_for`/`actor_task`
//!   models with cancellation, fault probes, and trace events identical to
//!   the other three families.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod future;
mod mailbox;
mod parallel;
mod runtime;

pub use future::{future, Future, Promise};
pub use mailbox::{Actor, ActorCtx, Addr};
pub use parallel::{recursive_for_indexed_cancel, scatter_for_indexed_cancel};
pub use runtime::{ActorRuntime, WorkerCtx};
