//! # tpm-rodinia — Rust re-implementations of five Rodinia 3.1 benchmarks
//!
//! The paper's §IV-B applications (Figs. 6–10), each with a synthetic
//! workload generator (Rodinia's input files are not distributable offline —
//! see DESIGN.md §2), a sequential reference, all six [`tpm_core::Model`]
//! variants via [`tpm_core::Executor`], and a simulator descriptor for
//! paper-scale runs:
//!
//! | App | Structure | Paper finding |
//! |---|---|---|
//! | [`Bfs`] | 2 irregular phases × levels | scales to ~8 cores; `cilk_for` worst |
//! | [`HotSpot`] | 2 phases × many steps | data-parallel poor; tasking gains with threads |
//! | [`Lud`] | 2 shrinking phases × n pivots | per-phase overhead grows as work shrinks |
//! | [`LavaMd`] | 1 uniform heavy loop | all six variants converge |
//! | [`Srad`] | 2 uniform phases × iterations | all six variants converge |
//!
//! Each application's parallel body exists once, as `try_run` under the
//! caller's token; none of the five has a second, optimized variant. Every
//! phase is one [`tpm_core::Executor::try_parallel_for`] region, so a fired
//! token stops the run at the next phase or chunk boundary and comes back
//! as an `Err`. `run` is the one infallible wrapper (fresh token), as in
//! `tpm-kernels`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bfs;
mod graph;
mod hotspot;
mod lavamd;
mod lud;
mod srad;

pub use bfs::Bfs;
pub use graph::Graph;
pub use hotspot::HotSpot;
pub use lavamd::{LavaMd, Particle};
pub use lud::Lud;
pub use srad::Srad;
