//! # tpm-harness — the experiment driver
//!
//! Regenerates every table and figure of *Comparison of Threading
//! Programming Models* (2017):
//!
//! * Tables I–III via `tpm-features` (exact cell contents).
//! * Figures 1–10 on the simulated 36-core testbed
//!   ([`experiments`]) — deterministic, with [`experiments::check_claims`]
//!   validating the paper's qualitative findings.
//! * The same experiments natively on this machine's threads ([`native`]).
//!
//! Binary usage: `tpm-harness all`, `tpm-harness fig1`, `tpm-harness
//! table2`, `tpm-harness fig3 --native --threads 1,2,4 --reps 5`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cli;
pub mod desim;
pub mod experiments;
pub mod jobs;
pub mod json;
pub mod native;
pub mod profile;
pub mod service;
pub mod top;
