//! # tpm-metrics — always-on, lock-free runtime/service metrics
//!
//! `tpm-trace` (PR 1) is *capture-mode* observability: you opt in, record a
//! bounded event window, and analyze after the fact. That is the wrong shape
//! for a long-running service: the interesting window is always the one you
//! didn't capture, and tracing overhead is too high to leave on. This crate
//! is the complementary *always-on* layer — counters, gauges, latency
//! histograms, and a distinct-element sketch cheap enough to run
//! unconditionally, scraped live over the wire without restarting anything.
//!
//! Design rules, in order:
//!
//! 1. **The hot path is one uncontended relaxed RMW.** [`Counter`] and
//!    [`Gauge`] are sharded across cache-line-padded cells; each thread picks
//!    a shard once and increments only that cell. Aggregation happens on
//!    read, which is rare (a scrape every second or two).
//! 2. **Fixed memory, no allocation after registration.** [`Histogram`] is a
//!    fixed array of log2-spaced buckets; [`Hll`] is a fixed register file.
//!    Recording never allocates, never locks, never syscalls.
//! 3. **`std`-only.** Like the rest of the workspace, no external crates:
//!    the sketch, the buckets, and the exposition format are built from
//!    scratch.
//!
//! The [`Registry`] names every instrument and renders them in Prometheus
//! text exposition format ([`Registry::render`]); [`text::Scrape`] parses
//! that same format back (for the `tpm-harness top` dashboard and for
//! format-validity tests), and [`Registry::snapshot`] gives a structured
//! [`Snapshot`] with delta semantics for programmatic use.
//!
//! # Example
//!
//! ```
//! use tpm_metrics::{Registry, text::Scrape};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "Cache hits.", &[]);
//! let lat = reg.histogram_scaled(
//!     "lookup_seconds", "Lookup latency.", &[("tier", "l1")], 1e-9);
//! hits.inc();
//! lat.record(1_500); // ns; rendered in seconds via the 1e-9 scale
//! let text = reg.render();
//! let scrape = Scrape::parse(&text).unwrap();
//! assert_eq!(scrape.get("cache_hits_total", &[]), Some(1.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cell;
mod histogram;
mod hll;
mod registry;
pub mod text;

pub use cell::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use hll::Hll;
pub use registry::{Registry, Series, SeriesValue, Snapshot};

/// Whether metrics recording is enabled for this process.
///
/// Metrics are **on by default** (they are designed to be always-on); set
/// `TPM_METRICS=0` (or any [`tpm_sync::env_flag`] "off" spelling) to
/// disable recording at the instrumentation sites that consult this gate.
/// Registration and rendering still work when disabled — series simply stay
/// at zero — which is what the metrics-on/metrics-off overhead benchmark
/// (BENCH_6) compares.
///
/// The value is read once and cached for the life of the process.
pub fn enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        tpm_sync::env_flag(std::env::var("TPM_METRICS").ok().as_deref()).unwrap_or(true)
    })
}

/// A stateless 64-bit mixer (SplitMix64 finalizer): turns sequential or
/// low-entropy inputs into uniformly distributed hashes. Used by [`Hll`] and
/// handy for tests that need a cheap hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a hash of a byte string, mixed through [`mix64`]. The sketch needs
/// all 64 bits to be uniform; FNV alone is weak in the high bits.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_sequential_inputs() {
        // Consecutive integers must land in different high bits (the HLL
        // register index is taken from the top 14 bits).
        let a = mix64(1) >> 50;
        let b = mix64(2) >> 50;
        let c = mix64(3) >> 50;
        assert!(a != b || b != c);
    }

    #[test]
    fn hash_bytes_differs_on_small_changes() {
        assert_ne!(hash_bytes(b"client-1"), hash_bytes(b"client-2"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn enabled_defaults_on() {
        // The test runner doesn't set TPM_METRICS; the default must be on.
        assert!(enabled());
    }
}
