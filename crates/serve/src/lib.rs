//! # tpm-serve — a cancellable job service over the three runtimes
//!
//! The service layer of the `threadcmp` workspace: any kernel registered in
//! a [`JobRegistry`](tpm_core::JobRegistry) becomes dispatchable over TCP,
//! executed under any of the six threading models with a per-request
//! deadline.
//!
//! * [`serve`] / [`ServerConfig`] / [`ServerHandle`] — the server: bounded
//!   admission queue (load shedding, never unbounded backlog), per-worker
//!   executor caches, graceful drain on shutdown. One data path: a
//!   single-thread level-triggered reactor (connections are buffers, not
//!   threads) over [`tpm_sync::epoll`] — kernel epoll on Linux x86-64, a
//!   tick poller on other Unix targets.
//! * [`protocol`] — the request/response model; JSON-lines is its text
//!   encoding.
//! * [`engine`] — the transport-independent state machines and the one
//!   reply vocabulary the server and the `tpm-desim` simulator both use.
//! * [`frame`] / [`wire`] — the length-prefixed binary encoding and the
//!   protocol-sniffing incremental decoder. Clients
//!   pick a protocol per connection ([`Protocol`]); requests pipeline and
//!   may complete out of order (match replies by `id`).
//! * [`loadgen`] — a load generator over persistent connections with a
//!   pipelined in-flight window, reporting throughput and p50/p99 latency.
//! * [`json`] — the workspace's one JSON codec ([`tpm_sync::json`]),
//!   re-exported here because the protocol's text encoding runs on it.
//!
//! ```
//! use std::sync::Arc;
//! use tpm_core::JobRegistry;
//! use tpm_serve::{serve, ServerConfig};
//!
//! let mut reg = JobRegistry::new();
//! reg.register("answer", "the answer", 1 << 20, |ctx| Ok(ctx.spec.size as f64));
//! let handle = serve(Arc::new(reg), ServerConfig::default()).unwrap();
//! let addr = handle.addr();
//! // ... point clients at `addr` ...
//! let stats = handle.shutdown();
//! assert_eq!(stats.shed, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod frame;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
mod queue;
mod reactor;
mod server;
pub mod wire;

pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use metrics::ServeMetrics;
pub use protocol::{Request, Response};
pub use queue::BoundedQueue;
pub use server::{
    serve, serve_over_tick_poller, ServeStats, ServerConfig, ServerHandle, StatsSnapshot,
};
pub use tpm_sync::json;
pub use wire::Protocol;
