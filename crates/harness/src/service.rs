//! The `serve` and `loadgen` subcommands: run the cancellable job server
//! over the harness's [`crate::jobs`] registry, and drive a running server
//! closed-loop to measure throughput and tail latency.

use std::path::Path;
use std::sync::Arc;

use tpm_core::{JobSpec, KernelVariant};
use tpm_serve::{loadgen, serve, LoadgenConfig, LoadgenReport, ServerConfig};

use crate::cli::ServiceOpts;
use crate::jobs;

/// Runs the job server until a client sends `{"cmd":"shutdown"}`.
pub fn run_serve(opts: &ServiceOpts) -> i32 {
    // Held (not moved into `serve`) until this function returns: the
    // input-cache series read the job registry through a Weak, and the final
    // snapshot below should see their totals.
    let job_registry = Arc::new(jobs::registry());
    let names: Vec<&str> = job_registry.names();
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_capacity: opts.queue,
        max_threads: opts.max_threads,
        default_deadline_ms: opts.deadline_ms,
        ..ServerConfig::default()
    };
    let heap_before = tpm_alloc::snapshot();
    let handle = match serve(Arc::clone(&job_registry), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start server on {}: {e}", opts.addr);
            return 1;
        }
    };
    println!(
        "[serve] listening on {} ({} workers, queue {}, jobs: {})",
        handle.addr(),
        opts.workers,
        opts.queue,
        names.join(" ")
    );
    println!("[serve] stop with: {{\"cmd\":\"shutdown\"}} on any connection");
    // Keep a registry handle across the drain: the instrument cells are
    // Arc-held by its entries, so the final snapshot reads complete totals
    // after every thread has joined.
    let registry = handle.metrics();
    let stats = handle.wait();
    println!(
        "[serve] done: admitted {} completed {} failed {} shed {} watchdog-shed {}",
        stats.admitted, stats.completed, stats.failed, stats.shed, stats.watchdog_shed
    );
    // Measured (not estimated) allocator traffic per request: the counters
    // are live because the harness binary installs tpm-alloc's CountingAlloc
    // as #[global_allocator].
    let heap = tpm_alloc::snapshot().since(&heap_before);
    if stats.admitted > 0 {
        println!(
            "[serve] heap: {:.1} allocs/request, {:.0} bytes/request \
             ({} allocs, {} reallocs total)",
            heap.allocations as f64 / stats.admitted as f64,
            heap.bytes_allocated as f64 / stats.admitted as f64,
            heap.allocations,
            heap.reallocations
        );
    }
    let snapshot = registry.snapshot().to_json();
    match &opts.metrics_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{snapshot}\n")) {
                eprintln!("error: cannot write metrics file {}: {e}", path.display());
                return 1;
            }
            println!("[serve] final metrics snapshot -> {}", path.display());
        }
        None => eprintln!("{snapshot}"),
    }
    0
}

/// Builds the job spec a loadgen run offers, from the CLI's service flags.
pub fn loadgen_spec(job: &str, opts: &ServiceOpts, variant: KernelVariant) -> JobSpec {
    JobSpec {
        kernel: job.to_string(),
        model: opts.model,
        variant,
        size: opts.size,
        threads: opts.job_threads,
    }
}

/// Runs the closed-loop load generator against `opts.addr` and prints the
/// report; with `json_out`, also writes the report as one JSON object.
pub fn run_loadgen(
    job: &str,
    opts: &ServiceOpts,
    variant: KernelVariant,
    numa_mode: &str,
    json_out: Option<&Path>,
) -> i32 {
    let config = LoadgenConfig {
        deadline_ms: opts.deadline_ms,
        protocol: opts.protocol,
        window: opts.window,
        ..LoadgenConfig::new(
            opts.addr.clone(),
            opts.clients,
            opts.requests,
            loadgen_spec(job, opts, variant),
        )
    };
    println!(
        "[loadgen] {} connections x {} requests of {} (size {}, {}, {} protocol, window {}) -> {}",
        config.clients,
        config.requests,
        job,
        opts.size,
        opts.model.name(),
        config.protocol.name(),
        config.window,
        config.addr
    );
    let report = match loadgen::run(&config) {
        Ok(r) => r,
        Err(e) => {
            // Unreachable with the classifying loadgen, kept for safety.
            eprintln!("error: loadgen cannot reach {}: {e}", config.addr);
            return 1;
        }
    };
    print_report(&report);
    if let Some(path) = json_out {
        let body = format!(
            "{{\"experiment\":\"loadgen\",\"job\":{:?},\"model\":{:?},\"size\":{},\
             \"clients\":{},\"requests\":{},\"protocol\":{:?},\"window\":{},\
             \"numa\":{:?},\"report\":{}}}\n",
            job,
            opts.model.name(),
            opts.size,
            opts.clients,
            opts.requests,
            opts.protocol.name(),
            opts.window,
            numa_mode,
            report.to_json()
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write json file {}: {e}", path.display());
            return 1;
        }
        println!("[json] loadgen report -> {}", path.display());
    }
    // Shed load and job deadlines are expected under overload; only
    // unexpected classes (connect failures, timeouts, protocol errors)
    // make the run exit non-zero.
    i32::from(report.has_unexpected_failures())
}

/// Prints the human-readable report table.
fn print_report(r: &LoadgenReport) {
    println!(
        "[loadgen] sent {} ok {} rejected {} deadline {} failed {} \
         connect-refused {} timed-out {}",
        r.sent, r.ok, r.rejected, r.deadline, r.failed, r.connect_refused, r.timed_out
    );
    println!(
        "[loadgen] wall {:.1} ms, throughput {:.1} req/s, latency p50 {:.2} ms \
         p99 {:.2} ms mean {:.2} ms max {:.2} ms",
        r.wall_ms, r.throughput, r.p50_ms, r.p99_ms, r.mean_ms, r.max_ms
    );
    // Client-vs-server side by side: the gap is queue wait plus transport.
    println!(
        "[loadgen] client p50 {:.2} ms p99 {:.2} ms | server p50 {:.2} ms \
         p99 {:.2} ms (gap = queueing + transport)",
        r.p50_ms, r.p99_ms, r.server_p50_ms, r.server_p99_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::ServiceOpts;

    #[test]
    fn loadgen_spec_carries_the_service_flags() {
        let opts = ServiceOpts {
            size: 123,
            model: tpm_core::Model::CxxAsync,
            ..ServiceOpts::default()
        };
        let spec = loadgen_spec("matvec", &opts, KernelVariant::Optimized);
        assert_eq!(spec.kernel, "matvec");
        assert_eq!(spec.size, 123);
        assert_eq!(spec.model, tpm_core::Model::CxxAsync);
        assert_eq!(spec.variant, KernelVariant::Optimized);
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn loadgen_against_a_dead_address_fails_cleanly() {
        let opts = ServiceOpts {
            // Port 1 is never our server; connect is refused immediately.
            addr: "127.0.0.1:1".to_string(),
            clients: 1,
            requests: 1,
            ..ServiceOpts::default()
        };
        let code = run_loadgen("sum", &opts, KernelVariant::Reference, "auto", None);
        assert_eq!(code, 1);
    }
}
