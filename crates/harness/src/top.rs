//! The `top` and `metrics` subcommands: scrape a running server's
//! Prometheus exposition over the wire and either print it raw or render a
//! live terminal dashboard.
//!
//! The dashboard is a pure function from two successive scrapes plus the
//! elapsed time between them ([`render`]) — counters diff into rates,
//! histograms diff into interval quantiles, gauges read from the current
//! scrape — so every panel is unit-testable without a server. The loop
//! around it ([`run`]) only does IO: connect, send `{"cmd":"metrics"}`,
//! parse the reply, sleep, repeat.

use std::io::{BufRead, BufReader, IsTerminal, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tpm_core::Family;
use tpm_metrics::text::Scrape;
use tpm_serve::Response;

use crate::cli::ServiceOpts;

/// Fetches one raw exposition from the server at `addr`.
pub fn fetch(addr: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .map_err(|e| format!("cannot send metrics request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read metrics reply: {e}"))?;
    match Response::parse(line.trim()) {
        Ok(Response::Metrics { exposition }) => Ok(exposition),
        Ok(other) => Err(format!("unexpected reply to metrics request: {other:?}")),
        Err(e) => Err(format!("malformed metrics reply: {e}")),
    }
}

/// Fetches and parses one scrape.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    Scrape::parse(&fetch(addr)?).map_err(|e| format!("malformed exposition: {e}"))
}

/// Estimates quantile `q` of histogram `name` with the bucket counts
/// *summed across all label values* (e.g. every `kernel`) — what
/// [`Scrape::histogram_quantile`] cannot do, because duplicate `le` bounds
/// from different series would interleave instead of aggregate.
fn agg_quantile(s: &Scrape, name: &str, q: f64) -> Option<f64> {
    let bucket_name = format!("{name}_bucket");
    let mut agg: Vec<(f64, f64)> = Vec::new();
    for sample in s.samples.iter().filter(|s| s.name == bucket_name) {
        let le = sample.label("le")?;
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        match agg.iter_mut().find(|(b, _)| *b == bound) {
            Some((_, v)) => *v += sample.value,
            None => agg.push((bound, sample.value)),
        }
    }
    if agg.is_empty() {
        return None;
    }
    agg.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let total = agg.last()?.1;
    if total <= 0.0 {
        return Some(0.0);
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let (mut prev_bound, mut prev_cum) = (0.0, 0.0);
    for &(bound, cum) in &agg {
        if cum >= rank {
            if bound.is_infinite() {
                return Some(prev_bound);
            }
            let in_bucket = cum - prev_cum;
            if in_bucket <= 0.0 {
                return Some(bound);
            }
            return Some(prev_bound + (bound - prev_bound) * (rank - prev_cum) / in_bucket);
        }
        prev_bound = bound;
        prev_cum = cum;
    }
    Some(prev_bound)
}

/// A `[####----]`-style utilization bar for `frac` in `[0, 1]`.
fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

/// Formats seconds as an adaptive `µs`/`ms`/`s` string.
fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a byte count as an adaptive `B`/`KiB`/`MiB`/`GiB` string.
fn fmt_bytes(b: f64) -> String {
    if b < 1024.0 {
        format!("{b:.0}B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Renders one dashboard frame from the current scrape, the previous one,
/// and the seconds elapsed between them. Pure — see the module docs.
pub fn render(cur: &Scrape, prev: &Scrape, dt_s: f64) -> String {
    let dt = dt_s.max(1e-3);
    let d = cur.delta(prev);
    let mut out = String::new();

    // ── requests ──────────────────────────────────────────────────────
    let total_rate = d.sum("tpm_requests_total") / dt;
    let ok_rate = d
        .get("tpm_requests_total", &[("outcome", "ok")])
        .unwrap_or(0.0)
        / dt;
    let err_rate = (total_rate - ok_rate).max(0.0);
    out.push_str(&format!(
        "req/s {total_rate:7.1}   ok/s {ok_rate:7.1}   err/s {err_rate:6.1}   "
    ));
    out.push_str(&format!(
        "queue {:.0}   inflight {:.0}   workers {:.0}   deaths {:.0}   clients {:.0}\n",
        cur.get("tpm_admission_queue_depth", &[]).unwrap_or(0.0),
        cur.get("tpm_inflight_jobs", &[]).unwrap_or(0.0),
        cur.get("tpm_live_workers", &[]).unwrap_or(0.0),
        cur.get("tpm_worker_deaths_total", &[]).unwrap_or(0.0),
        cur.get("tpm_distinct_clients", &[]).unwrap_or(0.0),
    ));

    // ── connections and wire traffic ──────────────────────────────────
    out.push_str(&format!(
        "conns {:.0}   read {:>9}/s   written {:>9}/s\n",
        cur.get("serve_connections_open", &[]).unwrap_or(0.0),
        fmt_bytes(d.sum("serve_bytes_read_total") / dt),
        fmt_bytes(d.sum("serve_bytes_written_total") / dt),
    ));

    // ── input cache (interval hit ratio, current residency) ───────────
    let hits = d.sum("tpm_input_cache_hits_total");
    let misses = d.sum("tpm_input_cache_misses_total");
    out.push_str(&format!(
        "inputs hit/s {:7.1}  miss/s {:6.1} ({:3.0}% hit)  evict/s {:5.1}  resident {:>9}\n",
        hits / dt,
        misses / dt,
        100.0 * hits / (hits + misses).max(1.0),
        d.sum("tpm_input_cache_evictions_total") / dt,
        fmt_bytes(
            cur.get("tpm_input_cache_resident_bytes", &[])
                .unwrap_or(0.0)
        ),
    ));

    // ── latency (interval quantiles from histogram deltas) ────────────
    let exec_p50 = agg_quantile(&d, "tpm_request_duration_seconds", 0.50).unwrap_or(0.0);
    let exec_p99 = agg_quantile(&d, "tpm_request_duration_seconds", 0.99).unwrap_or(0.0);
    let queue_p50 = agg_quantile(&d, "tpm_queue_wait_seconds", 0.50).unwrap_or(0.0);
    let queue_p99 = agg_quantile(&d, "tpm_queue_wait_seconds", 0.99).unwrap_or(0.0);
    out.push_str(&format!(
        "exec  p50 {:>8}  p99 {:>8}   queue-wait p50 {:>8}  p99 {:>8}\n",
        fmt_secs(exec_p50),
        fmt_secs(exec_p99),
        fmt_secs(queue_p50),
        fmt_secs(queue_p99),
    ));

    // ── per-worker utilization (busy seconds per wall second) ─────────
    let mut workers: Vec<(usize, f64)> = d
        .samples
        .iter()
        .filter(|s| s.name == "tpm_worker_busy_seconds_total")
        .filter_map(|s| Some((s.label("worker")?.parse().ok()?, s.value / dt)))
        .collect();
    workers.sort_by_key(|&(w, _)| w);
    for (w, util) in workers {
        out.push_str(&format!(
            "worker {w:<2} {} {:5.1}%\n",
            bar(util, 24),
            util * 100.0
        ));
    }

    // ── runtime scheduler events ──────────────────────────────────────
    for rt in Family::ALL.map(Family::runtime_label) {
        let ev = |event: &str| {
            d.get(
                "tpm_runtime_events_total",
                &[("runtime", rt), ("event", event)],
            )
            .unwrap_or(0.0)
        };
        let tasks = ev("executed");
        let threads = ev("thread_spawns");
        let steals = ev("steals");
        let misses = ev("failed_steals");
        let chunks = ev("chunks");
        let parks = ev("parks");
        if tasks + threads + steals + misses + chunks + parks == 0.0 {
            continue;
        }
        let attempts = steals + misses;
        let hit = if attempts > 0.0 {
            steals / attempts * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{rt:<10} tasks/s {:8.0}  threads/s {:6.0}  chunks/s {:8.0}  steals/s {:7.0} ({hit:3.0}% hit)  parks/s {:6.0}\n",
            tasks / dt,
            threads / dt,
            chunks / dt,
            steals / dt,
            parks / dt,
        ));
    }

    // ── per-kernel interval latency ───────────────────────────────────
    let mut kernels: Vec<&str> = d
        .samples
        .iter()
        .filter(|s| s.name == "tpm_request_duration_seconds_count" && s.value > 0.0)
        .filter_map(|s| s.label("kernel"))
        .collect();
    kernels.sort_unstable();
    kernels.dedup();
    for k in kernels {
        let n = d
            .get("tpm_request_duration_seconds_count", &[("kernel", k)])
            .unwrap_or(0.0);
        let p99 = d
            .histogram_quantile("tpm_request_duration_seconds", &[("kernel", k)], 0.99)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "  {k:<12} {:6.1} req/s   p99 {:>8}\n",
            n / dt,
            fmt_secs(p99)
        ));
    }
    out
}

/// The `top` subcommand: scrape every `interval_ms` and render a dashboard
/// frame, `frames` times (or until killed). Clears the screen between
/// frames only when stdout is a terminal, so piped output stays a log.
pub fn run(opts: &ServiceOpts) -> i32 {
    let mut prev = match scrape(&opts.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut last = Instant::now();
    let interval = Duration::from_millis(opts.interval_ms.max(50));
    let clear = std::io::stdout().is_terminal();
    let mut frame = 0usize;
    loop {
        std::thread::sleep(interval);
        let cur = match scrape(&opts.addr) {
            Ok(s) => s,
            Err(e) => {
                // A drained server closing its socket mid-watch is a clean
                // end for the dashboard, not an error.
                eprintln!("[top] scrape stopped: {e}");
                return 0;
            }
        };
        let dt = last.elapsed().as_secs_f64();
        last = Instant::now();
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        frame += 1;
        println!("tpm-top  {}  frame {frame}  ({dt:.1}s tick)", opts.addr);
        print!("{}", render(&cur, &prev, dt));
        let _ = std::io::stdout().flush();
        prev = cur;
        if opts.frames.is_some_and(|n| frame >= n) {
            return 0;
        }
    }
}

/// The `metrics` subcommand: print one raw exposition and exit.
pub fn run_once(opts: &ServiceOpts) -> i32 {
    match fetch(&opts.addr) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape_of(text: &str) -> Scrape {
        Scrape::parse(text).expect("test scrape parses")
    }

    #[test]
    fn render_diffs_counters_into_rates() {
        let prev = scrape_of(
            "tpm_requests_total{outcome=\"ok\"} 100\n\
             tpm_requests_total{outcome=\"deadline\"} 10\n",
        );
        let cur = scrape_of(
            "tpm_requests_total{outcome=\"ok\"} 300\n\
             tpm_requests_total{outcome=\"deadline\"} 20\n\
             tpm_admission_queue_depth 5\n",
        );
        let frame = render(&cur, &prev, 2.0);
        // (300+20 − 100−10) / 2 s = 105 req/s, ok (300−100)/2 = 100/s.
        assert!(frame.contains("req/s   105.0"), "{frame}");
        assert!(frame.contains("ok/s   100.0"), "{frame}");
        assert!(frame.contains("queue 5"), "{frame}");
    }

    #[test]
    fn render_shows_connections_and_byte_rates() {
        let prev = scrape_of(
            "serve_bytes_read_total 1000\n\
             serve_bytes_written_total 0\n",
        );
        let cur = scrape_of(
            "serve_connections_open 256\n\
             serve_bytes_read_total 3048\n\
             serve_bytes_written_total 2097152\n",
        );
        let frame = render(&cur, &prev, 2.0);
        // (3048−1000)/2 = 1024 B/s read, 2 MiB over 2 s = 1 MiB/s written.
        assert!(frame.contains("conns 256"), "{frame}");
        assert!(frame.contains("1.0KiB/s"), "{frame}");
        assert!(frame.contains("1.0MiB/s"), "{frame}");
    }

    #[test]
    fn render_shows_input_cache_hit_ratio_and_residency() {
        let prev = scrape_of(
            "tpm_input_cache_hits_total 10\n\
             tpm_input_cache_misses_total 2\n",
        );
        let cur = scrape_of(
            "tpm_input_cache_hits_total 100\n\
             tpm_input_cache_misses_total 12\n\
             tpm_input_cache_resident_bytes 8388608\n",
        );
        let frame = render(&cur, &prev, 2.0);
        // 90 hits and 10 misses over 2 s.
        assert!(frame.contains("hit/s    45.0"), "{frame}");
        assert!(frame.contains("( 90% hit)"), "{frame}");
        assert!(frame.contains("resident    8.0MiB"), "{frame}");
    }

    #[test]
    fn render_shows_worker_utilization_bars() {
        let prev = scrape_of("tpm_worker_busy_seconds_total{worker=\"0\"} 10\n");
        let cur = scrape_of(
            "tpm_worker_busy_seconds_total{worker=\"0\"} 11\n\
             tpm_worker_busy_seconds_total{worker=\"1\"} 0.5\n",
        );
        let frame = render(&cur, &prev, 2.0);
        // Worker 0: 1 busy second over a 2 s tick = 50%.
        assert!(frame.contains("worker 0"), "{frame}");
        assert!(frame.contains("50.0%"), "{frame}");
        assert!(frame.contains("worker 1"), "{frame}");
    }

    #[test]
    fn render_reports_steal_hit_ratio_per_runtime() {
        let prev =
            scrape_of("tpm_runtime_events_total{runtime=\"worksteal\",event=\"steals\"} 0\n");
        let cur = scrape_of(
            "tpm_runtime_events_total{runtime=\"worksteal\",event=\"steals\"} 30\n\
             tpm_runtime_events_total{runtime=\"worksteal\",event=\"failed_steals\"} 10\n\
             tpm_runtime_events_total{runtime=\"worksteal\",event=\"executed\"} 400\n",
        );
        let frame = render(&cur, &prev, 1.0);
        assert!(frame.contains("worksteal"), "{frame}");
        assert!(frame.contains("75% hit"), "{frame}");
        assert!(
            !frame.contains("forkjoin"),
            "idle runtimes are elided: {frame}"
        );
    }

    #[test]
    fn render_shows_actor_runtime_events() {
        let prev = scrape_of("tpm_runtime_events_total{runtime=\"actors\",event=\"steals\"} 0\n");
        let cur = scrape_of(
            "tpm_runtime_events_total{runtime=\"actors\",event=\"steals\"} 8\n\
             tpm_runtime_events_total{runtime=\"actors\",event=\"failed_steals\"} 8\n\
             tpm_runtime_events_total{runtime=\"actors\",event=\"parks\"} 6\n",
        );
        let frame = render(&cur, &prev, 2.0);
        let row = frame
            .lines()
            .find(|l| l.starts_with("actors"))
            .unwrap_or_else(|| panic!("no actors row: {frame}"));
        assert!(row.contains("steals/s       4 ( 50% hit)"), "{row}");
        assert!(row.contains("parks/s      3"), "{row}");
    }

    #[test]
    fn render_aggregates_duration_quantiles_across_kernels() {
        let prev = Scrape::default();
        let cur = scrape_of(
            "tpm_request_duration_seconds_bucket{kernel=\"sum\",le=\"0.001\"} 50\n\
             tpm_request_duration_seconds_bucket{kernel=\"sum\",le=\"+Inf\"} 50\n\
             tpm_request_duration_seconds_count{kernel=\"sum\"} 50\n\
             tpm_request_duration_seconds_bucket{kernel=\"fib\",le=\"0.001\"} 0\n\
             tpm_request_duration_seconds_bucket{kernel=\"fib\",le=\"0.1\"} 50\n\
             tpm_request_duration_seconds_bucket{kernel=\"fib\",le=\"+Inf\"} 50\n\
             tpm_request_duration_seconds_count{kernel=\"fib\"} 50\n",
        );
        // Aggregate p99 must land in fib's slow bucket, not sum's fast one.
        let p99 = agg_quantile(&cur.delta(&prev), "tpm_request_duration_seconds", 0.99).unwrap();
        assert!(p99 > 0.001, "p99 {p99}");
        let frame = render(&cur, &prev, 1.0);
        assert!(frame.contains("sum"), "{frame}");
        assert!(frame.contains("fib"), "{frame}");
    }

    #[test]
    fn bar_is_clamped_and_sized() {
        assert_eq!(bar(0.0, 4), "[----]");
        assert_eq!(bar(0.5, 4), "[##--]");
        assert_eq!(bar(2.0, 4), "[####]");
        assert_eq!(fmt_secs(0.000002), "2µs");
        assert_eq!(fmt_secs(0.005), "5.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(1536.0), "1.5KiB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0MiB");
        assert_eq!(fmt_bytes(2.0 * 1024.0 * 1024.0 * 1024.0), "2.00GiB");
    }
}
