//! Named instrument registry with Prometheus rendering and snapshots.
//!
//! The registry is the only locked structure in the crate, and the lock is
//! only taken at registration and scrape time — never while recording.
//! Instruments are handed out as `Arc`s; the hot path holds the `Arc` and
//! touches atomics only.

use std::sync::Arc;

use tpm_sync::{json, SpinLock};

use crate::cell::{Counter, Gauge};
use crate::histogram::{bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
use crate::hll::Hll;

/// Label set: ordered `(key, value)` pairs. Order is preserved as
/// registered; two series with the same pairs in different orders are
/// considered different (keep label order consistent at call sites).
pub type Labels = Vec<(String, String)>;

enum Kind {
    Counter { c: Arc<Counter>, scale: f64 },
    CounterFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram { h: Arc<Histogram>, scale: f64 },
    Hll(Arc<Hll>),
}

impl Kind {
    /// Prometheus `# TYPE` keyword for this instrument.
    fn type_str(&self) -> &'static str {
        match self {
            Kind::Counter { .. } | Kind::CounterFn(_) => "counter",
            Kind::Gauge(_) | Kind::GaugeFn(_) | Kind::Hll(_) => "gauge",
            Kind::Histogram { .. } => "histogram",
        }
    }

    /// Whether this series accumulates (deltas between snapshots make
    /// sense) or is a level (deltas don't).
    fn cumulative(&self) -> bool {
        matches!(
            self,
            Kind::Counter { .. } | Kind::CounterFn(_) | Kind::Histogram { .. }
        )
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Labels,
    kind: Kind,
}

/// A collection of named instruments that can be rendered as Prometheus
/// text exposition or captured as a structured [`Snapshot`].
pub struct Registry {
    entries: SpinLock<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            entries: SpinLock::new(Vec::new()),
        }
    }

    /// The process-wide registry, for instrumentation without a natural
    /// owner. Components with a lifecycle (like a server instance) should
    /// own their own `Registry` so tests stay isolated.
    pub fn global() -> &'static Registry {
        use std::sync::OnceLock;
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers (or re-fetches) a counter series. Registration is
    /// idempotent: the same `name`+`labels` returns the same cells, so two
    /// components can "register" the series and share it.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_scaled(name, help, labels, 1.0)
    }

    /// A counter whose exposed value is `count * scale` (e.g. a
    /// nanosecond-accumulating counter exposed in seconds with `scale =
    /// 1e-9`).
    pub fn counter_scaled(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Counter> {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Kind::Counter { c, .. } = &e.kind {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: Kind::Counter {
                c: Arc::clone(&c),
                scale,
            },
        });
        c
    }

    /// Registers a counter computed at scrape time (for totals that already
    /// live elsewhere, like a runtime's global spawn counter). The closure
    /// must not call back into this registry.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push_fn(name, help, labels, Kind::CounterFn(Box::new(f)));
    }

    /// Registers (or re-fetches) an up/down gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Kind::Gauge(g) = &e.kind {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: Kind::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers a gauge sampled at scrape time (queue depths, pool sizes —
    /// levels that already exist and just need reading). The closure must
    /// not call back into this registry.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push_fn(name, help, labels, Kind::GaugeFn(Box::new(f)));
    }

    /// Registers (or re-fetches) a histogram series recording raw `u64`s.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_scaled(name, help, labels, 1.0)
    }

    /// A histogram recording raw `u64`s but exposed with bucket bounds and
    /// sum multiplied by `scale` (record nanoseconds, expose seconds).
    pub fn histogram_scaled(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Histogram> {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Kind::Histogram { h, .. } = &e.kind {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: Kind::Histogram {
                h: Arc::clone(&h),
                scale,
            },
        });
        h
    }

    /// Registers (or re-fetches) a distinct-count sketch, exposed as a
    /// gauge holding the current cardinality estimate.
    pub fn hll(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Hll> {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Kind::Hll(h) = &e.kind {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Hll::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: Kind::Hll(Arc::clone(&h)),
        });
        h
    }

    /// Inserts or replaces a scrape-time closure entry.
    fn push_fn(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: Kind) {
        let labels = owned_labels(labels);
        let mut entries = self.entries.lock();
        if let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.labels == labels)
        {
            e.kind = kind;
            e.help = help.to_string();
        } else {
            entries.push(Entry {
                name: name.to_string(),
                help: help.to_string(),
                labels,
                kind,
            });
        }
    }

    /// Series names currently registered, in registration order, deduped.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock();
        let mut out: Vec<String> = Vec::new();
        for e in entries.iter() {
            if !out.contains(&e.name) {
                out.push(e.name.clone());
            }
        }
        out
    }

    /// Renders every series in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per metric name, one
    /// sample line per series, histograms as cumulative `_bucket{le=...}`
    /// plus `_sum`/`_count`. Empty histogram buckets are elided (the `+Inf`
    /// bucket is always present, which keeps the format valid and the
    /// output small).
    pub fn render(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::with_capacity(4096);
        // Group by name in first-seen order so HELP/TYPE appear once.
        let mut seen: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if seen.contains(&e.name.as_str()) {
                continue;
            }
            seen.push(&e.name);
            let group: Vec<&Entry> = entries.iter().filter(|x| x.name == e.name).collect();
            out.push_str("# HELP ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(&e.help.replace('\\', "\\\\").replace('\n', "\\n"));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(e.kind.type_str());
            out.push('\n');
            for g in group {
                render_entry(&mut out, g);
            }
        }
        out
    }

    /// Captures every series as structured values (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock();
        let series = entries
            .iter()
            .map(|e| {
                let value = match &e.kind {
                    Kind::Counter { c, scale } => SeriesValue::Float(c.get() as f64 * scale),
                    Kind::CounterFn(f) => SeriesValue::Float(f()),
                    Kind::Gauge(g) => SeriesValue::Float(g.get() as f64),
                    Kind::GaugeFn(f) => SeriesValue::Float(f()),
                    Kind::Histogram { h, scale } => SeriesValue::Histogram {
                        counts: h.snapshot(),
                        scale: *scale,
                    },
                    Kind::Hll(h) => SeriesValue::Float(h.estimate().round()),
                };
                Series {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    cumulative: e.kind.cumulative(),
                    value,
                }
            })
            .collect();
        Snapshot { series }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Formats a sample value: integral floats print without a fraction so
/// counters look like counts.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Writes `name{labels} value` (merging `extra` after the series labels).
fn render_sample(out: &mut String, name: &str, labels: &Labels, extra: &[(&str, &str)], v: f64) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, val) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(val));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(v));
    out.push('\n');
}

fn render_entry(out: &mut String, e: &Entry) {
    match &e.kind {
        Kind::Counter { c, scale } => {
            render_sample(out, &e.name, &e.labels, &[], c.get() as f64 * scale);
        }
        Kind::CounterFn(f) => render_sample(out, &e.name, &e.labels, &[], f()),
        Kind::Gauge(g) => render_sample(out, &e.name, &e.labels, &[], g.get() as f64),
        Kind::GaugeFn(f) => render_sample(out, &e.name, &e.labels, &[], f()),
        Kind::Hll(h) => render_sample(out, &e.name, &e.labels, &[], h.estimate().round()),
        Kind::Histogram { h, scale } => {
            let snap = h.snapshot();
            let bucket = format!("{}_bucket", e.name);
            let mut cum = 0u64;
            for i in 0..NUM_BUCKETS {
                if snap.buckets[i] == 0 {
                    continue;
                }
                cum += snap.buckets[i];
                let le = if i + 1 >= NUM_BUCKETS {
                    f64::INFINITY
                } else {
                    bucket_upper_bound(i) as f64 * scale
                };
                if le.is_finite() {
                    let le = format!("{le}");
                    render_sample(out, &bucket, &e.labels, &[("le", &le)], cum as f64);
                }
            }
            render_sample(out, &bucket, &e.labels, &[("le", "+Inf")], cum as f64);
            render_sample(
                out,
                &format!("{}_sum", e.name),
                &e.labels,
                &[],
                snap.sum as f64 * scale,
            );
            render_sample(
                out,
                &format!("{}_count", e.name),
                &e.labels,
                &[],
                cum as f64,
            );
        }
    }
}

/// One series in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// True for counters/histograms (deltas meaningful), false for levels.
    pub cumulative: bool,
    /// The captured value.
    pub value: SeriesValue,
}

/// The value captured for a series.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// A scalar (counter, gauge, or sketch estimate), already scaled.
    Float(f64),
    /// A histogram's raw bucket counts plus the exposition scale.
    Histogram {
        /// Raw (unscaled) bucket counts/sum/max.
        counts: HistogramSnapshot,
        /// Multiplier applied to values at exposition time.
        scale: f64,
    },
}

/// A point-in-time structured capture of a [`Registry`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All series, in registration order.
    pub series: Vec<Series>,
}

impl Snapshot {
    /// The scalar value of the series matching `name` and exactly `labels`
    /// (histograms report their observation count).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.series
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|s| match &s.value {
                SeriesValue::Float(v) => *v,
                SeriesValue::Histogram { counts, .. } => counts.count() as f64,
            })
    }

    /// Series-wise difference from an earlier snapshot: cumulative series
    /// subtract, levels keep their current value. Series absent from `prev`
    /// pass through unchanged.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                if !s.cumulative {
                    return s.clone();
                }
                let old = prev
                    .series
                    .iter()
                    .find(|p| p.name == s.name && p.labels == s.labels);
                let value = match (&s.value, old.map(|o| &o.value)) {
                    (SeriesValue::Float(a), Some(SeriesValue::Float(b))) => {
                        SeriesValue::Float((a - b).max(0.0))
                    }
                    (
                        SeriesValue::Histogram { counts, scale },
                        Some(SeriesValue::Histogram { counts: old, .. }),
                    ) => SeriesValue::Histogram {
                        counts: counts.delta(old),
                        scale: *scale,
                    },
                    (v, _) => v.clone(),
                };
                Series { value, ..s.clone() }
            })
            .collect();
        Snapshot { series }
    }

    /// Renders the snapshot as one line of JSON — the shutdown dump format.
    /// Histograms report `count`, `sum`, `p50`, `p90`, `p99`, `max` (all
    /// scaled) instead of raw buckets; a non-finite value is written as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, &s.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, k);
                out.push(':');
                json::write_str(&mut out, v);
            }
            out.push_str("},");
            match &s.value {
                SeriesValue::Float(v) => {
                    out.push_str("\"value\":");
                    out.push_str(&json::num(*v));
                }
                SeriesValue::Histogram { counts, scale } => {
                    out.push_str(&format!(
                        "\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}",
                        counts.count(),
                        json::num(counts.sum as f64 * scale),
                        json::num(counts.quantile(0.50) * scale),
                        json::num(counts.quantile(0.90) * scale),
                        json::num(counts.quantile(0.99) * scale),
                        json::num(counts.max as f64 * scale),
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("hits_total", "Hits.", &[("k", "v")]);
        let b = reg.counter("hits_total", "Hits.", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1, "same name+labels must share cells");
        let c = reg.counter("hits_total", "Hits.", &[("k", "other")]);
        c.add(5);
        assert_eq!(b.get(), 1, "different labels are a different series");
    }

    #[test]
    fn render_groups_help_and_type_once() {
        let reg = Registry::new();
        reg.counter("req_total", "Requests.", &[("outcome", "ok")])
            .add(3);
        reg.counter("req_total", "Requests.", &[("outcome", "err")])
            .add(1);
        let text = reg.render();
        assert_eq!(text.matches("# HELP req_total").count(), 1);
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{outcome=\"ok\"} 3"));
        assert!(text.contains("req_total{outcome=\"err\"} 1"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "Latency.", &[]);
        h.record(5);
        h.record(5);
        h.record(100);
        let text = reg.render();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"6\"} 2"), "text:\n{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum 110"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn scaled_histogram_scales_bounds_and_sum() {
        let reg = Registry::new();
        let h = reg.histogram_scaled("dur_seconds", "Duration.", &[], 1e-9);
        h.record(1_000_000_000); // 1s in ns
        let text = reg.render();
        assert!(text.contains("dur_seconds_sum 1\n"), "text:\n{text}");
        assert!(text.contains("dur_seconds_count 1"));
    }

    #[test]
    fn gauge_fn_sampled_at_scrape() {
        let reg = Registry::new();
        let level = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(7));
        let l2 = std::sync::Arc::clone(&level);
        reg.gauge_fn("depth", "Queue depth.", &[], move || {
            l2.load(std::sync::atomic::Ordering::Relaxed) as f64
        });
        assert!(reg.render().contains("depth 7"));
        level.store(9, std::sync::atomic::Ordering::Relaxed);
        assert!(reg.render().contains("depth 9"));
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c_total", "C.", &[]);
        let g = reg.gauge("g", "G.", &[]);
        c.add(10);
        g.add(5);
        let s1 = reg.snapshot();
        c.add(7);
        g.add(1);
        let s2 = reg.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.get("c_total", &[]), Some(7.0));
        assert_eq!(d.get("g", &[]), Some(6.0), "gauges keep the current level");
    }

    #[test]
    fn snapshot_to_json_is_flat_and_parsable_shape() {
        let reg = Registry::new();
        reg.counter("c_total", "C.", &[("a", "b")]).inc();
        reg.histogram("h", "H.", &[]).record(42);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"series\":["));
        assert!(json.contains("\"name\":\"c_total\""));
        assert!(json.contains("\"labels\":{\"a\":\"b\"}"));
        assert!(json.contains("\"count\":1"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn hll_renders_as_gauge() {
        let reg = Registry::new();
        let h = reg.hll("clients", "Distinct clients.", &[]);
        for i in 0..20u64 {
            h.insert_u64(i);
        }
        let text = reg.render();
        assert!(text.contains("# TYPE clients gauge"));
        assert!(text.contains("clients 20"), "text:\n{text}");
    }
}
