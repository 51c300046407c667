//! Classification metrics — Top-k accuracy (the paper reports Top-1/Top-5)
//! and confusion matrices — plus the thread-safe *serving* metrics
//! primitives ([`Counter`], [`Gauge`], [`Histogram`]) and the named
//! [`Registry`] the `dhg-train` serve engine instruments its request path
//! with.
//!
//! The serving primitives are deliberately lock-free on the hot path:
//! every update is a relaxed atomic, so observing a latency or bumping a
//! counter costs nanoseconds and never serialises concurrent request
//! threads. Quantiles come from fixed bucket boundaries (set at
//! construction), so a histogram is a handful of atomics — no sample
//! buffers, no allocation after construction, safe to keep in a
//! long-running process forever.

use dhg_tensor::NdArray;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fraction of rows whose true label is among the `k` highest-scoring
/// classes. `scores` is `[N, K]`.
pub fn top_k_accuracy(scores: &NdArray, labels: &[usize], k: usize) -> f32 {
    assert_eq!(scores.ndim(), 2, "scores must be [N, K]");
    let (n, classes) = (scores.shape()[0], scores.shape()[1]);
    assert_eq!(n, labels.len(), "scores/labels length mismatch");
    assert!(k >= 1 && k <= classes, "k must be in 1..={classes}");
    if n == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    for (row, &label) in scores.data().chunks_exact(classes).zip(labels) {
        let target = row[label];
        // rank = how many classes strictly beat the target (ties resolved
        // in the target's favour, matching argsort-stable evaluation)
        let beaten = row.iter().filter(|&&v| v > target).count();
        if beaten < k {
            hits += 1;
        }
    }
    hits as f32 / n as f32
}

/// Row-normalised confusion matrix `[K, K]`: entry `(i, j)` is the
/// fraction of true-class-`i` samples predicted as class `j`.
pub fn confusion_matrix(scores: &NdArray, labels: &[usize], n_classes: usize) -> NdArray {
    assert_eq!(scores.ndim(), 2, "scores must be [N, K]");
    let preds = scores.argmax_last();
    let mut counts = NdArray::zeros(&[n_classes, n_classes]);
    let mut row_totals = vec![0usize; n_classes];
    for (&pred, &label) in preds.iter().zip(labels) {
        assert!(label < n_classes && pred < n_classes, "class out of range");
        let cur = counts.at(&[label, pred]);
        counts.set(&[label, pred], cur + 1.0);
        row_totals[label] += 1;
    }
    for (i, &total) in row_totals.iter().enumerate() {
        if total > 0 {
            for j in 0..n_classes {
                let v = counts.at(&[i, j]);
                counts.set(&[i, j], v / total as f32);
            }
        }
    }
    counts
}

/// A monotonically increasing event count (requests served, batches run,
/// requests shed). Relaxed atomics: cheap from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (queue depth, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations (latency in
/// microseconds, batch sizes). Buckets are inclusive upper bounds fixed at
/// construction; one implicit overflow bucket catches everything larger.
/// Quantiles are resolved to the bucket boundary at or above the requested
/// rank — an upper bound on the true quantile, tight when buckets are
/// dense (the exponential layout doubles, so the bound is within 2×).
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds; the `counts` vector has
    /// one extra slot for observations above the last bound.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Mean observed value (0 when empty).
    pub mean: f64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound, clamped to the observed max); `None`
    /// when nothing was observed — an empty histogram has no quantiles,
    /// and reporting `0` would read as an observed value.
    pub p50: Option<u64>,
    /// 95th percentile (same resolution).
    pub p95: Option<u64>,
    /// 99th percentile (same resolution).
    pub p99: Option<u64>,
}

/// Render an optional quantile: the value, or `-` for "never observed".
fn fmt_q(q: Option<u64>) -> String {
    match q {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

impl std::fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p95={} p99={} max={}",
            self.count,
            self.mean,
            self.min,
            fmt_q(self.p50),
            fmt_q(self.p95),
            fmt_q(self.p99),
            self.max
        )
    }
}

impl Histogram {
    /// A histogram over explicit inclusive upper bounds. Bounds must be
    /// non-empty and strictly increasing.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Exponential bucket layout: `start, start*2, start*4, …` for `n`
    /// buckets (saturating). The standard latency layout: `exponential(1,
    /// 27)` spans 1 µs to ~67 s in doublings.
    pub fn exponential(start: u64, n: usize) -> Self {
        assert!(start > 0 && n > 0, "exponential histogram needs start > 0 and n > 0");
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            if bounds.last() == Some(&b) {
                break; // saturated
            }
            bounds.push(b);
            b = b.saturating_mul(2);
        }
        Histogram::with_bounds(bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound clamped to
    /// the observed maximum. `None` when the histogram is empty: an
    /// unobserved distribution has no quantiles, and the old `0` return
    /// was indistinguishable from a genuine 0-valued observation.
    /// Observations in the implicit overflow bucket resolve to the
    /// observed maximum, never to the last finite boundary.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let max = self.max.load(Ordering::Relaxed);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b.min(max),
                    None => max, // overflow bucket: clamp to observed max
                });
            }
        }
        Some(max)
    }

    /// Consistent point-in-time summary (reads are relaxed; under
    /// concurrent writes the fields may be off by in-flight observations,
    /// which is fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Compose a labeled metric name in the conventional
/// `base{key="value",…}` form, so one [`Registry`] can hold per-tenant
/// (or per-model) series of the same base metric. Label values are
/// escaped for quotes/backslashes so the rendered name stays parseable;
/// keys are code-controlled identifiers and are emitted verbatim.
///
/// ```
/// use dhg_nn::metrics::labeled;
/// assert_eq!(
///     labeled("net-requests-total", &[("tenant", "acme")]),
///     "net-requests-total{tenant=\"acme\"}"
/// );
/// ```
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// One named metric in a [`Registry`].
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of serving metrics. Handles are `Arc`s: register
/// once, then update lock-free from any thread. Registering the same name
/// twice returns the existing handle (or panics if the kinds disagree —
/// that is a naming bug, not a runtime condition).
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name`; `make` builds it on first
    /// registration (so different histograms can use different layouts).
    pub fn histogram(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(make())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Unregister `name`, returning whether it was registered. Handles
    /// already given out keep working but no longer render. A series
    /// whose label names something retired (a replaced model version)
    /// must be removed, or the registry grows with every replacement.
    pub fn remove(&self, name: &str) -> bool {
        self.metrics.lock().unwrap().remove(name).is_some()
    }

    /// Human-readable dump, one `name value` line per metric, sorted by
    /// name (histograms render their snapshot summary).
    pub fn render_text(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => out.push_str(&format!("{name} {}\n", h.snapshot())),
            }
        }
        out
    }

    /// JSON object dump (counters and gauges as numbers, histograms as
    /// objects with count/sum/mean/min/max/p50/p95/p99; empty-histogram
    /// quantiles are `null`, not 0). Names are JSON-escaped: [`labeled`]
    /// series embed quotes.
    pub fn to_json(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let fields: Vec<String> = m
            .iter()
            .map(|(raw_name, metric)| {
                let name = raw_name.replace('\\', "\\\\").replace('"', "\\\"");
                match metric {
                    Metric::Counter(c) => format!("\"{name}\":{}", c.get()),
                    Metric::Gauge(g) => format!("\"{name}\":{}", g.get()),
                    Metric::Histogram(h) => {
                        let s = h.snapshot();
                        let q = |v: Option<u64>| match v {
                            Some(v) => v.to_string(),
                            None => "null".to_string(),
                        };
                        format!(
                            "\"{name}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"min\":{},\
                             \"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            s.count,
                            s.sum,
                            s.mean,
                            s.min,
                            s.max,
                            q(s.p50),
                            q(s.p95),
                            q(s.p99)
                        )
                    }
                }
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores() -> NdArray {
        // 3 samples, 4 classes
        NdArray::from_vec(
            vec![
                0.9, 0.05, 0.03, 0.02, // pred 0
                0.1, 0.2, 0.6, 0.1, // pred 2
                0.25, 0.30, 0.25, 0.20, // pred 1
            ],
            &[3, 4],
        )
    }

    #[test]
    fn top1_counts_exact_hits() {
        let s = scores();
        assert!((top_k_accuracy(&s, &[0, 2, 1], 1) - 1.0).abs() < 1e-6);
        assert!((top_k_accuracy(&s, &[0, 1, 1], 1) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn topk_grows_with_k() {
        let s = scores();
        let labels = [3usize, 3, 3];
        let t1 = top_k_accuracy(&s, &labels, 1);
        let t2 = top_k_accuracy(&s, &labels, 2);
        let t4 = top_k_accuracy(&s, &labels, 4);
        assert!(t1 <= t2 && t2 <= t4);
        assert!((t4 - 1.0).abs() < 1e-6, "top-K with K = classes is always 1");
    }

    #[test]
    fn ties_resolve_in_favour_of_target() {
        let s = NdArray::from_vec(vec![0.5, 0.5], &[1, 2]);
        assert!((top_k_accuracy(&s, &[1], 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn confusion_matrix_rows_sum_to_one() {
        let s = scores();
        let cm = confusion_matrix(&s, &[0, 2, 2], 4);
        // class 0 row: all mass on prediction 0
        assert!((cm.at(&[0, 0]) - 1.0).abs() < 1e-6);
        // class 2 row: one sample predicted 2, one predicted 1
        assert!((cm.at(&[2, 2]) - 0.5).abs() < 1e-6);
        assert!((cm.at(&[2, 1]) - 0.5).abs() < 1e-6);
        // unobserved class rows are zero
        assert_eq!(cm.at(&[3, 3]), 0.0);
    }

    #[test]
    fn empty_input_is_zero_accuracy() {
        let s = NdArray::zeros(&[0, 4]);
        assert_eq!(top_k_accuracy(&s, &[], 1), 0.0);
    }

    #[test]
    fn counter_and_gauge_update_across_threads() {
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        g.add(2);
                        g.add(-1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(g.get(), 4000);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let h = Histogram::exponential(1, 20);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500500);
        let s = h.snapshot();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // bucket-resolved quantiles are upper bounds within one doubling
        let (p50, p95, p99) = (s.p50.unwrap(), s.p95.unwrap(), s.p99.unwrap());
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
        assert!((950..=1900).contains(&p95), "p95 = {p95}");
        assert!(p99 >= 990, "p99 = {p99}");
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_quantiles_to_observed_max() {
        let h = Histogram::exponential(1, 30);
        h.observe(3);
        h.observe(3);
        let s = h.snapshot();
        // both observations land in the (2, 4] bucket; the boundary 4
        // exceeds the observed max and must be clamped back to 3
        assert_eq!(s.p50, Some(3));
        assert_eq!(s.p99, Some(3));
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = Histogram::with_bounds(vec![10, 20]);
        h.observe(5);
        h.observe(1_000_000);
        assert_eq!(h.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        // regression: an empty histogram used to report p50=0 as if a
        // 0-valued latency had been observed
        let h = Histogram::exponential(1, 8);
        assert_eq!(h.quantile(0.5), None);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!((s.p50, s.p95, s.p99), (None, None, None));
        assert_eq!(format!("{s}"), "n=0 mean=0.0 min=0 p50=- p95=- p99=- max=0");
    }

    #[test]
    fn all_overflow_histogram_clamps_every_quantile_to_observed_max() {
        // regression: every observation past the last finite boundary must
        // resolve quantiles to the observed max, not the boundary 20
        let h = Histogram::with_bounds(vec![10, 20]);
        h.observe(500);
        h.observe(900);
        h.observe(700);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(900), "q={q}");
        }
        let s = h.snapshot();
        assert_eq!((s.p50, s.p95, s.p99), (Some(900), Some(900), Some(900)));
    }

    #[test]
    fn single_observation_pins_every_quantile() {
        let h = Histogram::exponential(1, 27);
        h.observe(123);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, 123, 123));
        assert_eq!((s.p50, s.p95, s.p99), (Some(123), Some(123), Some(123)));
        // the same holds for a single 0-valued observation — which the old
        // empty-histogram sentinel made unrepresentable
        let z = Histogram::exponential(1, 8);
        z.observe(0);
        assert_eq!(z.quantile(0.5), Some(0));
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn labeled_names_compose_and_render() {
        assert_eq!(labeled("reqs", &[]), "reqs");
        assert_eq!(labeled("reqs", &[("tenant", "acme")]), "reqs{tenant=\"acme\"}");
        assert_eq!(
            labeled("reqs", &[("tenant", "a"), ("model", "DHGCN")]),
            "reqs{tenant=\"a\",model=\"DHGCN\"}"
        );
        // hostile label values stay parseable in text and JSON renders
        assert_eq!(labeled("reqs", &[("t", "a\"b")]), "reqs{t=\"a\\\"b\"}");
        let r = Registry::new();
        r.counter(&labeled("net-requests-total", &[("tenant", "acme")])).inc();
        let text = r.render_text();
        assert!(text.contains("net-requests-total{tenant=\"acme\"} 1"), "{text}");
        let json = r.to_json();
        assert!(
            json.contains("\"net-requests-total{tenant=\\\"acme\\\"}\":1"),
            "{json}"
        );
    }

    #[test]
    fn registry_returns_shared_handles_and_renders() {
        let r = Registry::new();
        let c1 = r.counter("requests-total");
        let c2 = r.counter("requests-total");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2, "same name must alias the same counter");
        r.gauge("queue-depth").set(5);
        r.histogram("latency-us", || Histogram::exponential(1, 27)).observe(123);
        let text = r.render_text();
        assert!(text.contains("requests-total 2"), "{text}");
        assert!(text.contains("queue-depth 5"), "{text}");
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests-total\":2"), "{json}");
        assert!(json.contains("\"latency-us\":{\"count\":1"), "{json}");
    }

    #[test]
    fn removed_metrics_stop_rendering_and_can_be_re_registered() {
        let r = Registry::new();
        let old = r.counter("requests-total");
        old.inc();
        assert!(r.remove("requests-total"));
        assert!(!r.remove("requests-total"), "a second remove finds nothing");
        old.inc(); // an outstanding handle stays usable
        assert!(!r.render_text().contains("requests-total"));
        assert_eq!(r.counter("requests-total").get(), 0, "a new series starts at zero");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_clashes() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
