//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! it makes into a layer. They stay in memory while the run measures and
//! are written out once, when it ends.

use dhg_train::json::escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span that has started but not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    req: u64,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>, req: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            req,
            start: Instant::now(),
        }
    }

    /// End `open`, returning its duration in microseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        let us = span.micros();
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(span);
        us
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// Per span name: (count, total µs, self µs), where a span's self time
/// is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut covered = children.get(&s.id).cloned().unwrap_or_default();
        covered.sort_unstable();
        let (mut busy, mut reach) = (0u64, s.start_ns);
        for (a, b) in covered {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                busy += b - a;
                reach = b;
            }
        }
        let total = (s.end_ns - s.start_ns) as f64 / 1e3;
        let entry = out.entry(s.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total - busy as f64 / 1e3;
    }
    out
}

/// The spans and their per-name self times as one JSON document.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"header\":{header},\"self_times\":{{");
    for (i, (name, (count, total, own))) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{count},\"total_us\":{total:.3},\"self_us\":{own:.3}}}",
            escape(name)
        ));
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            escape(&s.name),
            s.req,
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "root", 0, 10_000),
            span(2, Some(1), "child", 1_000, 4_000),
            span(3, Some(1), "child", 3_000, 5_000), // overlaps the first
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 10.0, 6.0));
        assert_eq!(t["child"], (2, 5.0, 5.0));
        let doc = dhg_train::json::Value::parse(&to_json("{}", &spans)).expect("valid json");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
    }
}
