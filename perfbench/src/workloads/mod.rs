//! The workloads. Each one sets itself up [`SETUPS`] times over the run,
//! runs a measured loop, checks every output it gets, and in the traced
//! run replays its inputs through the layers below it (see `layers`).

pub mod net_mixed;
pub mod train_epoch;

use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Violations kept verbatim per run (the rest are only counted).
const KEEP_VIOLATIONS: usize = 8;

/// What the command line asks of a workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One measured loop.
#[derive(Default)]
pub struct LoopStats {
    /// Latency of each unit of work, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units counted by `throughput_per_s` (requests or training
    /// samples).
    pub work: f64,
    pub elapsed_s: f64,
    /// Work per second of each measured slice that attempted any work.
    pub slice_rates: Vec<f64>,
    pub attempted: u64,
    /// Typed failures the program reported, shed requests included.
    pub failed: u64,
    /// Requests the program shed under load (also counted in `failed`).
    pub shed: u64,
    /// Outputs that were wrong or failures that were not typed.
    pub violations: Vec<String>,
    pub violation_count: u64,
}

impl LoopStats {
    pub fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < KEEP_VIOLATIONS {
            self.violations.push(what);
        }
    }

    pub fn absorb(&mut self, other: LoopStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.work += other.work;
        self.elapsed_s += other.elapsed_s;
        self.slice_rates.extend(other.slice_rates);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.violation_count += other.violation_count;
        for v in other.violations {
            if self.violations.len() < KEEP_VIOLATIONS {
                self.violations.push(v);
            }
        }
    }
}

/// Everything a workload run produced.
pub struct Outcome {
    /// The unit of work `p50_ms` and `tail_ms` time, and the unit
    /// `throughput_per_s` counts, for the human-readable report.
    pub unit: &'static str,
    pub work_unit: &'static str,
    pub setup_s: Vec<f64>,
    pub stats: LoopStats,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
}

/// What [`measure`] hands back: the state the loop ran on, the time of
/// every set-up, and the loop's statistics.
pub struct Measured<S> {
    pub live: S,
    pub setup_s: Vec<f64>,
    pub stats: LoopStats,
}

/// Set the workload up, then run `body` on that state for the configured
/// time in `SETUPS - 1` slices, each ending at its share of the run. A
/// spare set-up follows every slice and is timed and dropped, so the
/// `SETUPS` set-up times sample the whole run, not only its first moment.
/// Each slice's work per second is kept, and `throughput_per_s` is their
/// median, so a slow phase of the host shorter than a slice moves it
/// little. Untraced, every slice runs untraced. Traced, the first half of the
/// slices runs untraced and the second half traced, and the difference of
/// their median latencies is the tracing overhead.
pub fn measure<S>(
    cfg: &Config,
    tracer: &Tracer,
    layers: &mut BTreeMap<String, f64>,
    mut setup: impl FnMut() -> Result<S, String>,
    mut body: impl FnMut(&mut S, Instant, Option<&Tracer>) -> LoopStats,
) -> Result<Measured<S>, String> {
    let slices = SETUPS - 1;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed = || -> Result<S, String> {
        let t0 = Instant::now();
        let state = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(state)
    };
    let mut live = timed()?;
    let start = Instant::now();
    let (mut plain, mut traced) = (LoopStats::default(), LoopStats::default());
    for k in 0..slices {
        let share = cfg.seconds * (k + 1) as f64 / slices as f64;
        let deadline = start + Duration::from_secs_f64(share);
        let t = (cfg.trace && k >= slices / 2).then_some(tracer);
        let mut slice = body(&mut live, deadline, t);
        if slice.attempted > 0 {
            slice.slice_rates = vec![slice.work / slice.elapsed_s.max(1e-9)];
        }
        if t.is_some() {
            traced.absorb(slice);
        } else {
            plain.absorb(slice);
        }
        drop(timed()?);
    }
    if cfg.trace {
        let (a, b) = (median(&plain.latencies_ms), median(&traced.latencies_ms));
        layers.insert(
            "trace.overhead_pct".into(),
            if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 },
        );
        plain.absorb(traced);
    }
    Ok(Measured {
        live,
        setup_s,
        stats: plain,
    })
}

/// Exact bit patterns of a logits row, for bitwise comparison.
pub fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
