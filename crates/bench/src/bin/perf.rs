//! Machine-readable performance snapshot — the producer behind
//! `scripts/bench.sh` and the committed `BENCH_9.json`.
//!
//! Three sections:
//!
//! * **gemm** — per-kernel GFLOP/s on the two matmul families the model
//!   actually runs: a conv-shaped dense product (`[64, 576]·[576, 425]`,
//!   the im2col'd feature transform) measured on both the packed
//!   cache-blocked kernel and the retained reference `ikj` kernel, and an
//!   incidence-shaped mostly-zero product (hypergraph propagation)
//!   measured on the zero-skip auto dispatch and forced packed.
//! * **streaming** — per-frame incremental topology maintenance vs.
//!   per-window from-scratch reconstruction at `T = 64` on NTU-25 shapes,
//!   for both the kNN/k-medoid window topology
//!   ([`dhg_hypergraph::WindowTopology`]) and the Eq. 9 joint-weight
//!   operators ([`dhg_hypergraph::RollingOperators`]). The acceptance
//!   floor — maintenance ≥ 3× cheaper — is asserted, not just recorded.
//! * **serve** — client-observed p50/p95/p99 latency and throughput of
//!   the micro-batching engine at a fixed closed-loop offered load.
//!   `analyze --bench BENCH_9.json` reads this section and the gemm peak
//!   to check that the plan IR's predicted FLOPs stay physically possible.
//!
//! ```text
//! cargo run --release -p dhg-bench --bin perf -- --out BENCH_9.json \
//!     --baseline BENCH_8.json --tolerance 0.5
//! cargo run --release -p dhg-bench --bin perf -- --smoke --out target/BENCH_9.smoke.json
//! ```
//!
//! `--smoke` shrinks repetitions and the request count so the tier-1 gate
//! exercises every code path in seconds; the JSON schema is identical.
//! `--baseline` replays the gemm section against a previous snapshot's
//! numbers and fails the run when any kernel regresses past
//! `--tolerance` (a fraction of the baseline rate) — the regression gate
//! `scripts/bench.sh` applies on full runs.

use dhg_hypergraph::{
    dynamic_operators, from_scratch_operator, RollingOperators, TopologyConfig, WindowTopology,
};
use dhg_skeleton::{static_hypergraph, SkeletonTopology};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::NdArray;
use dhg_train::json::Value;
use dhg_train::serve::{Pending, ServeConfig, ServeEngine, ServeError};
use dhg_train::zoo::Zoo;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    out: String,
    smoke: bool,
    threads: usize,
    baseline: Option<String>,
    tolerance: f64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            out: "BENCH_9.json".into(),
            smoke: false,
            threads: 8,
            baseline: None,
            tolerance: 0.5,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().ok_or("--out needs a path")?,
                "--smoke" => args.smoke = true,
                "--threads" => {
                    args.threads = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a number")?
                }
                "--baseline" => {
                    args.baseline = Some(it.next().ok_or("--baseline needs a path")?)
                }
                "--tolerance" => {
                    args.tolerance = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--tolerance needs a fraction in [0, 1)")?
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(0.0..1.0).contains(&args.tolerance) {
            return Err("--tolerance must be a fraction in [0, 1)".into());
        }
        Ok(args)
    }
}

fn filled(shape: &[usize], seed: u64) -> NdArray {
    let n: usize = shape.iter().product();
    let mut s = seed | 1;
    let data = (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    NdArray::from_vec(data, shape)
}

/// Incidence-like operand: `nnz_per_row` ones scattered per row, the rest
/// exactly zero — the density profile of a hypergraph `H` product.
fn incidence(rows: usize, cols: usize, nnz_per_row: usize) -> NdArray {
    let mut data = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for j in 0..nnz_per_row {
            data[r * cols + (r * 7 + j * 41) % cols] = 1.0;
        }
    }
    NdArray::from_vec(data, &[rows, cols])
}

struct GemmResult {
    name: &'static str,
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    gflops: f64,
}

/// Median-of-samples GFLOP/s for one kernel on one shape. Each sample
/// iterates long enough to drown scheduling noise.
fn gflops(a: &NdArray, b: &NdArray, threads: usize, smoke: bool, f: impl Fn(&NdArray, &NdArray) -> NdArray) -> f64 {
    let (m, k) = (a.shape()[a.ndim() - 2], a.shape()[a.ndim() - 1]);
    let n = b.shape()[b.ndim() - 1];
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let (samples, min_iters, target) = if smoke { (3, 1, 0.005) } else { (9, 4, 0.10) };
    with_threads(threads, || {
        std::hint::black_box(f(a, b)); // warm packs, pools, page faults
        // size iterations to the per-sample time target
        let t0 = Instant::now();
        std::hint::black_box(f(a, b));
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((target / once).ceil() as usize).max(min_iters);
        let mut rates: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f(a, b));
                }
                flops * iters as f64 / start.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        rates.sort_by(|x, y| x.partial_cmp(y).unwrap());
        rates[rates.len() / 2]
    })
}

fn gemm_section(args: &Args) -> Vec<GemmResult> {
    let mut results = Vec::new();
    // conv-shaped: the im2col'd feature transform of the acceptance bar
    let a = filled(&[64, 576], 42);
    let b = filled(&[576, 425], 43);
    // incidence-shaped: mostly-zero lhs, hypergraph propagation profile
    let hi = incidence(256, 512, 24);
    let hb = filled(&[512, 128], 44);
    for &threads in &[1usize, args.threads] {
        results.push(GemmResult {
            name: "conv_64x576x425",
            kernel: "packed",
            m: 64,
            k: 576,
            n: 425,
            threads,
            gflops: gflops(&a, &b, threads, args.smoke, |a, b| a.matmul_packed(b)),
        });
        results.push(GemmResult {
            name: "conv_64x576x425",
            kernel: "reference",
            m: 64,
            k: 576,
            n: 425,
            threads,
            gflops: gflops(&a, &b, threads, args.smoke, |a, b| a.matmul_reference(b)),
        });
        results.push(GemmResult {
            name: "incidence_256x512x128",
            kernel: "auto_zero_skip",
            m: 256,
            k: 512,
            n: 128,
            threads,
            gflops: gflops(&hi, &hb, threads, args.smoke, |a, b| a.matmul(b)),
        });
        results.push(GemmResult {
            name: "incidence_256x512x128",
            kernel: "packed",
            m: 256,
            k: 512,
            n: 128,
            threads,
            gflops: gflops(&hi, &hb, threads, args.smoke, |a, b| a.matmul_packed(b)),
        });
    }
    results
}

struct StreamingResult {
    name: &'static str,
    window: usize,
    v: usize,
    pushes: usize,
    maintain_us_per_frame: f64,
    rebuild_us_per_window: f64,
    speedup: f64,
}

/// One frame of a drifting synthetic skeleton: a fixed base pose plus
/// slow per-joint sinusoidal motion, `[V, D]` flattened.
fn skeleton_frame(t: usize, v: usize, d: usize) -> Vec<f32> {
    (0..v * d)
        .map(|i| {
            let (vi, ci) = (i / d, i % d);
            let base = ((vi * 37 + ci * 11) as f32 * 0.31).sin();
            base + (t as f32 * 0.08 + vi as f32 * 0.5 + ci as f32).sin() * 0.05
        })
        .collect()
}

/// Per-frame incremental topology maintenance vs. per-window from-scratch
/// reconstruction at `T = 64` on NTU-25 shapes — the structural streaming
/// advantage: a sliding window shares `T − 1` frames with its
/// predecessor, so maintenance builds one topology per frame where the
/// naive path rebuilds all `T`.
fn streaming_section(args: &Args) -> Vec<StreamingResult> {
    let (t, v, d) = (64usize, 25usize, 3usize);
    let (pushes, windows) = if args.smoke { (16, 2) } else { (128, 8) };
    let mut results = Vec::new();

    // kNN + k-medoid window topology (§3.4 dynamic hyperedges)
    let config = TopologyConfig::new(4, 8, 7).with_threshold(0.02);
    let mut ring = WindowTopology::new(t, config);
    for ti in 0..t {
        ring.push(&skeleton_frame(ti, v, d), v, d);
    }
    let start = Instant::now();
    for ti in t..t + pushes {
        ring.push(&skeleton_frame(ti, v, d), v, d);
        std::hint::black_box(ring.is_full());
    }
    let maintain_us = start.elapsed().as_secs_f64() * 1e6 / pushes as f64;
    let start = Instant::now();
    for w in 0..windows {
        for ti in w..w + t {
            std::hint::black_box(from_scratch_operator(
                &skeleton_frame(ti, v, d),
                v,
                d,
                &config,
            ));
        }
    }
    let rebuild_us = start.elapsed().as_secs_f64() * 1e6 / windows as f64;
    results.push(StreamingResult {
        name: "window_topology",
        window: t,
        v,
        pushes,
        maintain_us_per_frame: maintain_us,
        rebuild_us_per_window: rebuild_us,
        speedup: rebuild_us / maintain_us,
    });

    // Eq. 9 moving-distance joint-weight operators (§3.3)
    let hg = static_hypergraph(&SkeletonTopology::ntu25());
    let mut rolling = RollingOperators::new(t, hg.clone(), d);
    for ti in 0..t {
        rolling.push(&skeleton_frame(ti, v, d));
    }
    let start = Instant::now();
    for ti in t..t + pushes {
        rolling.push(&skeleton_frame(ti, v, d));
        std::hint::black_box(rolling.is_full());
    }
    let maintain_us = start.elapsed().as_secs_f64() * 1e6 / pushes as f64;
    let start = Instant::now();
    for w in 0..windows {
        let coords: Vec<f32> =
            (w..w + t).flat_map(|ti| skeleton_frame(ti, v, d)).collect();
        let stream = NdArray::from_vec(coords, &[t, v, d]);
        std::hint::black_box(dynamic_operators(&hg, &stream));
    }
    let rebuild_us = start.elapsed().as_secs_f64() * 1e6 / windows as f64;
    results.push(StreamingResult {
        name: "rolling_joint_weights",
        window: t,
        v,
        pushes,
        maintain_us_per_frame: maintain_us,
        rebuild_us_per_window: rebuild_us,
        speedup: rebuild_us / maintain_us,
    });
    results
}

struct ServeResult {
    requests: usize,
    clients: usize,
    window: usize,
    frames: usize,
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Deterministic single-sample input `[C, T, V]`, distinct per seed.
fn sample(seed: usize, t: usize) -> NdArray {
    NdArray::from_vec(
        (0..3 * t * 25).map(|i| ((i * 7 + seed * 1009) as f32 * 0.0173).sin()).collect(),
        &[3, t, 25],
    )
}

/// Fixed closed-loop offered load (`clients` threads, `window` in flight
/// each); every request's client-observed latency is recorded and the
/// quantiles are read off the sorted set.
fn serve_section(args: &Args) -> ServeResult {
    let (requests, clients, window, frames) = if args.smoke { (48, 2, 2, 8) } else { (512, 4, 4, 16) };
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let engine = ServeEngine::start(
        move || zoo.dhgcn_lite(),
        &[3, frames, 25],
        ServeConfig {
            max_batch: 4,
            queue_cap: 64,
            workers: 1,
            threads_per_worker: 1,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    engine.infer(sample(0, frames)).expect("warmup");

    let start = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let engine = &engine;
                scope.spawn(move || {
                    let share = requests / clients + usize::from(client < requests % clients);
                    let mut latencies = Vec::with_capacity(share);
                    let mut inflight: Vec<(Instant, Pending)> = Vec::with_capacity(window);
                    for i in 0..share {
                        let seed = client * 100_003 + i;
                        loop {
                            match engine.submit(sample(seed, frames)) {
                                Ok(p) => {
                                    inflight.push((Instant::now(), p));
                                    break;
                                }
                                Err(ServeError::Rejected { .. }) => {
                                    if let Some((t0, p)) = inflight.pop() {
                                        p.wait().expect("reply");
                                        latencies.push(t0.elapsed().as_micros() as u64);
                                    } else {
                                        std::thread::yield_now();
                                    }
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        }
                        if inflight.len() >= window {
                            let (t0, p) = inflight.remove(0);
                            p.wait().expect("reply");
                            latencies.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    for (t0, p) in inflight {
                        p.wait().expect("reply");
                        latencies.push(t0.elapsed().as_micros() as u64);
                    }
                    latencies
                })
            })
            .collect();
        for h in handles {
            all_latencies.extend(h.join().expect("client thread"));
        }
    });
    let rps = all_latencies.len() as f64 / start.elapsed().as_secs_f64();
    engine.shutdown();

    all_latencies.sort_unstable();
    let q = |p: f64| -> u64 {
        let idx = ((all_latencies.len() as f64 - 1.0) * p).round() as usize;
        all_latencies[idx]
    };
    ServeResult {
        requests: all_latencies.len(),
        clients,
        window,
        frames,
        rps,
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
    }
}

fn write_json(
    args: &Args,
    gemm: &[GemmResult],
    streaming: &[StreamingResult],
    serve: &ServeResult,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": 9,\n  \"smoke\": {},\n", args.smoke));
    s.push_str("  \"gemm\": [\n");
    for (i, g) in gemm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"threads\": {}, \"gflops\": {:.3}}}{}\n",
            g.name,
            g.kernel,
            g.m,
            g.k,
            g.n,
            g.threads,
            g.gflops,
            if i + 1 < gemm.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"streaming\": [\n");
    for (i, r) in streaming.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"window\": {}, \"v\": {}, \"pushes\": {}, \
             \"maintain_us_per_frame\": {:.2}, \"rebuild_us_per_window\": {:.2}, \
             \"speedup\": {:.2}}}{}\n",
            r.name,
            r.window,
            r.v,
            r.pushes,
            r.maintain_us_per_frame,
            r.rebuild_us_per_window,
            r.speedup,
            if i + 1 < streaming.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"serve\": {{\"model\": \"DHGCN-lite\", \"requests\": {}, \"clients\": {}, \
         \"window\": {}, \"frames\": {}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \
         \"p99_us\": {}}}\n",
        serve.requests, serve.clients, serve.window, serve.frames, serve.rps, serve.p50_us,
        serve.p95_us, serve.p99_us
    ));
    s.push_str("}\n");
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&args.out, s)
}

/// Compare the fresh gemm section against a previous snapshot's numbers,
/// keyed by `(name, kernel, threads)`. A kernel more than `tolerance`
/// (fractionally) below its baseline rate is a regression and fails the
/// run. Kernels absent from the baseline are skipped — the gate only
/// tightens on shapes both snapshots measured.
fn check_baseline(args: &Args, gemm: &[GemmResult]) -> Result<(), String> {
    let Some(path) = &args.baseline else { return Ok(()) };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline =
        Value::parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
    let old = baseline
        .get("gemm")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("baseline {path} has no gemm section"))?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for g in gemm {
        let matched = old.iter().find(|entry| {
            entry.get("name").and_then(Value::as_str) == Some(g.name)
                && entry.get("kernel").and_then(Value::as_str) == Some(g.kernel)
                && entry.get("threads").and_then(Value::as_f64) == Some(g.threads as f64)
        });
        let Some(was) = matched.and_then(|e| e.get("gflops").and_then(Value::as_f64)) else {
            continue;
        };
        compared += 1;
        let floor = was * (1.0 - args.tolerance);
        if g.gflops < floor {
            failures.push(format!(
                "  {} {} threads={}: {:.2} GFLOP/s < floor {:.2} (baseline {:.2}, tolerance {:.0}%)",
                g.name,
                g.kernel,
                g.threads,
                g.gflops,
                floor,
                was,
                args.tolerance * 100.0
            ));
        }
    }
    println!(
        "baseline {path}: {compared} kernels compared, {} regression(s)",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("gemm regression past tolerance:\n{}", failures.join("\n")))
    }
}

/// The acceptance floor for streaming maintenance: ≥ 3× cheaper per frame
/// than per-window from-scratch reconstruction.
const STREAMING_SPEEDUP_FLOOR: f64 = 3.0;

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perf: {why}");
            eprintln!(
                "usage: perf [--smoke] [--out PATH] [--threads N] [--baseline PATH] [--tolerance F]"
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== perf: GEMM GFLOP/s + streaming maintenance + serve latency quantiles ({}) ==",
        if args.smoke { "smoke" } else { "full" }
    );
    let gemm = gemm_section(&args);
    for g in &gemm {
        println!("gemm  {:<24} {:<15} threads={} {:>8.2} GFLOP/s", g.name, g.kernel, g.threads, g.gflops);
    }
    let streaming = streaming_section(&args);
    for r in &streaming {
        println!(
            "stream {:<22} T={} V={} maintain={:.1}us/frame rebuild={:.1}us/window speedup={:.1}x",
            r.name, r.window, r.v, r.maintain_us_per_frame, r.rebuild_us_per_window, r.speedup
        );
    }
    let serve = serve_section(&args);
    println!(
        "serve DHGCN-lite(tiny)  {} requests  {:.1} req/s  p50={}us p95={}us p99={}us",
        serve.requests, serve.rps, serve.p50_us, serve.p95_us, serve.p99_us
    );
    if let Err(e) = write_json(&args, &gemm, &streaming, &serve) {
        eprintln!("perf: failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    let mut ok = true;
    for r in &streaming {
        if r.speedup < STREAMING_SPEEDUP_FLOOR {
            eprintln!(
                "perf: streaming {} speedup {:.2}x is below the {:.0}x acceptance floor",
                r.name, r.speedup, STREAMING_SPEEDUP_FLOOR
            );
            ok = false;
        }
    }
    if let Err(why) = check_baseline(&args, &gemm) {
        eprintln!("perf: {why}");
        ok = false;
    }
    if ok {
        println!("== perf: OK ==");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
