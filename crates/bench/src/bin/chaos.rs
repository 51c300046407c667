//! Chaos driver: runs the serving and training robustness contracts
//! under seeded fault injection and fails loudly if any is violated.
//!
//! ```text
//! cargo run --release -p dhg-bench --bin chaos                  # full run
//! cargo run --release -p dhg-bench --bin chaos -- --smoke       # CI gate
//! cargo run --release -p dhg-bench --bin chaos -- --seed 99
//! DHGCN_FAULTS='seed=7,worker-death=0.05:4;batch-panic=0.2' \
//!     cargo run --release -p dhg-bench --bin chaos
//! ```
//!
//! Faults are deterministic in `(seed, site, call index)` — rerunning
//! with the seed a failing run printed replays it exactly. The fault mix
//! comes from the `DHGCN_FAULTS` env var when set (the same grammar the
//! library's [`dhg_nn::fault::install_from_env`] consumes), otherwise
//! from a built-in storm derived from `--seed`.
//!
//! Contracts checked (the binary exits non-zero if any fails):
//!
//! 1. **Self-healing**: injected worker deaths are respawned and every
//!    request is still answered with logits bitwise-equal to the
//!    sequential [`dhg_train::InferenceSession`] reference.
//! 2. **Reply-or-typed-error + conservation**: under a mixed fault storm
//!    every accepted request resolves — `completed + failed + bad_output
//!    + deadline_exceeded == accepted` — and every `Ok` is bitwise-exact.
//! 3. **Crash-safe resume**: training interrupted mid-run (with snapshot
//!    writes themselves dying to injected I/O faults) resumes bitwise.

use dhg_nn::fault::{FaultConfig, FaultPlan, FaultSite};
use dhg_nn::SgdConfig;
use dhg_skeleton::{Protocol, SkeletonDataset, SkeletonTopology, Stream};
use dhg_tensor::{NdArray, Tensor};
use dhg_train::serve::{Pending, ServeConfig, ServeEngine, ServeError};
use dhg_train::trainer::{train, ResumableConfig, TrainConfig};
use dhg_train::zoo::Zoo;
use dhg_train::{train_resumable, InferenceSession};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const C: usize = 3;
const T: usize = 8;
const V: usize = 25;

struct Args {
    seed: u64,
    requests: usize,
    workers: usize,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args { seed: 0xD15EA5E, requests: 64, workers: 2, smoke: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = |it: &mut dyn Iterator<Item = String>| {
                it.next().ok_or(format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--seed" => {
                    args.seed =
                        value(&mut it)?.parse().map_err(|_| "bad --seed".to_string())?
                }
                "--requests" => {
                    args.requests =
                        value(&mut it)?.parse().map_err(|_| "bad --requests".to_string())?
                }
                "--workers" => {
                    args.workers =
                        value(&mut it)?.parse().map_err(|_| "bad --workers".to_string())?
                }
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.smoke {
            args.requests = args.requests.min(32);
        }
        Ok(args)
    }
}

/// Deterministic single-sample input `[C, T, V]`, distinct per seed.
fn sample(seed: usize) -> NdArray {
    NdArray::from_vec(
        (0..C * T * V).map(|i| ((i * 7 + seed * 1009) as f32 * 0.0173).sin()).collect(),
        &[C, T, V],
    )
}

fn zoo() -> Zoo {
    Zoo::tiny(SkeletonTopology::ntu25(), 4, 0)
}

/// The storm plan: `DHGCN_FAULTS` if set, else a built-in mix off `seed`.
fn storm_plan(seed: u64) -> Result<Arc<FaultPlan>, String> {
    match std::env::var("DHGCN_FAULTS") {
        Ok(spec) => {
            let config = FaultConfig::parse(&spec)?;
            println!("fault plan      DHGCN_FAULTS ({spec})");
            Ok(Arc::new(FaultPlan::new(config)))
        }
        Err(_) => {
            println!("fault plan      built-in storm, seed {seed}");
            Ok(FaultPlan::builder(seed)
                .rate(FaultSite::WorkerDeath, 0.02)
                .limit(FaultSite::WorkerDeath, 3)
                .rate(FaultSite::BatchPanic, 0.15)
                .rate(FaultSite::BatchDelay, 0.3)
                .delay(Duration::from_millis(1))
                .rate(FaultSite::BadLogits, 0.15)
                .build())
        }
    }
}

fn start(config: ServeConfig) -> ServeEngine {
    let zoo = zoo();
    ServeEngine::start(move || zoo.dhgcn_lite(), &[C, T, V], config)
        .unwrap_or_else(|e| panic!("engine start failed: {e}"))
}

/// Contract 1: worker deaths are respawned; nothing is lost, nothing is
/// wrong. Returns the number of failed sub-checks.
fn check_self_healing(args: &Args, reference: &[Vec<f32>]) -> usize {
    let faults = FaultPlan::builder(args.seed)
        .rate(FaultSite::WorkerDeath, 1.0)
        .limit(FaultSite::WorkerDeath, 2)
        .build();
    let engine = start(ServeConfig {
        workers: args.workers,
        max_batch: 3,
        queue_cap: args.requests.max(64),
        faults: Some(faults.clone()),
        ..ServeConfig::default()
    });
    let n = reference.len();
    let mut wrong = 0usize;
    let pendings: Vec<Pending> =
        (0..n).map(|s| engine.submit(sample(s)).expect("queued")).collect();
    for (s, pending) in pendings.into_iter().enumerate() {
        match pending.wait() {
            Ok(got) if got.data() == reference[s].as_slice() => {}
            Ok(_) => {
                println!("FAIL self-heal: request {s} served with wrong logits");
                wrong += 1;
            }
            Err(e) => {
                println!("FAIL self-heal: request {s} lost to {e} despite respawn budget");
                wrong += 1;
            }
        }
    }
    let health = engine.health();
    let deaths = faults.trips(FaultSite::WorkerDeath);
    if deaths == 0 {
        println!("FAIL self-heal: fault plan never killed a worker");
        wrong += 1;
    }
    if !health.is_serving() {
        println!("FAIL self-heal: engine stopped serving ({health:?})");
        wrong += 1;
    }
    if wrong == 0 {
        println!(
            "ok   self-heal: {deaths} worker death(s), {} respawn(s), {n}/{n} answered bitwise",
            health.restarts
        );
    }
    engine.shutdown();
    wrong
}

/// Contract 2: mixed storm — conservation + bitwise survivors.
fn check_storm(args: &Args, reference: &[Vec<f32>]) -> usize {
    let faults = match storm_plan(args.seed) {
        Ok(plan) => plan,
        Err(why) => {
            println!("FAIL storm: bad DHGCN_FAULTS spec: {why}");
            return 1;
        }
    };
    let engine = start(ServeConfig {
        workers: args.workers,
        max_batch: 4,
        queue_cap: 64,
        deadline: Some(Duration::from_secs(5)),
        faults: Some(faults.clone()),
        ..ServeConfig::default()
    });
    let n = reference.len();
    let rounds = (args.requests / n).max(1);
    let mut wrong = 0usize;
    let mut ok = 0u64;
    let mut typed = 0u64;
    for _ in 0..rounds {
        let pendings: Vec<Pending> =
            (0..n).map(|s| engine.submit(sample(s)).expect("queue has room")).collect();
        for (s, pending) in pendings.into_iter().enumerate() {
            match pending.wait() {
                Ok(got) if got.data() == reference[s].as_slice() => ok += 1,
                Ok(_) => {
                    println!("FAIL storm: surviving request {s} returned wrong logits");
                    wrong += 1;
                }
                Err(
                    ServeError::Closed | ServeError::BadOutput | ServeError::DeadlineExceeded,
                ) => typed += 1,
                Err(other) => {
                    println!("FAIL storm: unexpected failure kind {other}");
                    wrong += 1;
                }
            }
        }
    }
    let health = engine.health();
    let accepted = (rounds * n) as u64;
    let resolved =
        health.completed + health.failed + health.bad_output + health.deadline_exceeded;
    if health.accepted != accepted || resolved != accepted {
        println!(
            "FAIL storm: conservation broken — accepted {accepted}, metrics say \
             accepted={} resolved={resolved}",
            health.accepted
        );
        wrong += 1;
    }
    if wrong == 0 {
        println!(
            "ok   storm: {accepted} accepted = {ok} bitwise replies + {typed} typed errors"
        );
        println!("     {}", faults.report());
    }
    engine.shutdown();
    wrong
}

/// Contract 3: interrupt training (snapshot writes also dying), resume,
/// compare the loss trajectory bitwise against an uninterrupted run.
fn check_resume(args: &Args) -> usize {
    let dataset = SkeletonDataset::ntu60_like(3, 8, 8, 1);
    let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
    let full = TrainConfig {
        epochs: if args.smoke { 3 } else { 5 },
        batch_size: 8,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
        lr_milestones: vec![2],
        seed: args.seed,
        verbose: false,
    };
    let model = || {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0xA11CE);
        dhg_core::StGcn::new(
            dhg_core::common::ModelDims { in_channels: C, n_joints: V, n_classes: 3 },
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[dhg_core::common::StageSpec::new(8, 1)],
            0.0,
            &mut rng,
        )
    };
    let mut reference = model();
    let want = train(&mut reference, &dataset, &split.train, Stream::Joint, &full);

    let dir = std::env::temp_dir().join(format!("dhg-chaos-bin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let faults = FaultPlan::builder(args.seed)
        .rate(FaultSite::CheckpointIo, 1.0)
        .limit(FaultSite::CheckpointIo, 1)
        .build();
    let cut = full.epochs - 1;
    let mut first = model();
    let mut leg1 = ResumableConfig::new(TrainConfig { epochs: cut, ..full.clone() }, &dir);
    leg1.faults = Some(faults.clone());
    if let Err(why) =
        train_resumable(&mut first, &dataset, &split.train, Stream::Joint, &leg1)
    {
        println!("FAIL resume: interrupted leg errored: {why}");
        return 1;
    }
    let mut second = model();
    let report = match train_resumable(
        &mut second,
        &dataset,
        &split.train,
        Stream::Joint,
        &ResumableConfig::new(full.clone(), &dir),
    ) {
        Ok(report) => report,
        Err(why) => {
            println!("FAIL resume: resumed leg errored: {why}");
            return 1;
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    if report.epoch_losses != want.epoch_losses {
        println!(
            "FAIL resume: trajectory diverged\n  uninterrupted {:?}\n  resumed       {:?}",
            want.epoch_losses, report.epoch_losses
        );
        return 1;
    }
    println!(
        "ok   resume: killed {} snapshot write(s), cut at epoch {cut}/{}, \
         resumed trajectory bitwise-identical",
        faults.trips(FaultSite::CheckpointIo),
        full.epochs
    );
    0
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("chaos: {why}");
            eprintln!("usage: chaos [--seed N] [--requests N] [--workers W] [--smoke]");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== chaos{}: fault-injection contracts (seed {}) ==",
        if args.smoke { " --smoke" } else { "" },
        args.seed
    );
    // injected panics are the point of the exercise — keep their
    // backtraces out of the output, let real ones through
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let expected = payload
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault"))
            .or_else(|| payload.downcast_ref::<String>().map(|s| s.contains("injected fault")))
            .unwrap_or(false);
        if !expected {
            default_hook(info);
        }
    }));
    // sequential no-engine reference for bitwise comparison
    let mut session = InferenceSession::new(zoo().dhgcn_lite());
    let reference: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            let x = Tensor::constant(sample(s).reshape(&[1, C, T, V]));
            session.logits(&x).data().to_vec()
        })
        .collect();
    drop(session);

    let failures = check_self_healing(&args, &reference)
        + check_storm(&args, &reference)
        + check_resume(&args);
    if failures == 0 {
        println!("== chaos: OK ==");
        ExitCode::SUCCESS
    } else {
        println!("== chaos: {failures} failure(s) — replay with --seed {} ==", args.seed);
        ExitCode::FAILURE
    }
}
