//! Chaos suite: the robustness contracts under seeded fault injection.
//!
//! Faults come from [`dhgcn::nn::fault::FaultPlan`] — deterministic in
//! `(seed, site, call index)`, so every scenario here replays exactly.
//! The contracts under test:
//!
//! * **Self-healing** — a worker killed mid-serve is respawned by the
//!   supervisor and the engine keeps serving, for every zoo model at
//!   1/2/8 workers.
//! * **Reply-or-typed-error** — under a storm of mixed faults (worker
//!   deaths, batch panics, stalls, corrupt logits) every accepted
//!   request's `wait()` returns: either logits or a typed
//!   [`ServeError`]. No caller blocks forever, no panic escapes.
//! * **Survivor fidelity** — every `Ok` reply produced while faults fly
//!   is **bitwise identical** to sequential
//!   [`InferenceSession::logits`] on the same input. Degraded service
//!   never means silently wrong answers.
//! * **Crash-safe training** — a training run interrupted after a few
//!   epochs (with snapshot writes themselves being killed by injected
//!   I/O faults) resumes from the newest valid snapshot and reproduces
//!   the uninterrupted run's loss trajectory and weights bitwise.

use dhgcn::nn::fault::{FaultPlan, FaultSite};
use dhgcn::nn::{Module, SgdConfig};
use dhgcn::skeleton::{Protocol, SkeletonDataset, SkeletonTopology, Stream};
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::serve::{Pending, ServeConfig, ServeEngine, ServeError};
use dhgcn::train::trainer::{train, ResumableConfig, TrainConfig};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::{train_resumable, InferenceSession};
use std::path::PathBuf;
use std::time::Duration;

/// Every row of the zoo registry.
const MODELS: [&str; 9] = [
    "ST-GCN",
    "2s-AGCN",
    "2s-AHGCN",
    "Shift-GCN",
    "TCN",
    "ST-LSTM",
    "Lie Group",
    "DHGCN",
    "DHGCN-lite",
];

/// Worker counts the suite sweeps.
const WORKERS: [usize; 3] = [1, 2, 8];

const C: usize = 3;
const T: usize = 8;
const V: usize = 25;
const REQUESTS: usize = 8;

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

/// Reference: one-request-at-a-time sequential serving, no engine.
fn sequential_logits(name: &str) -> Vec<Vec<f32>> {
    let mut session = InferenceSession::new(zoo().by_name(name).expect("model"));
    (0..REQUESTS)
        .map(|s| {
            let x = Tensor::constant(sample(s).reshape(&[1, C, T, V]));
            session.logits(&x).data().to_vec()
        })
        .collect()
}

fn engine(name: &str, config: ServeConfig) -> ServeEngine {
    let zoo = zoo();
    let model = name.to_string();
    ServeEngine::start(move || zoo.by_name(&model).expect("model"), &[C, T, V], config)
        .unwrap_or_else(|e| panic!("{name}: engine start failed: {e}"))
}

/// Satellite: a killed worker is respawned and the engine keeps serving —
/// for **every** zoo model at 1, 2 and 8 workers. With the restart budget
/// open, every request still gets bitwise-correct logits: a death before
/// the batch pops leaves the requests queued for the replacement replica.
#[test]
fn killed_workers_are_respawned_and_every_zoo_model_keeps_serving() {
    for name in MODELS {
        let reference = sequential_logits(name);
        for workers in WORKERS {
            let faults = FaultPlan::builder(0xC0FFEE)
                .rate(FaultSite::WorkerDeath, 1.0)
                .limit(FaultSite::WorkerDeath, 2)
                .build();
            let engine = engine(
                name,
                ServeConfig {
                    workers,
                    max_batch: 3,
                    queue_cap: 64,
                    faults: Some(faults.clone()),
                    ..ServeConfig::default()
                },
            );
            let pendings: Vec<Pending> =
                (0..REQUESTS).map(|s| engine.submit(sample(s)).expect("queued")).collect();
            for (s, pending) in pendings.into_iter().enumerate() {
                let got = pending.wait().unwrap_or_else(|e| {
                    panic!("{name}@{workers}: request {s} lost to {e} despite respawn")
                });
                assert_eq!(
                    got.data(),
                    reference[s].as_slice(),
                    "{name}@{workers}: request {s} diverged from sequential logits"
                );
            }
            // a death can land after the last reply; give the supervisor
            // a beat to finish the matching respawn before asserting
            let mut health = engine.health();
            for _ in 0..500 {
                if health.restarts == faults.trips(FaultSite::WorkerDeath) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                health = engine.health();
            }
            let deaths = faults.trips(FaultSite::WorkerDeath);
            assert!(deaths > 0, "{name}@{workers}: the fault plan never fired");
            assert_eq!(
                health.restarts, deaths,
                "{name}@{workers}: every death must be matched by a respawn"
            );
            assert!(health.is_serving(), "{name}@{workers}: engine must stay serving");
            assert_eq!(health.completed, REQUESTS as u64, "{name}@{workers}");
            engine.shutdown();
        }
    }
}

/// Tentpole invariants under a storm of mixed faults: no deadlock (the
/// test finishes), every accepted request resolves to logits or a typed
/// error, and every `Ok` reply is bitwise-identical to the sequential
/// reference. Fault decisions are pure in the seed, so the storm replays.
#[test]
fn mixed_fault_storm_yields_reply_or_typed_error_and_bitwise_survivors() {
    let reference = sequential_logits("DHGCN-lite");
    let faults = FaultPlan::builder(0xBADC0DE)
        .rate(FaultSite::WorkerDeath, 0.02)
        .limit(FaultSite::WorkerDeath, 3)
        .rate(FaultSite::BatchPanic, 0.15)
        .rate(FaultSite::BatchDelay, 0.3)
        .delay(Duration::from_millis(1))
        .rate(FaultSite::BadLogits, 0.15)
        .build();
    let engine = engine(
        "DHGCN-lite",
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_cap: 64,
            deadline: Some(Duration::from_secs(5)), // generous: typed if hit, never stuck
            faults: Some(faults.clone()),
            ..ServeConfig::default()
        },
    );

    let rounds = 6usize; // 3 clients x 6 rounds x 8 requests = 144 accepted
    let clients = 3usize;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let engine = &engine;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..rounds {
                    let pendings: Vec<(usize, Pending)> = (0..REQUESTS)
                        .map(|s| (s, engine.submit(sample(s)).expect("queue has room")))
                        .collect();
                    for (s, pending) in pendings {
                        match pending.wait() {
                            // survivor: must be bitwise-correct
                            Ok(got) => assert_eq!(
                                got.data(),
                                reference[s].as_slice(),
                                "client {client}: surviving request {s} returned wrong logits"
                            ),
                            // casualty: must be one of the typed faults
                            Err(
                                ServeError::Closed
                                | ServeError::BadOutput
                                | ServeError::DeadlineExceeded,
                            ) => {}
                            Err(other) => {
                                panic!("client {client}: untyped/unexpected failure {other}")
                            }
                        }
                    }
                }
            });
        }
    });

    let accepted = (clients * rounds * REQUESTS) as u64;
    let health = engine.health();
    assert_eq!(health.accepted, accepted);
    // conservation: every accepted request is accounted for exactly once
    assert_eq!(
        health.completed + health.failed + health.bad_output + health.deadline_exceeded,
        accepted,
        "accepted requests must all resolve: {health:?}"
    );
    assert!(faults.total_trips() > 0, "the storm never fired: {}", faults.report());
    assert!(health.is_serving(), "deaths stayed under the restart budget");
    engine.shutdown();
}

/// When the restart budget is exhausted and the last worker dies, the
/// engine must fail pending and future work typed — not strand callers.
#[test]
fn restart_budget_exhaustion_degrades_to_typed_errors_not_deadlock() {
    let faults = FaultPlan::builder(7)
        .rate(FaultSite::WorkerDeath, 1.0) // every batch attempt kills the worker
        .build();
    let engine = engine(
        "DHGCN-lite",
        ServeConfig {
            workers: 1,
            max_batch: 4,
            queue_cap: 64,
            max_restarts: 2,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let pendings: Vec<Pending> =
        (0..REQUESTS).map(|s| engine.submit(sample(s)).expect("queued")).collect();
    for pending in pendings {
        assert_eq!(pending.wait().unwrap_err(), ServeError::Closed);
    }
    let health = engine.health();
    assert!(!health.is_serving(), "no worker can be alive: {health:?}");
    assert_eq!(health.restarts, 2, "the whole budget was spent trying");
    assert!(matches!(engine.submit(sample(0)), Err(ServeError::Closed)));
    engine.shutdown();
}

fn chaos_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dhg-chaos-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Tentpole: interrupt training after 2 of 5 epochs — while injected I/O
/// faults are killing some snapshot writes mid-save — then resume in a
/// "new process" (fresh model object). The resumed loss trajectory and
/// final weights must be bitwise-identical to an uninterrupted run.
#[test]
fn interrupted_training_resumes_bitwise_despite_killed_snapshot_writes() {
    let dataset = SkeletonDataset::ntu60_like(3, 8, 8, 1);
    let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
    let full = TrainConfig {
        epochs: 5,
        batch_size: 8,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
        lr_milestones: vec![3],
        seed: 0xD1CE,
        verbose: false,
    };
    let model = |seed| {
        use dhgcn::core::common::{ModelDims, StageSpec};
        use dhgcn::core::StGcn;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 3 },
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[StageSpec::new(8, 1)],
            0.0,
            &mut rng,
        )
    };

    // reference: one uninterrupted run, no faults
    let mut reference = model(3);
    let want = train(&mut reference, &dataset, &split.train, Stream::Joint, &full);

    // leg 1: 2 epochs, with the epoch-1 snapshot write killed mid-save
    // (crash-atomicity must leave no partial file behind)
    let dir = chaos_dir("resume");
    let faults = FaultPlan::builder(11)
        .rate(FaultSite::CheckpointIo, 1.0)
        .limit(FaultSite::CheckpointIo, 1)
        .build();
    let mut first = model(3);
    let mut leg1 = ResumableConfig::new(TrainConfig { epochs: 2, ..full.clone() }, &dir);
    leg1.faults = Some(faults.clone());
    train_resumable(&mut first, &dataset, &split.train, Stream::Joint, &leg1)
        .expect("a killed snapshot write must not abort training");
    assert_eq!(faults.trips(FaultSite::CheckpointIo), 1, "one save was killed");

    // leg 2: fresh weights, resumed from the newest valid snapshot
    let mut second = model(3);
    let report = train_resumable(
        &mut second,
        &dataset,
        &split.train,
        Stream::Joint,
        &ResumableConfig::new(full, &dir),
    )
    .expect("resume");

    assert_eq!(
        report.epoch_losses, want.epoch_losses,
        "resumed trajectory must match the uninterrupted run bitwise"
    );
    for (pa, pb) in reference.parameters().iter().zip(second.parameters()) {
        assert_eq!(pa.array(), pb.array(), "resumed weights must match bitwise");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault decisions are a pure function of `(seed, site, call index)`:
/// two plans with the same seed and rates trip identically, so any chaos
/// failure replays under the seed printed in its report.
#[test]
fn identical_seeds_replay_identical_fault_schedules() {
    let run = |seed: u64| {
        let plan = FaultPlan::builder(seed)
            .rate(FaultSite::BatchPanic, 0.3)
            .rate(FaultSite::BadLogits, 0.2)
            .build();
        (0..256)
            .map(|i| {
                let site = if i % 2 == 0 { FaultSite::BatchPanic } else { FaultSite::BadLogits };
                plan.should_fire(site)
            })
            .collect::<Vec<bool>>()
    };
    assert_eq!(run(41), run(41), "same seed, same schedule");
    assert_ne!(run(41), run(42), "different seed, different schedule");
}
