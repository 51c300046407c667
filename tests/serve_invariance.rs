//! Batching-invariance suite for the serve engine.
//!
//! The serving contract: a request's logits must not depend on *how* it
//! was served — which micro-batch it was coalesced into, which of the
//! engine's worker replicas executed it, or how many workers were racing
//! on the queue. For every zoo model, logits produced by a loaded
//! [`ServeEngine`] (batches form nondeterministically under concurrent
//! submission) must be **bitwise identical** to sequential
//! [`InferenceSession::logits`] calls on the same inputs, across 1, 2 and
//! 8 workers, and whatever its batchmates look like — a mostly-zero
//! batchmate must not change a dense request's bits, nor the reverse.

use dhgcn::nn::fault::{FaultPlan, FaultSite};
use dhgcn::skeleton::SkeletonTopology;
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::serve::{Pending, ServeConfig, ServeEngine};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::InferenceSession;
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

/// Worker counts the suite sweeps (the ISSUE's 1/2/8).
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

/// [`sample`] with every joint but the first five zeroed: most of its
/// values are exact zeros, as in a corpus that zero-pads absent joints or
/// performers.
fn sparse_sample(seed: usize) -> NdArray {
    let mut x = sample(seed);
    for (i, value) in x.data_mut().iter_mut().enumerate() {
        if i % V >= 5 {
            *value = 0.0;
        }
    }
    x
}

fn zoo() -> Zoo {
    Zoo::tiny(SkeletonTopology::ntu25(), 4, 0)
}

/// A one-trip batch stall: the worker that takes the first batch sleeps
/// for `delay`, so everything submitted meanwhile queues up behind it and
/// the next batches form from that backlog, with no timer involved.
fn stall_first_batch(delay: Duration) -> std::sync::Arc<FaultPlan> {
    FaultPlan::builder(0x5EED)
        .rate(FaultSite::BatchDelay, 1.0)
        .limit(FaultSite::BatchDelay, 1)
        .delay(delay)
        .build()
}

/// Logits of `x` scored alone, as a batch of one.
fn alone(session: &mut InferenceSession<Box<dyn dhgcn::nn::Module>>, x: &NdArray) -> Vec<f32> {
    session.logits(&Tensor::constant(x.reshape(&[1, C, T, V]))).data().to_vec()
}

/// Reference: one-request-at-a-time sequential serving.
fn sequential_logits(name: &str) -> Vec<Vec<f32>> {
    let mut session = InferenceSession::new(zoo().by_name(name).expect("model"));
    (0..REQUESTS)
        .map(|s| {
            let x = Tensor::constant(sample(s).reshape(&[1, C, T, V]));
            let logits = session.logits(&x);
            assert_eq!(logits.shape()[0], 1);
            logits.data().to_vec()
        })
        .collect()
}

#[test]
fn engine_logits_are_bitwise_identical_to_sequential_for_every_zoo_model() {
    for name in MODELS {
        let reference = sequential_logits(name);
        for workers in WORKERS {
            let zoo = zoo();
            let model_name = name.to_string();
            let engine = ServeEngine::start(
                move || zoo.by_name(&model_name).expect("model"),
                &[C, T, V],
                ServeConfig {
                    workers,
                    max_batch: 3, // forces mixed batch sizes over 8 requests
                    queue_cap: 64,
                    threads_per_worker: 1,
                    // one worker stalls on its first batch, so the rest of
                    // the requests queue up and batch behind it
                    faults: Some(stall_first_batch(Duration::from_millis(20))),
                    ..ServeConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: engine start failed: {e}"));

            // submit everything up front: workers race on the queue and
            // batch composition is nondeterministic — results must not be
            let pendings: Vec<Pending> = (0..REQUESTS)
                .map(|s| engine.submit(sample(s)).expect("bounded queue absorbs 8"))
                .collect();
            for (s, pending) in pendings.into_iter().enumerate() {
                let got = pending.wait().expect("reply");
                let want = &reference[s];
                assert_eq!(
                    got.data(),
                    want.as_slice(),
                    "{name}: request {s} diverged from sequential logits at {workers} worker(s)"
                );
            }
            let m = engine.metrics();
            assert_eq!(m.completed.get(), REQUESTS as u64, "{name}");
            assert_eq!(m.shed.get(), 0, "{name}: nothing may shed below the queue bound");
            if workers == 1 {
                // a lone worker's backlog runs in max_batch-sized batches
                assert!(
                    m.batch_size.quantile(1.0).unwrap_or(0) >= 2,
                    "{name}: requests queued behind a busy worker must batch"
                );
            }
            engine.shutdown();
        }
    }
}

/// A request's logits must not depend on its batchmates' *values* either:
/// a dense sample batched with mostly-zero ones (and the reverse) must
/// score bitwise what it scores alone. Kernel choices made from the
/// density of a whole stacked operand would let batchmates flip them.
#[test]
fn batchmates_of_different_density_do_not_change_a_requests_logits() {
    let dense = sample(3);
    let sparse = sparse_sample(4);
    for name in MODELS {
        let mut session = InferenceSession::new(zoo().by_name(name).expect("model"));
        let want_dense = alone(&mut session, &dense);
        let want_sparse = alone(&mut session, &sparse);
        for lead_is_dense in [true, false] {
            let (lead, rest) = if lead_is_dense { (&dense, &sparse) } else { (&sparse, &dense) };
            let zoo = zoo();
            let model_name = name.to_string();
            let engine = ServeEngine::start(
                move || zoo.by_name(&model_name).expect("model"),
                &[C, T, V],
                ServeConfig {
                    workers: 1,
                    max_batch: 4,
                    faults: Some(stall_first_batch(Duration::from_millis(50))),
                    ..ServeConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: engine start failed: {e}"));
            let stalled = engine.submit(sample(99)).expect("submit");
            while engine.metrics().batches.get() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // one batch of four: the lead sample and three of the other kind
            let inputs = [lead, rest, rest, rest];
            let pendings: Vec<Pending> =
                inputs.iter().map(|x| engine.submit((*x).clone()).expect("submit")).collect();
            stalled.wait().expect("stalled request answered");
            for (i, (x, pending)) in inputs.iter().zip(pendings).enumerate() {
                let got = pending.wait().expect("reply");
                let want = if std::ptr::eq(*x, &dense) { &want_dense } else { &want_sparse };
                assert_eq!(
                    got.data(),
                    want.as_slice(),
                    "{name}: row {i} of a mixed-density batch differs from scoring it alone"
                );
            }
            let m = engine.metrics();
            assert_eq!(m.batches.get(), 2, "{name}: the four requests must share one batch");
            assert_eq!(m.batch_size.quantile(1.0), Some(4), "{name}");
            engine.shutdown();
        }
    }
}

/// The same invariance under *interleaved* submit/wait pressure from
/// multiple client threads, on the heaviest serving-path model (DHGCN-lite
/// exercises fused operators + folded BN).
#[test]
fn concurrent_clients_get_bitwise_sequential_results() {
    let reference = sequential_logits("DHGCN-lite");
    let zoo = zoo();
    let engine = ServeEngine::start(
        move || zoo.dhgcn_lite(),
        &[C, T, V],
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_cap: 64,
            threads_per_worker: 1,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");

    std::thread::scope(|scope| {
        for client in 0..4 {
            let engine = &engine;
            let reference = &reference;
            scope.spawn(move || {
                // each client hammers the same 8 canonical requests twice
                for round in 0..2 {
                    for (s, want) in reference.iter().enumerate() {
                        let got = engine.infer(sample(s)).expect("infer");
                        assert_eq!(
                            got.data(),
                            want.as_slice(),
                            "client {client} round {round} request {s} diverged"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(engine.metrics().completed.get(), 4 * 2 * REQUESTS as u64);
    engine.shutdown();
}
