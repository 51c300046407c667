//! `train-epoch`: `trainer::train` of the full DHGCN at experiment width
//! on the NTU-60-like X-Sub train split at the table-harness scale, one
//! epoch per call (`TrainConfig::fast(1)`), for the measured time.
//!
//! The X-Sub split's size depends on the corpus seed, so an epoch is
//! fixed at `EPOCH_SAMPLES` (whole minibatches): the split's indices,
//! cycled or cut to that length. Every seed then times the same work.

use super::{measure, ms_since, Config, LoopStats, Measured, Outcome};
use crate::inputs::train_corpus;
use crate::layers::{self, LayerCtx};
use crate::trace::Tracer;
use dhg_bench::scale;
use dhg_core::Dhgcn;
use dhg_skeleton::{Protocol, SkeletonDataset, Stream};
use dhg_train::zoo::Zoo;
use dhg_train::{train, TrainConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const EPOCH_SAMPLES: usize = 80;

struct Setup {
    corpus: SkeletonDataset,
    train_split: Vec<usize>,
    model: Dhgcn,
}

fn zoo(corpus: &SkeletonDataset) -> Zoo {
    Zoo::new(corpus.topology.clone(), corpus.n_classes, scale::MODEL_SEED)
}

/// Corpus generation, the X-Sub split and model construction.
fn start(seed: u64) -> Result<Setup, String> {
    let corpus = train_corpus(seed);
    let split = corpus.split(Protocol::CrossSubject, 0);
    if split.train.is_empty() {
        return Err("empty X-Sub train split".into());
    }
    let train_split = split
        .train
        .iter()
        .copied()
        .cycle()
        .take(EPOCH_SAMPLES)
        .collect();
    let model = zoo(&corpus).dhgcn();
    Ok(Setup {
        corpus,
        train_split,
        model,
    })
}

/// Whole epochs until `deadline`.
fn drive(
    setup: &mut Setup,
    deadline: Instant,
    tracer: Option<&Tracer>,
    epoch: &mut u64,
) -> LoopStats {
    let config = TrainConfig::fast(1);
    let mut stats = LoopStats::default();
    let t_start = Instant::now();
    while Instant::now() < deadline {
        let open = tracer.map(|t| t.open("trainer.train", None, *epoch));
        let t0 = Instant::now();
        let report = train(
            &mut setup.model,
            &setup.corpus,
            &setup.train_split,
            Stream::Joint,
            &config,
        );
        stats.latencies_ms.push(ms_since(t0));
        if let (Some(t), Some(o)) = (tracer, open) {
            t.close(o);
        }
        let batches = setup.train_split.len().div_ceil(config.batch_size) as u64;
        stats.attempted += batches;
        stats.work += setup.train_split.len() as f64;
        if report.skipped_batches > 0 {
            stats.violation(format!(
                "epoch {epoch}: {} batches skipped by the non-finite guard",
                report.skipped_batches
            ));
        }
        if !report.epoch_losses.iter().all(|l| l.is_finite()) {
            stats.violation(format!(
                "epoch {epoch}: non-finite loss {:?}",
                report.epoch_losses
            ));
        }
        *epoch += 1;
    }
    stats.elapsed_s = t_start.elapsed().as_secs_f64();
    stats
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut layers = BTreeMap::new();
    let mut epoch = 0u64;
    let Measured {
        live: setup,
        setup_s,
        mut stats,
    } = measure(
        cfg,
        tracer,
        &mut layers,
        || start(cfg.seed),
        |setup, deadline, t| drive(setup, deadline, t, &mut epoch),
    )?;
    if cfg.trace {
        let full = zoo(&setup.corpus);
        let ctx = LayerCtx {
            zoo: &full,
            corpus: &setup.corpus,
            checkpoint_model: "DHGCN",
        };
        for v in layers::replay(&ctx, tracer, &mut layers) {
            stats.violation(v);
        }
    }
    Ok(Outcome {
        unit: "epoch",
        work_unit: "sample",
        setup_s,
        stats,
        layers,
    })
}
