//! Seeded inputs and schedules. Everything a workload feeds the program
//! is a pure function of the `--seed` argument.

use dhg_bench::scale;
use dhg_skeleton::{SkeletonDataset, SkeletonSample};

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform pick in `0..n` keyed by `(seed, a, b)`.
pub fn pick(seed: u64, a: u64, b: u64, n: usize) -> usize {
    (mix(mix(mix(seed) ^ a) ^ b) % n as u64) as usize
}

/// Corpus seed for a workload, so workloads sharing a seed still draw
/// different corpora.
fn corpus_seed(seed: u64, salt: u64) -> u64 {
    mix(seed ^ salt.rotate_left(32))
}

/// `net-mixed`: NTU-25 windows at the router's standard `[3, 8, 25]`.
pub fn net_corpus(seed: u64) -> SkeletonDataset {
    SkeletonDataset::ntu60_like(4, 8, 8, corpus_seed(seed, 1))
}

/// `train-epoch`: the NTU-60-like corpus at the table-harness scale.
pub fn train_corpus(seed: u64) -> SkeletonDataset {
    SkeletonDataset::ntu60_like(
        scale::N_CLASSES,
        scale::PER_CLASS,
        scale::FRAMES,
        corpus_seed(seed, 4),
    )
}

/// A sample's `[C, T, V]` coordinates, flat and row-major.
pub fn flat(sample: &SkeletonSample) -> Vec<f32> {
    sample.data.data().to_vec()
}

/// Request `i` of connection `conn` on `net-mixed`: (model index, sample
/// index). Models go round-robin; samples are drawn from the seed.
pub fn net_request(seed: u64, conn: u64, i: u64, models: usize, samples: usize) -> (usize, usize) {
    (
        ((i + conn) % models as u64) as usize,
        pick(seed, conn, i, samples),
    )
}

/// Frame `f` of a stream chained from the corpus clips (in `order`), as the
/// `[C, V]` C-major frame a `StreamingSession` takes.
pub fn stream_frame(corpus: &SkeletonDataset, order: &[usize], f: usize) -> Vec<f32> {
    let first = &corpus.samples[0].data;
    let (c, t, v) = (first.shape()[0], first.shape()[1], first.shape()[2]);
    let clip = &corpus.samples[order[(f / t) % order.len()]].data;
    let (data, ti) = (clip.data(), f % t);
    (0..c)
        .flat_map(|ci| {
            data[ci * t * v + ti * v..ci * t * v + (ti + 1) * v]
                .iter()
                .copied()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(d: &SkeletonDataset) -> Vec<u32> {
        d.samples
            .iter()
            .flat_map(|s| s.data.data().iter().map(|x| x.to_bits()))
            .collect()
    }

    fn schedule(seed: u64) -> Vec<(usize, usize)> {
        (0..64).map(|i| net_request(seed, 1, i, 3, 32)).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_schedules() {
        for corpus in [net_corpus, train_corpus] {
            assert_eq!(bits(&corpus(5)), bits(&corpus(5)));
        }
        assert_eq!(schedule(5), schedule(5));
    }

    #[test]
    fn another_seed_changes_inputs_and_schedules() {
        for corpus in [net_corpus, train_corpus] {
            assert_ne!(bits(&corpus(5)), bits(&corpus(6)));
        }
        assert_ne!(schedule(5), schedule(6));
    }

    #[test]
    fn stream_frames_chain_clips_in_order() {
        let corpus = net_corpus(1);
        let order: Vec<usize> = (0..corpus.samples.len()).rev().collect();
        let (t, v) = (8, corpus.topology.n_joints());
        let frame = stream_frame(&corpus, &order, t + 2);
        let clip = &corpus.samples[order[1]].data;
        assert_eq!(frame.len(), 3 * v);
        assert_eq!(
            frame[v + 5].to_bits(),
            clip.data()[t * v + 2 * v + 5].to_bits()
        );
    }
}
