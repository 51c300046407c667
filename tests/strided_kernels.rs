//! The coalesced strided kernels of `NdArray` — broadcast `binop`,
//! `sum_axes`/`mean_axes`, `permute`, `broadcast_to`, `reduce_to_shape`
//! and the batch walk of `matmul` — pinned bit for bit against a naive
//! oracle that visits one element at a time with an index odometer.
//!
//! Shapes are random of rank 0–5 with size-1 and size-0 dimensions, plus
//! every broadcast pattern of two operands over a rank-4 shape and the
//! `[N, C, T, V]` patterns the models use. Values span many magnitudes and
//! include signed zeros, so a change of summation order or of which
//! inputs meet shows up in the bits.

use dhgcn::tensor::NdArray;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ----------------------------------------------------------------------
// Oracle
// ----------------------------------------------------------------------

/// Advance a row-major multi-index by one element.
fn odometer(idx: &mut [usize], shape: &[usize]) {
    for d in (0..shape.len()).rev() {
        idx[d] += 1;
        if idx[d] < shape[d] {
            return;
        }
        idx[d] = 0;
    }
}

/// Flat offset in a row-major array of shape `src`, right-aligned to the
/// multi-index `idx` and broadcast along its size-1 dimensions.
fn broadcast_offset(idx: &[usize], src: &[usize]) -> usize {
    let lead = idx.len() - src.len();
    src.iter().enumerate().fold(0, |flat, (d, &n)| {
        flat * n + if n == 1 { 0 } else { idx[lead + d] }
    })
}

fn oracle_broadcast_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
    let nd = a.len().max(b.len());
    let dim = |s: &[usize], d: usize| {
        if d < nd - s.len() {
            1
        } else {
            s[d - (nd - s.len())]
        }
    };
    (0..nd)
        .map(|d| {
            let (x, y) = (dim(a, d), dim(b, d));
            assert!(x == y || x == 1 || y == 1, "oracle: {a:?} vs {b:?}");
            if x == 1 {
                y
            } else {
                x
            }
        })
        .collect()
}

fn oracle_binop(a: &NdArray, b: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
    let shape = oracle_broadcast_shape(a.shape(), b.shape());
    let n: usize = shape.iter().product();
    let mut idx = vec![0; shape.len()];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let x = a.data()[broadcast_offset(&idx, a.shape())];
        let y = b.data()[broadcast_offset(&idx, b.shape())];
        out.push(f(x, y));
        odometer(&mut idx, &shape);
    }
    NdArray::from_vec(out, &shape)
}

/// Sum with one accumulator per output cell, fed in increasing flat index
/// of the input, starting from 0.0. Summing over no axes is a copy (no
/// `0.0 + x`, which would turn `-0.0` into `0.0`).
fn oracle_sum(x: &NdArray, axes: &[usize], keepdim: bool) -> NdArray {
    if axes.is_empty() {
        return x.clone();
    }
    let mut kept = x.shape().to_vec();
    for &a in axes {
        kept[a] = 1;
    }
    let mut out = vec![0.0f32; kept.iter().product()];
    let mut idx = vec![0; kept.len()];
    for &v in x.data() {
        out[broadcast_offset(&idx, &kept)] += v;
        odometer(&mut idx, x.shape());
    }
    let shape: Vec<usize> = if keepdim {
        kept
    } else {
        (0..x.ndim())
            .filter(|d| !axes.contains(d))
            .map(|d| x.shape()[d])
            .collect()
    };
    NdArray::from_vec(out, &shape)
}

fn oracle_permute(x: &NdArray, perm: &[usize]) -> NdArray {
    let shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
    let mut idx = vec![0; shape.len()];
    let mut src = vec![0; shape.len()];
    let mut out = Vec::with_capacity(x.len());
    for _ in 0..x.len() {
        for (d, &p) in perm.iter().enumerate() {
            src[p] = idx[d];
        }
        out.push(x.data()[broadcast_offset(&src, x.shape())]);
        odometer(&mut idx, &shape);
    }
    NdArray::from_vec(out, &shape)
}

fn oracle_broadcast_to(x: &NdArray, shape: &[usize]) -> NdArray {
    oracle_binop(&NdArray::zeros(shape), x, |_, b| b)
}

fn oracle_reduce_to_shape(x: &NdArray, target: &[usize]) -> NdArray {
    let lead = x.ndim() - target.len();
    let axes: Vec<usize> = (0..x.ndim())
        .filter(|&d| d < lead || (target[d - lead] == 1 && x.shape()[d] != 1))
        .collect();
    oracle_sum(x, &axes, true).into_shape(target)
}

// ----------------------------------------------------------------------
// Inputs and comparison
// ----------------------------------------------------------------------

fn bits(a: &NdArray) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

#[track_caller]
fn assert_bitwise(got: &NdArray, want: &NdArray, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

/// Values across twelve orders of magnitude, both signs and signed zeros,
/// so reordered sums round differently.
fn values(rng: &mut StdRng, shape: &[usize]) -> NdArray {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| match rng.gen_range(0..16u32) {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let v: f32 = rng.gen_range(-1.0f32..1.0);
                v * 10f32.powi(rng.gen_range(-6i32..6))
            }
        })
        .collect();
    NdArray::from_vec(data, shape)
}

/// A random shape of rank 0–5: mostly small dims, with size-1 and the
/// occasional size-0 dimension.
fn shape(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(0..=5usize);
    (0..rank)
        .map(|_| match rng.gen_range(0..12u32) {
            0 => 0,
            1..=3 => 1,
            _ => rng.gen_range(2..=5usize),
        })
        .collect()
}

/// `full` with a random leading part dropped and random dims set to 1.
fn broadcast_operand(rng: &mut StdRng, full: &[usize]) -> Vec<usize> {
    let drop = rng.gen_range(0..=full.len());
    full[drop..]
        .iter()
        .map(|&n| if rng.gen_bool(0.4) { 1 } else { n })
        .collect()
}

/// `[0, rank)` shuffled.
fn permutation(rng: &mut StdRng, rank: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..rank).collect();
    for i in (1..rank).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// A binary op: the kernel under test and the scalar rule it applies.
type Op = (
    &'static str,
    fn(&NdArray, &NdArray) -> NdArray,
    fn(f32, f32) -> f32,
);
const OPS: [Op; 4] = [
    ("add", |a, b| a.add(b), |x, y| x + y),
    ("sub", |a, b| a.sub(b), |x, y| x - y),
    ("mul", |a, b| a.mul(b), |x, y| x * y),
    ("div", |a, b| a.div(b), |x, y| x / y),
];

fn check_binop(a: &NdArray, b: &NdArray) {
    for (name, op, f) in OPS {
        let what = format!("{name} {:?} with {:?}", a.shape(), b.shape());
        assert_bitwise(&op(a, b), &oracle_binop(a, b, f), &what);
    }
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

#[test]
fn binop_matches_oracle_on_random_broadcasts() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..400 {
        let full = shape(&mut rng);
        let (sa, sb) = (
            broadcast_operand(&mut rng, &full),
            broadcast_operand(&mut rng, &full),
        );
        let (a, b) = (values(&mut rng, &sa), values(&mut rng, &sb));
        check_binop(&a, &b);
        check_binop(&b, &a);
    }
}

#[test]
fn binop_matches_oracle_on_every_rank4_broadcast_pattern() {
    let full = [2usize, 3, 4, 5];
    let mut rng = StdRng::seed_from_u64(2);
    // each operand: a leading part dropped, then any subset of the rest
    // stretched from 1
    let patterns: Vec<Vec<usize>> = (0..=4)
        .flat_map(|drop| {
            (0u32..16).filter_map(move |mask| {
                let stretched = |d: usize| mask & (1 << d) != 0;
                // the dropped dims' mask bits are redundant
                if (0..drop).any(stretched) {
                    return None;
                }
                Some(
                    (drop..4)
                        .map(|d| if stretched(d) { 1 } else { full[d] })
                        .collect(),
                )
            })
        })
        .collect();
    for pa in &patterns {
        let a = values(&mut rng, pa);
        for pb in &patterns {
            let b = values(&mut rng, pb);
            let want = oracle_binop(&a, &b, |x, y| x * y);
            assert_bitwise(&a.mul(&b), &want, &format!("mul {pa:?} with {pb:?}"));
        }
    }
}

#[test]
fn binop_matches_oracle_on_model_shapes() {
    let mut rng = StdRng::seed_from_u64(3);
    let nctv = [4usize, 8, 16, 25];
    let x = values(&mut rng, &nctv);
    for other in [
        vec![],
        vec![1],
        vec![1, 8, 1, 1],
        vec![8, 1, 1],
        vec![4, 1, 16, 25],
        vec![25],
    ] {
        let y = values(&mut rng, &other);
        check_binop(&x, &y);
        check_binop(&y, &x);
    }
}

#[test]
fn sum_axes_matches_oracle_with_and_without_keepdim() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..400 {
        let s = shape(&mut rng);
        let x = values(&mut rng, &s);
        let axes: Vec<usize> = (0..s.len()).filter(|_| rng.gen_bool(0.5)).collect();
        for keepdim in [true, false] {
            let what = format!("sum_axes {s:?} over {axes:?} keepdim {keepdim}");
            assert_bitwise(
                &x.sum_axes(&axes, keepdim),
                &oracle_sum(&x, &axes, keepdim),
                &what,
            );
        }
    }
    // the model reductions: BatchNorm statistics and global pooling
    let x = values(&mut rng, &[4, 8, 16, 25]);
    for axes in [
        vec![0, 2, 3],
        vec![2, 3],
        vec![0],
        vec![1],
        vec![3],
        vec![0, 1, 2, 3],
    ] {
        for keepdim in [true, false] {
            let what = format!("sum_axes [4, 8, 16, 25] over {axes:?} keepdim {keepdim}");
            assert_bitwise(
                &x.sum_axes(&axes, keepdim),
                &oracle_sum(&x, &axes, keepdim),
                &what,
            );
            let count: usize = axes.iter().map(|&a| x.shape()[a]).product();
            let scale = 1.0 / count as f32;
            let want = oracle_sum(&x, &axes, keepdim).map(|v| v * scale);
            assert_bitwise(
                &x.mean_axes(&axes, keepdim),
                &want,
                &format!("mean of {what}"),
            );
        }
    }
}

#[test]
fn permute_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..400 {
        let s = shape(&mut rng);
        let x = values(&mut rng, &s);
        let perm = permutation(&mut rng, s.len());
        assert_bitwise(
            &x.permute(&perm),
            &oracle_permute(&x, &perm),
            &format!("permute {s:?} by {perm:?}"),
        );
    }
    let x = values(&mut rng, &[2, 3, 16, 25]);
    for perm in [[0, 2, 3, 1], [1, 0, 2, 3], [0, 1, 3, 2], [0, 3, 1, 2]] {
        assert_bitwise(
            &x.permute(&perm),
            &oracle_permute(&x, &perm),
            &format!("permute by {perm:?}"),
        );
    }
    let mut perm: Vec<usize> = (0..4).collect();
    perm.swap(2, 3);
    assert_bitwise(
        &x.transpose_last2(),
        &oracle_permute(&x, &perm),
        "transpose_last2",
    );
}

#[test]
fn broadcast_to_and_reduce_to_shape_match_oracle() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..400 {
        let full = shape(&mut rng);
        let small = broadcast_operand(&mut rng, &full);
        let x = values(&mut rng, &small);
        let what = format!("{small:?} and {full:?}");
        assert_bitwise(
            &x.broadcast_to(&full),
            &oracle_broadcast_to(&x, &full),
            &format!("broadcast_to {what}"),
        );
        let g = values(&mut rng, &full);
        let want = oracle_reduce_to_shape(&g, &small);
        assert_bitwise(
            &g.reduce_to_shape(&small),
            &want,
            &format!("reduce_to_shape {what}"),
        );
        assert_bitwise(
            &g.clone().into_reduced(&small),
            &want,
            &format!("into_reduced {what}"),
        );
    }
}

#[test]
fn matmul_batch_broadcast_matches_materialised_operands() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let batch = shape(&mut rng);
        let (m, k, n) = (
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
        );
        let mut sa = broadcast_operand(&mut rng, &batch);
        let mut sb = broadcast_operand(&mut rng, &batch);
        sa.extend([m, k]);
        sb.extend([k, n]);
        let (a, b) = (values(&mut rng, &sa), values(&mut rng, &sb));
        let out_batch = oracle_broadcast_shape(&sa[..sa.len() - 2], &sb[..sb.len() - 2]);
        let full_a: Vec<usize> = out_batch.iter().copied().chain([m, k]).collect();
        let full_b: Vec<usize> = out_batch.iter().copied().chain([k, n]).collect();
        let want = oracle_broadcast_to(&a, &full_a).matmul(&oracle_broadcast_to(&b, &full_b));
        assert_bitwise(&a.matmul(&b), &want, &format!("matmul {sa:?} x {sb:?}"));
    }
}
