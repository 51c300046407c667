//! Scoped-thread data-parallel execution (std-only).
//!
//! Every hot kernel in the workspace — batched [`crate::NdArray::matmul`],
//! `im2col`/`col2im`, the per-frame dynamic-hypergraph construction in
//! `dhg-hypergraph`, batch assembly in `dhg-train` — funnels through the
//! two primitives in this module:
//!
//! * [`for_each_block`] — split a flat output buffer into equally sized
//!   blocks and fill each block independently (matmul rows, `im2col` rows,
//!   per-frame operators, per-sample batch slots).
//! * [`for_each_span`] — the ragged-span variant of [`for_each_block`]:
//!   consecutive spans of caller-chosen lengths (the packed GEMM's
//!   row-blocks, whose last block per batch is shorter).
//! * [`parallel_map`] — compute `n` independent values and return them in
//!   index order (hyperedge lists, per-sample topology operators,
//!   pre-assembled minibatches).
//!
//! ## Determinism guarantee
//!
//! Both primitives are *bitwise deterministic*: every output element is
//! produced by exactly one invocation of the caller's closure with exactly
//! the same arguments regardless of the thread count. Threads only decide
//! *who* computes a block, never *how* — there are no shared accumulators,
//! no atomics-order-dependent reductions, and no per-thread scratch that
//! could reassociate floating-point sums. `threads = 1` (or a problem below
//! [`MIN_PARALLEL_WORK`]) degenerates to the plain serial loop.
//!
//! ## Thread-count resolution
//!
//! 1. a [`with_threads`] override active on the calling thread, else
//! 2. the `DHGCN_THREADS` environment variable (a positive integer no
//!    larger than [`MAX_ENV_THREADS`]), else
//! 3. [`std::thread::available_parallelism`].
//!
//! A malformed `DHGCN_THREADS` — `0`, non-numeric garbage, or an absurdly
//! large value that would fork-bomb the process — never panics and never
//! produces a zero-thread pool: it falls back to
//! [`std::thread::available_parallelism`] and prints a one-time warning to
//! stderr (once per process, not once per kernel launch — a long-running
//! server must not spam its log from every forward pass).
//!
//! Worker threads run with parallelism suppressed, so closures may freely
//! call back into parallel kernels (e.g. the per-frame operator build calls
//! `matmul`) without spawning nested pools.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Once, OnceLock};
use std::thread;

/// Problems whose estimated scalar-op count falls below this run serially:
/// spawning OS threads costs tens of microseconds, which only amortises
/// once there is real work to split.
pub const MIN_PARALLEL_WORK: usize = 1 << 18;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous thread-count override when dropped (panic-safe).
struct OverrideGuard(Option<usize>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.0));
    }
}

fn set_override(n: Option<usize>) -> OverrideGuard {
    OverrideGuard(THREAD_OVERRIDE.with(|o| o.replace(n)))
}

/// The worker-thread guard: nested parallel regions inside a worker run
/// serially instead of spawning a second generation of threads.
fn suppress_nested() -> OverrideGuard {
    set_override(Some(1))
}

/// Largest thread count accepted from the `DHGCN_THREADS` environment
/// variable. Anything above this is treated as a configuration mistake
/// (e.g. a byte count pasted into the wrong variable) rather than a real
/// request to spawn thousands of OS threads per kernel launch.
pub const MAX_ENV_THREADS: usize = 512;

/// The hardware fallback: [`std::thread::available_parallelism`], or 1
/// when even that cannot be determined.
fn default_threads() -> usize {
    // probed once: `available_parallelism` re-reads the cgroup CPU quota
    // on every call (about 15 µs on Linux), which would dominate the many
    // small products of a forward pass that ask for a thread count
    static PROBED: OnceLock<usize> = OnceLock::new();
    *PROBED.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Validate a raw `DHGCN_THREADS` value. `Ok(n)` for `1..=MAX_ENV_THREADS`;
/// `Err(reason)` for everything a long-running process must survive:
/// zero, negative, non-numeric, empty, and absurdly large values.
fn parse_env_threads(raw: &str) -> Result<usize, &'static str> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("zero threads is meaningless"),
        Ok(n) if n > MAX_ENV_THREADS => Err("absurdly large"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a positive integer"),
    }
}

/// The number of worker threads a parallel region started on this thread
/// would use: a [`with_threads`] override if active, else a *valid*
/// `DHGCN_THREADS` (see [`MAX_ENV_THREADS`]), else
/// [`std::thread::available_parallelism`]. Always at least 1. An invalid
/// environment value warns once per process and falls back.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("DHGCN_THREADS") {
        match parse_env_threads(&s) {
            Ok(n) => return n,
            Err(why) => {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "dhg-tensor: ignoring DHGCN_THREADS={s:?} ({why}); \
                         falling back to {} thread(s)",
                        default_threads()
                    );
                });
            }
        }
    }
    default_threads()
}

/// Run `f` with the thread count pinned to `n` (at least 1) on the current
/// thread, restoring the previous setting afterwards. This is how the
/// determinism suite compares `threads ∈ {1, 2, 8}` without racing on the
/// process-global environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = set_override(Some(n.max(1)));
    f()
}

/// End of shard `i` when `n` items are split over `parts` shards: shards
/// are contiguous, cover `0..n`, and differ in size by at most one.
#[inline]
fn shard_end(n: usize, parts: usize, i: usize) -> usize {
    // parts and i are small (thread counts), so n * i cannot overflow for
    // any buffer that fits in memory
    n * i / parts
}

/// How many threads to actually use for `n_items` items of `work` total
/// estimated scalar operations.
fn plan(n_items: usize, work: usize) -> usize {
    if n_items <= 1 || work < MIN_PARALLEL_WORK {
        return 1;
    }
    num_threads().min(n_items)
}

/// Split `out` into consecutive blocks of `block` elements and call
/// `f(block_index, block)` for each, sharding blocks over the worker pool.
///
/// `work` is the caller's estimate of the total scalar-op count; problems
/// below [`MIN_PARALLEL_WORK`] (or with one thread) run the plain serial
/// loop. Each block is written by exactly one closure invocation, so the
/// result is bitwise identical at every thread count.
///
/// Panics if `out` is non-empty and its length is not a multiple of
/// `block`.
pub fn for_each_block<F>(out: &mut [f32], block: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(block > 0, "for_each_block: zero block size");
    assert_eq!(out.len() % block, 0, "for_each_block: buffer not a multiple of block");
    let n_items = out.len() / block;
    let nt = plan(n_items, work);
    if nt <= 1 {
        for (i, blk) in out.chunks_mut(block).enumerate() {
            f(i, blk);
        }
        return;
    }
    thread::scope(|s| {
        let first_end = shard_end(n_items, nt, 1);
        let (mine, mut rest) = out.split_at_mut(first_end * block);
        let mut start = first_end;
        for t in 1..nt {
            let end = shard_end(n_items, nt, t + 1);
            let (shard, tail) = rest.split_at_mut((end - start) * block);
            rest = tail;
            let f = &f;
            let item0 = start;
            s.spawn(move || {
                let _guard = suppress_nested();
                for (k, blk) in shard.chunks_mut(block).enumerate() {
                    f(item0 + k, blk);
                }
            });
            start = end;
        }
        // shard 0 runs on the calling thread while the workers run theirs
        let _guard = suppress_nested();
        for (k, blk) in mine.chunks_mut(block).enumerate() {
            f(k, blk);
        }
    });
}

/// Split `out` into consecutive *ragged* spans and call `f(span_index,
/// span)` for each, sharding spans over the worker pool. `ends[i]` is the
/// exclusive element offset where span `i` stops; spans therefore cover
/// `0..out.len()` contiguously and may differ in length (the packed GEMM
/// shards row-blocks whose last block per batch is shorter).
///
/// Same `work` threshold and bitwise-determinism contract as
/// [`for_each_block`]: each span is written by exactly one closure
/// invocation with the same arguments at every thread count.
///
/// Panics unless `ends` is non-decreasing and its last entry equals
/// `out.len()`.
pub fn for_each_span<F>(out: &mut [f32], ends: &[usize], work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() && ends.is_empty() {
        return;
    }
    assert_eq!(
        ends.last().copied(),
        Some(out.len()),
        "for_each_span: ends must finish at the buffer length"
    );
    assert!(ends.windows(2).all(|w| w[0] <= w[1]), "for_each_span: ends must be non-decreasing");
    let n_items = ends.len();
    let nt = plan(n_items, work);
    if nt <= 1 {
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            f(i, &mut out[start..end]);
            start = end;
        }
        return;
    }
    thread::scope(|s| {
        let item_end = |t: usize| shard_end(n_items, nt, t);
        let offset = |item: usize| if item == 0 { 0 } else { ends[item - 1] };
        let (mine, mut rest) = out.split_at_mut(offset(item_end(1)));
        for t in 1..nt {
            let (i0, i1) = (item_end(t), item_end(t + 1));
            let (shard, tail) = rest.split_at_mut(offset(i1) - offset(i0));
            rest = tail;
            let f = &f;
            s.spawn(move || {
                let _guard = suppress_nested();
                let base = offset(i0);
                let mut start = 0;
                for (i, &e) in ends.iter().enumerate().take(i1).skip(i0) {
                    let end = e - base;
                    f(i, &mut shard[start..end]);
                    start = end;
                }
            });
        }
        // shard 0 runs on the calling thread while the workers run theirs
        let _guard = suppress_nested();
        let mut start = 0;
        for (i, &end) in ends[..item_end(1)].iter().enumerate() {
            f(i, &mut mine[start..end]);
            start = end;
        }
    });
}

/// Compute `f(0), f(1), …, f(n-1)` sharded over the worker pool and return
/// the results in index order. Same `work` threshold and determinism
/// contract as [`for_each_block`].
pub fn parallel_map<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let nt = plan(n, work);
    if nt <= 1 {
        return (0..n).map(f).collect();
    }
    thread::scope(|s| {
        let mut handles = Vec::with_capacity(nt - 1);
        for t in 1..nt {
            let range: Range<usize> = shard_end(n, nt, t)..shard_end(n, nt, t + 1);
            let f = &f;
            handles.push(s.spawn(move || {
                let _guard = suppress_nested();
                range.map(f).collect::<Vec<T>>()
            }));
        }
        let mut out = Vec::with_capacity(n);
        {
            let _guard = suppress_nested();
            for i in 0..shard_end(n, nt, 1) {
                out.push(f(i));
            }
        }
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Large enough to clear MIN_PARALLEL_WORK regardless of item count.
    const BIG: usize = MIN_PARALLEL_WORK * 4;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn env_thread_parsing_accepts_sane_values() {
        assert_eq!(parse_env_threads("1"), Ok(1));
        assert_eq!(parse_env_threads("8"), Ok(8));
        assert_eq!(parse_env_threads("  16 "), Ok(16)); // whitespace tolerated
        assert_eq!(parse_env_threads("512"), Ok(512)); // boundary
    }

    #[test]
    fn env_thread_parsing_rejects_hazards() {
        // every historical long-running-process hazard: zero-thread pools,
        // garbage, negatives, empties, and fork-bomb-sized requests
        assert!(parse_env_threads("0").is_err());
        assert!(parse_env_threads("-4").is_err());
        assert!(parse_env_threads("").is_err());
        assert!(parse_env_threads("eight").is_err());
        assert!(parse_env_threads("8.0").is_err());
        assert!(parse_env_threads("513").is_err());
        assert!(parse_env_threads("1000000").is_err());
        assert!(parse_env_threads("18446744073709551616").is_err()); // > u64
    }

    #[test]
    fn shards_are_contiguous_and_cover() {
        for n in [1usize, 7, 16, 1000] {
            for parts in [1usize, 2, 3, 8, 16] {
                assert_eq!(shard_end(n, parts, 0), 0);
                assert_eq!(shard_end(n, parts, parts), n);
                for i in 0..parts {
                    assert!(shard_end(n, parts, i) <= shard_end(n, parts, i + 1));
                }
            }
        }
    }

    #[test]
    fn for_each_block_matches_serial_loop() {
        let n_items = 103; // not a multiple of any thread count
        let block = 7;
        let fill = |i: usize, blk: &mut [f32]| {
            for (k, v) in blk.iter_mut().enumerate() {
                *v = (i * 31 + k) as f32 * 0.25 - 3.0;
            }
        };
        let mut serial = vec![0.0f32; n_items * block];
        for (i, blk) in serial.chunks_mut(block).enumerate() {
            fill(i, blk);
        }
        for threads in [1usize, 2, 5, 8] {
            let mut par = vec![0.0f32; n_items * block];
            with_threads(threads, || for_each_block(&mut par, block, BIG, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_block_small_work_stays_serial_and_correct() {
        let mut out = vec![0.0f32; 8];
        // work far below the threshold: must still fill every block
        for_each_block(&mut out, 2, 4, |i, blk| blk.fill(i as f32));
        assert_eq!(out, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn for_each_block_empty_buffer_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_block(&mut out, 5, BIG, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "multiple of block")]
    fn for_each_block_misaligned_buffer_panics() {
        let mut out = vec![0.0f32; 7];
        for_each_block(&mut out, 2, BIG, |_, _| {});
    }

    #[test]
    fn for_each_span_matches_serial_loop() {
        // ragged spans: lengths cycle 1..=9, mimicking GEMM edge row-blocks
        let lens: Vec<usize> = (0..97).map(|i| i % 9 + 1).collect();
        let ends: Vec<usize> = lens
            .iter()
            .scan(0usize, |acc, &l| {
                *acc += l;
                Some(*acc)
            })
            .collect();
        let total = *ends.last().unwrap();
        let fill = |i: usize, span: &mut [f32]| {
            for (k, v) in span.iter_mut().enumerate() {
                *v = (i * 131 + k) as f32 * 0.5 - 7.0;
            }
        };
        let mut serial = vec![0.0f32; total];
        {
            let mut start = 0;
            for (i, &end) in ends.iter().enumerate() {
                fill(i, &mut serial[start..end]);
                start = end;
            }
        }
        for threads in [1usize, 2, 5, 8] {
            let mut par = vec![0.0f32; total];
            with_threads(threads, || for_each_span(&mut par, &ends, BIG, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_span_allows_empty_spans() {
        let ends = [0usize, 2, 2, 5];
        let mut out = vec![0.0f32; 5];
        for_each_span(&mut out, &ends, 4, |i, span| {
            assert_eq!(span.len(), [0, 2, 0, 3][i]);
            span.fill(i as f32);
        });
        assert_eq!(out, vec![1.0, 1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn for_each_span_empty_everything_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_span(&mut out, &[], BIG, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "finish at the buffer length")]
    fn for_each_span_bad_ends_panic() {
        let mut out = vec![0.0f32; 4];
        for_each_span(&mut out, &[1, 3], BIG, |_, _| {});
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 9] {
            let got = with_threads(threads, || parallel_map(257, BIG, |i| i * i));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_of_zero_items_is_empty() {
        let got: Vec<usize> = with_threads(4, || parallel_map(0, BIG, |i| i));
        assert!(got.is_empty());
    }

    #[test]
    fn nested_regions_inside_workers_run_serially() {
        // each worker observes num_threads() == 1, proving nested calls
        // cannot spawn a second generation of threads
        let inner: Vec<usize> = with_threads(4, || parallel_map(8, BIG, |_| num_threads()));
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(16, BIG, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }
}
