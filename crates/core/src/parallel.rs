//! A minimal scoped-thread fork-join pool for chunk-parallel codecs.
//!
//! 3LC's pitch depends on compression being cheap enough to overlap with
//! training (§3.4), so the encode/decode hot paths parallelize across
//! tensor chunks. This module is deliberately small and `std`-only: no
//! work stealing, no persistent threads, no channels — just
//! [`std::thread::scope`] fork-join over a precomputed, deterministic
//! partition. Results always come back in partition order, which is what
//! lets the parallel codec paths promise bit-for-bit identical output to
//! the serial ones (the partition, not the scheduling, decides who
//! computes what).
//!
//! The helpers here serve `ThreeLcCompressor`'s parallel encode/decode.

use std::ops::Range;

/// Number of hardware threads, with a fallback of 1 when the platform
/// cannot say (the query itself never panics).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..len` into at most `parts` contiguous ascending ranges whose
/// sizes differ by at most one (the first `len % parts` ranges get the
/// extra element). Always returns at least one range; never returns more
/// ranges than `len` (except `len == 0`, which yields a single empty
/// range).
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 0..parts {
        let size = base + usize::from(k < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Splits a mutable slice into disjoint sub-slices described by `ranges`,
/// which must be ascending and non-overlapping (gaps are allowed and
/// skipped). Empty ranges yield empty sub-slices.
///
/// # Panics
///
/// Panics if the ranges are not ascending or exceed the slice length.
pub fn split_off_ranges<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut pos = 0;
    for r in ranges {
        assert!(
            r.start >= pos && r.end >= r.start,
            "ranges must be ascending and non-overlapping"
        );
        let (_gap, rest) = slice.split_at_mut(r.start - pos);
        let (take, rest) = rest.split_at_mut(r.end - r.start);
        out.push(take);
        slice = rest;
        pos = r.end;
    }
    out
}

/// Runs `f(index, task)` for every task, each on its own scoped thread
/// (the first task runs on the calling thread), and returns the results
/// in task order. With zero or one task no thread is spawned.
///
/// Panics in a worker propagate to the caller.
pub fn run_tasks<I, T, F>(tasks: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if tasks.len() <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(k, t)| f(k, t))
            .collect();
    }
    std::thread::scope(|scope| {
        let mut iter = tasks.into_iter();
        let first = iter.next().expect("len > 1");
        let handles: Vec<_> = iter
            .enumerate()
            .map(|(k, task)| {
                let f = &f;
                scope.spawn(move || f(k + 1, task))
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, first));
        for h in handles {
            out.push(h.join().expect("codec worker panicked"));
        }
        out
    })
}

/// [`run_tasks`] over index ranges: runs `f(index, range)` for each range
/// and returns results in range order.
pub fn run_ranges<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    run_tasks(ranges.to_vec(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_is_balanced_and_exhaustive() {
        for len in 0..40usize {
            for parts in 1..9usize {
                let ranges = split_ranges(len, parts);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= parts);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} parts={parts}: {sizes:?}");
            }
        }
    }

    #[test]
    fn split_off_ranges_gives_disjoint_views() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = vec![0..3, 3..3, 5..10];
        let chunks = split_off_ranges(&mut data, &ranges);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert!(chunks[1].is_empty());
        assert_eq!(chunks[2], &[5, 6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn split_off_ranges_rejects_overlap() {
        let mut data = [0u8; 4];
        split_off_ranges(&mut data, &[0..2, 1..3]);
    }

    #[test]
    fn run_tasks_preserves_order() {
        let tasks: Vec<usize> = (0..8).collect();
        let out = run_tasks(tasks, |k, t| {
            assert_eq!(k, t);
            t * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_ranges_sums_match_serial() {
        let data: Vec<u64> = (0..1000).collect();
        let ranges = split_ranges(data.len(), 7);
        let partials = run_ranges(&ranges, |_, r| data[r].iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_tasks_mutates_disjoint_chunks() {
        let mut data = vec![0u8; 100];
        let ranges = split_ranges(data.len(), 4);
        let chunks = split_off_ranges(&mut data, &ranges);
        run_tasks(chunks, |k, chunk| {
            for b in chunk {
                *b = k as u8 + 1;
            }
        });
        assert_eq!(data[0], 1);
        assert_eq!(data[99], 4);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        run_tasks(vec![0usize, 1], |_, t| {
            if t == 1 {
                panic!("boom");
            }
        });
    }
}
