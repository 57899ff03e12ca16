//! Deterministic ordered parallel map.
//!
//! The execution engine's one concurrency primitive: apply a function to
//! the indices `0..count` on a scoped worker pool and return
//! the results **in index order**, so callers that previously ran a
//! serial `for` loop get byte-identical results at any thread count.
//! Workers pull indices from a shared atomic counter (work stealing), so
//! heterogeneous item costs balance automatically; ordering is restored
//! by writing each result into its index slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the host offers (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `data` into contiguous byte ranges of roughly `chunk_bytes`
/// each, snapped forward to line boundaries: every range except
/// possibly the last ends immediately after a `\n`, so no line is ever
/// split across two chunks.
///
/// Boundaries depend only on the input bytes and `chunk_bytes` — never
/// on thread count — so a chunked parallel pass over the ranges is
/// deterministic. The ranges partition `0..data.len()` exactly;
/// `chunk_bytes` is clamped to at least 1 (a 1-byte request yields one
/// chunk per line).
///
/// # Examples
///
/// ```
/// let text = b"alpha\nbeta\ngamma\n";
/// let chunks = failstats::line_chunks(text, 7);
/// assert_eq!(chunks, vec![0..11, 11..17]);
/// let rebuilt: Vec<u8> = chunks
///     .into_iter()
///     .flat_map(|r| text[r].to_vec())
///     .collect();
/// assert_eq!(rebuilt, text);
/// ```
pub fn line_chunks(data: &[u8], chunk_bytes: usize) -> Vec<std::ops::Range<usize>> {
    let step = chunk_bytes.max(1);
    let mut chunks = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let mut end = start.saturating_add(step).min(data.len());
        if end < data.len() {
            // Snap forward so the chunk ends just after a newline. When
            // `end` already sits on one (previous byte is `\n`), the
            // search matches at offset 0 and the boundary stays put.
            end = match data[end - 1..].iter().position(|&b| b == b'\n') {
                Some(offset) => end + offset,
                None => data.len(),
            };
        }
        chunks.push(start..end);
        start = end;
    }
    chunks
}

/// Maps `f` over `0..count` with up to `threads` workers, returning the
/// results in index order.
///
/// The output is identical to `(0..count).map(f).collect()` for every
/// `threads` value; `threads <= 1` (or `count <= 1`) short-circuits to
/// exactly that serial loop, spawning nothing.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
///
/// # Examples
///
/// ```
/// use failstats::par_map_ordered;
///
/// let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
/// let parallel = par_map_ordered(100, 4, |i| i * i);
/// assert_eq!(serial, parallel);
/// ```
pub fn par_map_ordered<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<T>>> = Vec::with_capacity(count);
    slots.resize_with(count, || Mutex::new(None));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, next, slots) = (&f, &next, &slots);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().expect("slot lock is never poisoned") = Some(value);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("parallel map worker panicked");
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chunks_partition_and_respect_newlines() {
        let text = b"a\nbb\nccc\ndddd\neeeee\nno-trailing-newline";
        for chunk_bytes in [1, 2, 3, 5, 8, 100, usize::MAX] {
            let chunks = line_chunks(text, chunk_bytes);
            // Exact partition of the input.
            let mut expected_start = 0;
            for r in &chunks {
                assert_eq!(r.start, expected_start, "chunk_bytes = {chunk_bytes}");
                assert!(r.end > r.start);
                expected_start = r.end;
            }
            assert_eq!(expected_start, text.len());
            // Every boundary except the final one follows a newline.
            for r in &chunks[..chunks.len() - 1] {
                assert_eq!(text[r.end - 1], b'\n', "chunk_bytes = {chunk_bytes}");
            }
        }
        // One chunk per line at the smallest size.
        assert_eq!(line_chunks(text, 1).len(), 6);
        assert_eq!(line_chunks(b"", 4), Vec::<std::ops::Range<usize>>::new());
        // A boundary landing exactly on a newline stays put.
        assert_eq!(line_chunks(b"ab\ncd\n", 3), vec![0..3, 3..6]);
    }

    #[test]
    fn matches_serial_for_every_thread_count() {
        let serial: Vec<usize> = (0..57usize).map(|i| i.wrapping_mul(31)).collect();
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            let parallel = par_map_ordered(57, threads, |i| i.wrapping_mul(31));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_ordered(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_ordered(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn floating_point_reduction_is_order_stable() {
        // Summing the ordered outputs reproduces the serial sum bit for
        // bit — the property the seed-sweep sharding relies on.
        let f = |i: usize| ((i as f64) * 0.1).sin();
        let serial: f64 = (0..1000).map(f).sum();
        let parallel: f64 = par_map_ordered(1000, 8, f).iter().sum();
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn borrows_captured_state() {
        let data: Vec<u64> = (0..64).collect();
        let doubled = par_map_ordered(data.len(), 4, |i| data[i] * 2);
        assert_eq!(doubled[63], 126);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_ordered(8, 2, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
