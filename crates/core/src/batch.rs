//! The one batch fan-out (§4 "execute the rules in parallel", one machine's
//! worth): cut a slice into fixed chunks, let scoped threads claim them from
//! an atomic cursor, and concatenate the results in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many items a batch runs on the caller's thread: spawning
/// costs more than it saves.
const SERIAL_BELOW: usize = 64;

/// Chunks per thread: enough slack that a thread the scheduler starts late,
/// or one that draws the expensive items, leaves its share to the others.
const CHUNKS_PER_THREAD: usize = 8;

/// The host's parallelism, read once (on Linux it parses cgroup files).
fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` chunk by chunk on up to `threads` threads and
/// returns the chunk results concatenated in input order.
///
/// `threads` is clamped to the host's parallelism. Batches under 64 items,
/// or one thread, run serially as one `f(items)` call. Otherwise the batch
/// is cut into `8 × threads` chunks, and `threads - 1` scoped threads plus
/// the caller claim them in turn until none is left. A panic in any chunk
/// re-raises in the caller once every thread has joined.
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, parallelism());
    if threads == 1 || items.len() < SERIAL_BELOW {
        return f(items);
    }
    let chunks: Vec<&[T]> =
        items.chunks(items.len().div_ceil(threads * CHUNKS_PER_THREAD)).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(i) else { return done };
            done.push((i, f(chunk)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for worker in workers {
            done.extend(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().flat_map(|(_, rows)| rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubled(chunk: &[usize]) -> Vec<usize> {
        chunk.iter().map(|x| x * 2).collect()
    }

    #[test]
    fn preserves_order_at_every_length_and_width() {
        for len in [0, 1, 63, 64, 65, 201, 1000] {
            let items: Vec<usize> = (0..len).collect();
            let expected = doubled(&items);
            for threads in [0, 1, 2, 3, 8] {
                assert_eq!(map_chunks(&items, threads, doubled), expected, "{len}/{threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "poisoned item")]
    fn a_panicking_chunk_panics_the_caller() {
        let items: Vec<usize> = (0..200).collect();
        map_chunks(&items, 8, |chunk| {
            assert!(!chunk.contains(&0), "poisoned item");
            doubled(chunk)
        });
    }
}
