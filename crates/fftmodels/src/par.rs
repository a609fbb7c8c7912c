//! Deterministic parallel sweeps.
//!
//! The analytic harnesses (phase diagrams, the tuner grid, the figure
//! sweeps) evaluate hundreds of independent dry-run configurations. Each
//! evaluation is pure — the dry runner never touches shared mutable state —
//! so they fan out over scoped worker threads. Results are reassembled in
//! input order, making the parallel sweep *byte-identical* to the serial
//! one: parallelism changes wall-clock time only, never output.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for sweeps: the machine's available parallelism.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`sweep_threads`] scoped threads,
/// returning results in input order (deterministic regardless of how the
/// work interleaves).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(sweep_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (1 runs inline, serially).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // Work-stealing by atomic cursor: each worker claims the next index and
    // records (index, result); the merge below restores input order.
    let next = AtomicUsize::new(0);
    let f = &f;
    let per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let next = &next;
                s.builder()
                    .name(format!("sweep-{w}"))
                    .spawn(move |_| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    })
                    // fftlint:allow(no-panic-in-lib): thread spawn failure is unrecoverable
                    .expect("failed to spawn sweep worker")
            })
            .collect();
        handles
            .into_iter()
            // fftlint:allow(no-panic-in-lib): propagating a worker panic is the contract
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    // fftlint:allow(no-panic-in-lib): propagating a worker panic is the contract
    .expect("sweep scope panicked");

    let mut indexed: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map_with(4, &items, |&x| x * x);
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_identical_to_serial() {
        let items: Vec<u64> = (0..200).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let serial = par_map_with(1, &items, f);
        for threads in [2, 3, 8] {
            assert_eq!(par_map_with(threads, &items, f), serial);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map_with(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map_with(8, &[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn sweep_threads_is_at_least_one() {
        assert!(sweep_threads() >= 1);
    }
}
