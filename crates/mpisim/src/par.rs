//! Statically-partitioned parallel execution with per-worker state.
//!
//! The executor-side counterpart of `fftmodels::par`'s sweep map: the same
//! index-ordered merge (output is byte-identical to the serial loop for any
//! worker count), but with a *static* item→worker assignment instead of an
//! atomic work-stealing cursor, so everything a worker accumulates in its
//! state is a pure function of the workload rather than of scheduling.
//!
//! Benchmark-pinned: since the executor runs on the rank's own thread the
//! only caller is `benchmark/src/layers.rs:576` (`mpisim.par_parts_fanout_us`);
//! delete with fftbench v2 (ROADMAP H(3)).

/// Parallel map of `f` over `items` with item `i` pinned to worker
/// `i % states.len()`.
///
/// Each worker receives exclusive `&mut` access to its own `states` entry
/// and processes its items in increasing input order; results are merged
/// back in input order. One worker state (or ≤ 1 item) runs inline on the
/// caller's thread. `states` must be non-empty.
///
/// The round-robin assignment balances heterogeneous item costs across
/// workers and — because it is a function of `i` and `states.len()` only —
/// makes per-worker side effects deterministic run to run.
#[expect(
    clippy::indexing_slicing,
    reason = "`states` is asserted non-empty and `i % w` is below `w = buckets.len()`"
)]
pub fn par_parts<S, T, R, F>(states: &mut [S], items: Vec<T>, f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(usize, &mut S, T) -> R + Sync,
{
    let w = states.len();
    assert!(w > 0, "par_parts requires at least one worker state");
    if w == 1 || items.len() <= 1 {
        let state = &mut states[0];
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, state, item))
            .collect();
    }

    let mut buckets: Vec<Vec<(usize, T)>> = (0..w).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % w].push((i, item));
    }

    let f = &f;
    #[expect(
        clippy::expect_used,
        reason = "propagating a worker panic is the contract"
    )]
    let per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
        #[expect(clippy::expect_used, reason = "thread spawn failure is unrecoverable")]
        let handles: Vec<_> = states
            .iter_mut()
            .zip(buckets)
            .enumerate()
            .map(|(wi, (state, bucket))| {
                s.builder()
                    .name(format!("part-{wi}"))
                    .spawn(move |_| {
                        bucket
                            .into_iter()
                            .map(|(i, item)| (i, f(i, state, item)))
                            .collect::<Vec<_>>()
                    })
                    .expect("failed to spawn partition worker")
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "propagating a worker panic is the contract"
        )]
        handles
            .into_iter()
            .map(|h| h.join().expect("partition worker panicked"))
            .collect()
    })
    .expect("partition scope panicked");

    let mut indexed: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_matches_serial_for_all_worker_counts() {
        let items: Vec<u64> = (0..123).collect();
        let serial: Vec<u64> = {
            let mut st = [0u64];
            par_parts(&mut st, items.clone(), |i, acc, x| {
                *acc += x;
                x.wrapping_mul(31).rotate_left((i % 7) as u32)
            })
        };
        for w in [2usize, 3, 5, 8] {
            let mut states = vec![0u64; w];
            let out = par_parts(&mut states, items.clone(), |i, acc, x| {
                *acc += x;
                x.wrapping_mul(31).rotate_left((i % 7) as u32)
            });
            assert_eq!(out, serial, "w={w}");
            // Static round-robin assignment ⇒ per-worker accumulators are a
            // pure function of the workload.
            let expect: Vec<u64> = (0..w)
                .map(|wi| items.iter().filter(|&&x| x as usize % w == wi).sum())
                .collect();
            assert_eq!(states, expect, "w={w}");
        }
    }

    #[test]
    fn deterministic_states_across_runs() {
        let items: Vec<usize> = (0..64).collect();
        let run = || {
            let mut states = vec![Vec::<usize>::new(); 4];
            let _ = par_parts(&mut states, items.clone(), |i, seen, x| {
                seen.push(i);
                x * 2
            });
            states
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // Worker 0 sees exactly the indices ≡ 0 (mod 4), in order.
        assert_eq!(a[0], (0..64).step_by(4).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        let mut states = vec![0u32; 8];
        let out = par_parts(&mut states, vec![7u32], |_, s, x| {
            *s += 1;
            x + 1
        });
        assert_eq!(out, vec![8]);
        assert_eq!(states[0], 1);
        assert!(states[1..].iter().all(|&s| s == 0));
    }
}
