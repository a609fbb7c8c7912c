//! Pooled-scratch executor identity: the hot-path machinery added by the
//! execution overhaul (global 1-D plan cache, interned twiddle tables,
//! per-rank reshape-buffer pool) is a pure optimisation. Re-running a
//! transform through a *warmed* `ExecCtx` — pool populated, every 1-D plan
//! a cache hit — must produce output bit-identical to the first, cold run,
//! for every decomposition × communication backend.

use distfft::boxes::Box3;
use distfft::exec::{bind, execute, ExecCtx, PoolStats};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::Decomp;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

/// The 1-D plan cache is process-global and
/// `plan_cache_serves_repeated_executions` compares its miss counter across
/// two runs, so the tests of this file must not interleave (the default
/// parallel test runner otherwise fails it a few times in twenty).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Forward+inverse round trip, run `reps` times through the same `ExecCtx`.
/// Returns per-run output bits, the number of buffers left in the pool, and
/// the pool's hit/miss/eviction statistics.
fn repeated_roundtrips(
    opts: FftOptions,
    n: [usize; 3],
    ranks: usize,
    reps: usize,
) -> Vec<(Vec<Vec<u64>>, usize, PoolStats)> {
    let plan = FftPlan::build(n, ranks, opts);
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let whole = Box3::whole(n);
    let global: Vec<C64> = (0..n[0] * n[1] * n[2])
        .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
        .collect();
    world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let b = plan.dists[0].rank_box(rank.rank());
        let orig = whole.extract(&global, b);
        let mut runs = Vec::new();
        for _ in 0..reps {
            let mut data = vec![orig.clone()];
            execute(
                &plan,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Forward,
            );
            execute(
                &plan,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Inverse,
            );
            let bits: Vec<u64> = data
                .remove(0)
                .iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect();
            runs.push(bits);
        }
        (runs, ctx.pooled_buffers(), ctx.pool_stats())
    })
}

#[test]
fn warm_pool_bit_identical_to_cold_for_every_decomp_and_backend() {
    let _serial = serial();
    let n = [8usize, 12, 10];
    let ranks = 4;
    for decomp in [Decomp::Slabs, Decomp::Pencils, Decomp::Bricks] {
        for backend in [
            CommBackend::AllToAll,
            CommBackend::AllToAllV,
            CommBackend::P2p,
            CommBackend::P2pBlocking,
        ] {
            let opts = FftOptions {
                decomp,
                backend,
                ..FftOptions::default()
            };
            for (r, (runs, _, _)) in repeated_roundtrips(opts, n, ranks, 3)
                .into_iter()
                .enumerate()
            {
                for (rep, bits) in runs.iter().enumerate().skip(1) {
                    assert_eq!(
                        &runs[0], bits,
                        "{decomp:?}+{backend:?} rank {r}: warm rep {rep} diverged from cold run"
                    );
                }
            }
        }
    }
}

/// Alltoallw is priced as sub-array datatypes but moves its bytes like
/// every backend (the name predates the single host data path): receivers
/// copy straight out of the sender's retired arrays.
#[test]
fn warm_pool_bit_identical_with_subarray_datatypes() {
    let _serial = serial();
    // Alltoallw + brick I/O: the schedule that charges no pack kernel, over
    // both boundary reshapes — the most reshape-heavy plan shape. Every
    // reshape's retired arrays must come home to the pool.
    let opts = FftOptions {
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllW,
        io: IoLayout::Brick,
        ..FftOptions::default()
    };
    for (r, (runs, pooled, _)) in repeated_roundtrips(opts, [8, 12, 10], 4, 3)
        .into_iter()
        .enumerate()
    {
        assert_eq!(runs[0], runs[1], "rank {r}: rep 1 diverged");
        assert_eq!(runs[0], runs[2], "rank {r}: rep 2 diverged");
        assert!(pooled > 0, "rank {r}: reshape pool never retained a buffer");
    }
}

#[test]
fn plan_cache_serves_repeated_executions() {
    let _serial = serial();
    // After any distributed run, every 1-D plan the executor needs is in the
    // global cache; a second run must not miss.
    let _ = repeated_roundtrips(FftOptions::default(), [8, 8, 8], 4, 1);
    let cache = fftkern::plan_cache();
    let misses_before = cache.misses();
    let hits_before = cache.hits();
    let _ = repeated_roundtrips(FftOptions::default(), [8, 8, 8], 4, 1);
    assert_eq!(
        cache.misses(),
        misses_before,
        "warm re-execution should not build new 1-D plans"
    );
    assert!(
        cache.hits() > hits_before,
        "warm re-execution should hit the cache"
    );
}

#[test]
fn steady_state_pool_never_evicts_and_mostly_hits() {
    let _serial = serial();
    // Eviction regression guard: a single-plan steady state must cycle
    // entirely through recycled buffers. Any eviction means the executor
    // holds more live buffers than POOL_CAP and is silently deallocating on
    // the hot path; a sub-90% steady-state hit rate means the pool is not
    // actually serving the traffic.
    let opts = FftOptions::default();
    let n = [8usize, 12, 10];
    let ranks = 4;

    // Execution is deterministic, so a 1-rep run reproduces exactly the
    // first (cold) rep of the longer run; the difference is the steady state.
    let cold = repeated_roundtrips(opts.clone(), n, ranks, 1);
    let warm = repeated_roundtrips(opts, n, ranks, 6);
    for (r, ((_, _, cold_stats), (_, _, warm_stats))) in cold.into_iter().zip(warm).enumerate() {
        assert_eq!(
            warm_stats.evictions, 0,
            "rank {r}: steady-state execution evicted pooled buffers"
        );
        let hits = warm_stats.hits - cold_stats.hits;
        let misses = warm_stats.misses - cold_stats.misses;
        let total = hits + misses;
        assert!(total > 0, "rank {r}: steady state never touched the pool");
        let rate = hits as f64 / total as f64;
        assert!(
            rate >= 0.9,
            "rank {r}: steady-state pool hit rate {rate:.3} ({hits}/{total}) below 90%"
        );
    }
}
