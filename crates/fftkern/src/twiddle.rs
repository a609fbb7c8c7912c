//! Process-wide twiddle-table cache.
//!
//! Every FFT algorithm in this crate consumes the same family of tables —
//! `w[j] = e^{-2πi·j/n}` — and the seed implementation recomputed them on
//! every plan construction. Since a distributed run builds the same handful
//! of 1-D lengths over and over (once per axis per rank per execution), the
//! tables are interned here: the first request for a length pays the `O(n)`
//! trig cost, every later plan shares the same allocation via `Arc`.
//!
//! The table for length `n` holds all `n` roots. The radix-2 reference only
//! reads the first `n/2` entries, the r2c untangle the first `n/2 + 1`; the
//! Stockham stage tables are gathered from all of them. All index into the
//! same shared table, so a `Radix2Plan`, a `StockhamPlan` and the real
//! transforms of equal size agree on every twiddle to the last bit.

use crate::complex::C64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static TABLES: OnceLock<Mutex<BTreeMap<usize, Arc<[C64]>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

static STAGE_TABLES: OnceLock<Mutex<BTreeMap<usize, Arc<StockhamTables>>>> = OnceLock::new();

/// Returns the shared forward twiddle table for length `n`:
/// `w[j] = e^{-2πi·j/n}` for `j < n`.
pub fn forward_table(n: usize) -> Arc<[C64]> {
    assert!(n > 0, "twiddle table requires n >= 1");
    let tables = TABLES.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = tables.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(t) = map.get(&n) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(t);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let table: Arc<[C64]> = (0..n)
        .map(|j| C64::expi(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
        .collect();
    map.insert(n, Arc::clone(&table));
    table
}

/// One butterfly stage of a Stockham plan: `radix`-point butterflies over
/// `m` twiddle rows of `s` contiguous elements each (`radix·m·s == n`).
#[derive(Debug, Clone, Copy)]
pub struct StockhamStage {
    /// Butterfly width: 2, 4, 8, 3, 5, or 7.
    pub radix: usize,
    /// Number of distinct twiddle rows in this stage (`n_cur / radix`).
    pub m: usize,
    /// Contiguous run length of the inner loop (product of earlier radices).
    pub s: usize,
    /// Offset of this stage's twiddles in [`StockhamTables::tw`].
    pub tw_off: usize,
}

/// Interned per-stage twiddle tables for a Stockham plan of one size.
///
/// Stage `{radix: r, m, s}` stores `(r-1)` forward twiddles per row `p`:
/// `w^{jp}` for `j = 1..r` where `w = e^{-2πi/(r·m)}`. Every entry is taken
/// verbatim from the length-`n` root table (`w^{jp} = root_n[(j·p·s) % n]`,
/// using `n_cur·s == n`), whatever the radix, so Stockham and radix-2 plans
/// of equal size agree on twiddles to the last bit.
#[derive(Debug)]
pub struct StockhamTables {
    /// Stage descriptors, outermost (s = 1) first.
    pub stages: Vec<StockhamStage>,
    /// Concatenated per-stage forward twiddles; inverse conjugates on read.
    pub tw: Vec<C64>,
}

/// Returns the shared Stockham stage tables for 2/3/5/7-smooth length `n`.
///
/// First request per length builds the tables from [`forward_table`] (one
/// shared trig computation); later requests are an intern-map lookup. Hits
/// and misses fold into the same counters as the root tables.
#[expect(
    clippy::indexing_slicing,
    reason = "`(j * p * s) % n` is below `n`, the root table's length"
)]
pub fn stockham_tables(n: usize) -> Arc<StockhamTables> {
    let tables = STAGE_TABLES.get_or_init(|| Mutex::new(BTreeMap::new()));
    {
        let map = tables.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = map.get(&n) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(t);
        }
    }
    // Build outside the lock: forward_table takes the same mutex family and
    // the trig work should not serialize unrelated lookups. Decomposing
    // first rejects a non-smooth `n` before anything is counted or built.
    let radices = crate::stockham::radix_decomposition(n);
    MISSES.fetch_add(1, Ordering::Relaxed);
    let root = forward_table(n);
    let mut stages = Vec::new();
    let mut tw = Vec::new();
    let mut s = 1usize;
    let mut n_cur = n;
    for r in radices {
        let m = n_cur / r;
        stages.push(StockhamStage {
            radix: r,
            m,
            s,
            tw_off: tw.len(),
        });
        for p in 0..m {
            for j in 1..r {
                tw.push(root[(j * p * s) % n]);
            }
        }
        s *= r;
        n_cur = m;
    }
    let built = Arc::new(StockhamTables { stages, tw });
    let mut map = tables.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(n).or_insert(built))
}

/// Number of cache hits since process start (for tests and bench reports).
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Number of cache misses (= distinct lengths built) since process start.
pub fn misses() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_are_roots_of_unity() {
        let t = forward_table(8);
        assert_eq!(t.len(), 8);
        assert!((t[0].re - 1.0).abs() < 1e-12 && t[0].im.abs() < 1e-12);
        // w[2] = e^{-iπ/2} = -i.
        assert!(t[2].re.abs() < 1e-12 && (t[2].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_requests_share_storage() {
        let a = forward_table(24);
        let b = forward_table(24);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stage_tables_are_interned_and_sized() {
        let a = stockham_tables(512);
        let b = stockham_tables(512);
        assert!(Arc::ptr_eq(&a, &b));
        // 512 = 8·8·8: stages (m=64,s=1), (m=8,s=8), (m=1,s=64); each stage
        // stores 7 twiddles per row.
        assert_eq!(a.stages.len(), 3);
        assert_eq!(a.tw.len(), 7 * (64 + 8 + 1));
        for st in &a.stages {
            assert_eq!(st.radix * st.m * st.s, 512);
        }
        // Row p = 0 of every stage is all ones.
        for st in &a.stages {
            for j in 0..st.radix - 1 {
                let w = a.tw[st.tw_off + j];
                assert!((w.re - 1.0).abs() < 1e-15 && w.im.abs() < 1e-15);
            }
        }
    }
}
