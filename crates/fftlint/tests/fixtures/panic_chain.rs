// Fixture: the callee half of the cross-crate panic chain (see
// `exec_seed.rs`). `deep` panics two hops below the executor entry;
// `indexed` shows the per-fn index summary; `justified` shows an inline
// allow discharging one site.

pub fn kern_entry(p: &P) -> usize {
    deep(p) + indexed(p) + justified(p)
}

fn deep(p: &P) -> usize {
    p.value.unwrap()
}

fn indexed(p: &P) -> usize {
    p.table[0] + p.table[1]
}

fn justified(p: &P) -> usize {
    // fftlint:allow(panic-reachable-from-exec): fixture: the invariant note discharges the site
    p.checked.unwrap()
}
