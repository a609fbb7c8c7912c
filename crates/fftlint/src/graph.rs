//! Pass 2 of the workspace analyzer: the call graph and the four
//! interprocedural rules.
//!
//! [`Analysis::build`] scans every input file (pass 1, [`crate::tree`]),
//! then resolves each call site to candidate fn items workspace-wide.
//! Resolution is name-based with three precision levers: a `Type::name`
//! qualifier must match an `impl Type` fn exactly (with `Self::` mapped to
//! the enclosing impl), bare/module-qualified names prefer same-crate
//! matches before falling back workspace-wide, and ubiquitous std method
//! names (`.len()`, `.map()`, …) never form edges. Test fns and non-`Lib`
//! files never join the graph. The result over-approximates reachability —
//! exactly what deny-by-default rules want — while the noise list keeps
//! the false-edge rate low enough that findings stay reviewable.
//!
//! Rules (ids registered in [`crate::rules`]):
//!
//! * `no-alloc-in-hot-path` — allocations inside `// fftlint:hot` fns and
//!   everything they transitively call within [`HOT_CRATES`]; the pooled
//!   acquisition APIs in [`HOT_EXEMPT_CALLEES`] are not descended into.
//! * `env-read-outside-fftobs` — `std::env::var`/`var_os` anywhere (all
//!   file kinds, tests included) except `crates/obs/src/env.rs`.
//! * `lock-order` — a fn that can hold lock A while acquiring lock B
//!   (lexically later in the same body, or via a callee whose transitive
//!   lockset contains B) is flagged when the pair is seen in the reverse
//!   order anywhere else in the workspace.
//! * `panic-reachable-from-exec` — `.unwrap()`/`.expect()` and indexing
//!   sites in any fn transitively reachable from the executor entry file
//!   (`crates/distfft/src/exec.rs`). Index sites are summarized as one
//!   finding per fn at the first site to keep volume reviewable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lex;
use crate::rules::{self, FileCtx, FileKind, Finding};
use crate::tree::{self, FileTree, FnItem};

/// Crates whose steady-state paths must not allocate: the kernel, the
/// distributed executor, and the simulated wire between ranks.
pub const HOT_CRATES: [&str; 3] = ["fftkern", "distfft", "mpisim"];

/// Callee names the hot-path rule treats as sanctioned acquisition APIs:
/// pooled scratch take/deposit and memoized plan/twiddle lookups. They may
/// allocate on a cold miss by design (plan once, execute allocation-free),
/// so the rule neither flags them nor descends into them.
pub const HOT_EXEMPT_CALLEES: [&str; 11] = [
    "take_len",
    "take_buffer",
    "recycle",
    "give",
    "kernel_for",
    "plan1d",
    "plan1d_contiguous",
    "plan2d",
    "plan3d",
    "forward_table",
    "stockham_tables",
];

/// The only file allowed to touch the process environment.
pub const ENV_ALLOWED_FILES: [&str; 1] = ["crates/obs/src/env.rs"];

/// Executor entry file: every Lib fn here seeds `panic-reachable-from-exec`.
pub const EXEC_ENTRY_FILE: &str = "crates/distfft/src/exec.rs";

/// Ubiquitous std method names that never resolve to workspace fns. Only
/// consulted for `.name(...)` method syntax and bare unqualified calls —
/// a `Type::name` qualified call always resolves exactly.
const NOISE_NAMES: [&str; 83] = [
    "abs",
    "and_then",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chunks",
    "chunks_exact",
    "chunks_mut",
    "clamp",
    "clear",
    "clone",
    "clone_from_slice",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copy_from_slice",
    "cos",
    "count",
    "drop",
    "entry",
    "eq",
    "err",
    "exp",
    "extend",
    "fill",
    "filter",
    "flat_map",
    "floor",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "ln",
    "load",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "ok",
    "parse",
    "pop",
    "powf",
    "powi",
    "push",
    "read",
    "remove",
    "replace",
    "resize",
    "round",
    "sin",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by_key",
    "split_at",
    "split_at_mut",
    "sqrt",
    "store",
    "sum",
    "swap",
    "take",
    "to_string",
    "truncate",
    "windows",
];

/// One analyzed file: classification plus both passes' artifacts.
pub struct AFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Crate directory name (`""` for root sources).
    pub crate_name: String,
    /// Build role, from [`crate::classify`].
    pub kind: FileKind,
    /// Token stream and directives.
    pub scan: lex::Scanned,
    /// Item tree.
    pub tree: FileTree,
}

/// The workspace-wide analysis: files, flattened fn items, and resolved
/// call edges.
pub struct Analysis {
    /// Analyzed files, in input order.
    pub files: Vec<AFile>,
    /// Global fn id → (file index, local fn index).
    fns: Vec<(usize, usize)>,
    /// Global fn id → per-call resolved target fn ids.
    resolved: Vec<Vec<Vec<usize>>>,
}

/// Reachability result: fn id → (BFS parent, seed id).
type ReachMap = BTreeMap<usize, (Option<usize>, usize)>;

impl Analysis {
    /// Scans and tree-builds every `(relative_path, source)` input, then
    /// resolves the call graph.
    pub fn build(inputs: &[(String, String)]) -> Analysis {
        let mut files = Vec::with_capacity(inputs.len());
        for (rel, src) in inputs {
            let (crate_name, kind) = crate::classify(rel);
            let scan = lex::scan(src);
            let tree = tree::build(&scan);
            files.push(AFile {
                rel: rel.clone(),
                crate_name,
                kind,
                scan,
                tree,
            });
        }
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for li in 0..f.tree.fns.len() {
                fns.push((fi, li));
            }
        }
        let mut a = Analysis {
            files,
            fns,
            resolved: Vec::new(),
        };
        a.resolve_all();
        a
    }

    fn item(&self, id: usize) -> &FnItem {
        let (fi, li) = self.fns[id];
        &self.files[fi].tree.fns[li]
    }

    fn file_of(&self, id: usize) -> &AFile {
        &self.files[self.fns[id].0]
    }

    /// Graph-eligible: library code outside tests. Bins, benches, and
    /// integration tests sit at the process boundary and neither seed nor
    /// extend interprocedural reachability.
    fn eligible(&self, id: usize) -> bool {
        self.file_of(id).kind == FileKind::Lib && !self.item(id).test
    }

    fn resolve_all(&mut self) {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for id in 0..self.fns.len() {
            if !self.eligible(id) {
                continue;
            }
            let f = self.item(id);
            by_name.entry(f.name.as_str()).or_default().push(id);
            if f.impl_type.is_some() {
                by_qual.entry(f.qual.clone()).or_default().push(id);
            }
        }
        let prefer_same_crate = |hits: &[usize], caller_crate: &str| -> Vec<usize> {
            let same: Vec<usize> = hits
                .iter()
                .copied()
                .filter(|&h| self.file_of(h).crate_name == caller_crate)
                .collect();
            if same.is_empty() {
                hits.to_vec()
            } else {
                same
            }
        };
        let mut resolved = Vec::with_capacity(self.fns.len());
        for id in 0..self.fns.len() {
            let caller = self.item(id);
            let caller_crate = self.file_of(id).crate_name.clone();
            let mut per_call = Vec::with_capacity(caller.calls.len());
            for call in &caller.calls {
                let mut qual = call.qual.clone();
                if qual.as_deref() == Some("Self") {
                    qual = caller.impl_type.clone();
                }
                let targets = match &qual {
                    Some(q) if q.starts_with(|c: char| c.is_uppercase()) => {
                        // `Type::name`: exact impl match or nothing — a miss
                        // means a std/vendored type, never a name fallback.
                        match by_qual.get(&format!("{q}::{}", call.name)) {
                            Some(hits) => prefer_same_crate(hits, &caller_crate),
                            None => Vec::new(),
                        }
                    }
                    _ => {
                        // Method or bare/module-qualified free call.
                        let noisy = (call.method || qual.is_none())
                            && NOISE_NAMES.contains(&call.name.as_str());
                        if noisy {
                            Vec::new()
                        } else {
                            match by_name.get(call.name.as_str()) {
                                Some(hits) => prefer_same_crate(hits, &caller_crate),
                                None => Vec::new(),
                            }
                        }
                    }
                };
                per_call.push(targets);
            }
            resolved.push(per_call);
        }
        self.resolved = resolved;
    }

    /// BFS over resolved edges from `seeds`, restricted to fns passing
    /// `keep`, never descending through callee names in `skip`. Seeds are
    /// visited in the given order; edges in token order — deterministic
    /// shortest chains.
    fn reach(&self, seeds: &[usize], skip: &[&str], keep: impl Fn(usize) -> bool) -> ReachMap {
        let mut map: ReachMap = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &s in seeds {
            if keep(s) && !map.contains_key(&s) {
                map.insert(s, (None, s));
                queue.push_back(s);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let seed = match map.get(&cur) {
                Some(&(_, s)) => s,
                None => continue,
            };
            let item = self.item(cur);
            for (ci, call) in item.calls.iter().enumerate() {
                if skip.contains(&call.name.as_str()) {
                    continue;
                }
                for &tgt in &self.resolved[cur][ci] {
                    if keep(tgt) && !map.contains_key(&tgt) {
                        map.insert(tgt, (Some(cur), seed));
                        queue.push_back(tgt);
                    }
                }
            }
        }
        map
    }

    /// Renders the seed→…→`id` qualifier chain recorded in a [`ReachMap`].
    fn chain(&self, map: &ReachMap, id: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = id;
        loop {
            parts.push(self.item(cur).qual.clone());
            match map.get(&cur) {
                Some(&(Some(parent), _)) => cur = parent,
                _ => break,
            }
        }
        parts.reverse();
        parts.join(" -> ")
    }

    fn emit(
        &self,
        out: &mut Vec<Finding>,
        fi: usize,
        rule: &'static str,
        line: u32,
        col: u32,
        msg: String,
    ) {
        let f = &self.files[fi];
        if f.scan.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            path: f.rel.clone(),
            line,
            col,
            msg,
        });
    }

    /// Runs the per-file rules plus all four graph rules; findings sorted
    /// by (path, line, col, rule).
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for f in &self.files {
            out.extend(rules::lint(
                &f.scan,
                &FileCtx {
                    path: &f.rel,
                    crate_name: &f.crate_name,
                    kind: f.kind,
                },
            ));
        }
        self.no_alloc_in_hot_path(&mut out);
        self.env_read_outside_fftobs(&mut out);
        self.lock_order(&mut out);
        self.panic_reachable_from_exec(&mut out);
        out.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule, &a.msg).cmp(&(&b.path, b.line, b.col, b.rule, &b.msg))
        });
        out
    }

    fn no_alloc_in_hot_path(&self, out: &mut Vec<Finding>) {
        let seeds: Vec<usize> = (0..self.fns.len())
            .filter(|&id| {
                self.item(id).hot
                    && self.eligible(id)
                    && HOT_CRATES.contains(&self.file_of(id).crate_name.as_str())
            })
            .collect();
        let map = self.reach(&seeds, &HOT_EXEMPT_CALLEES, |id| {
            self.eligible(id) && HOT_CRATES.contains(&self.file_of(id).crate_name.as_str())
        });
        for (&id, &(_, seed)) in &map {
            let f = self.item(id);
            if f.allocs.is_empty() {
                continue;
            }
            let ctx = if id == seed {
                format!("`{}` is marked fftlint:hot", f.qual)
            } else {
                format!(
                    "reachable from fftlint:hot `{}` via {}",
                    self.item(seed).qual,
                    self.chain(&map, id)
                )
            };
            let fi = self.fns[id].0;
            for site in &f.allocs {
                self.emit(
                    out,
                    fi,
                    rules::NO_ALLOC_IN_HOT_PATH,
                    site.line,
                    site.col,
                    format!(
                        "{} allocates on a hot path ({ctx}); take from the pooled \
                         scratch/plan APIs or justify with fftlint:allow",
                        site.what
                    ),
                );
            }
        }
    }

    fn env_read_outside_fftobs(&self, out: &mut Vec<Finding>) {
        for (fi, f) in self.files.iter().enumerate() {
            if ENV_ALLOWED_FILES.contains(&f.rel.as_str()) {
                continue;
            }
            for site in &f.tree.env_reads {
                self.emit(
                    out,
                    fi,
                    rules::ENV_READ_OUTSIDE_FFTOBS,
                    site.line,
                    site.col,
                    format!(
                        "std::env::{} outside fftobs::env; route FFT_* reads through its \
                         warn-once helpers (parse_var/positive_var/is_set)",
                        site.what
                    ),
                );
            }
        }
    }

    fn lock_order(&self, out: &mut Vec<Finding>) {
        let lock_name = |fi: usize, recv: &str| -> String {
            let c = &self.files[fi].crate_name;
            if c.is_empty() {
                recv.to_string()
            } else {
                format!("{c}::{recv}")
            }
        };
        // Transitive lockset per fn, to fixpoint (cycles converge because
        // sets only grow).
        let n = self.fns.len();
        let mut sets: Vec<BTreeSet<String>> = (0..n)
            .map(|id| {
                if !self.eligible(id) {
                    return BTreeSet::new();
                }
                let fi = self.fns[id].0;
                self.item(id)
                    .locks
                    .iter()
                    .map(|l| lock_name(fi, &l.recv))
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                if !self.eligible(id) {
                    continue;
                }
                for targets in &self.resolved[id] {
                    for &tgt in targets {
                        if tgt == id || sets[tgt].is_empty() {
                            continue;
                        }
                        let add: Vec<String> = sets[tgt]
                            .iter()
                            .filter(|x| !sets[id].contains(*x))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            sets[id].extend(add);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Ordered pairs with evidence: (held, acquired) → sites.
        struct Ev {
            fi: usize,
            line: u32,
            col: u32,
            fn_qual: String,
            via: Option<String>,
        }
        let mut pairs: BTreeMap<(String, String), Vec<Ev>> = BTreeMap::new();
        for id in 0..n {
            if !self.eligible(id) {
                continue;
            }
            let fi = self.fns[id].0;
            let f = self.item(id);
            for (li, l) in f.locks.iter().enumerate() {
                let a = lock_name(fi, &l.recv);
                // Later locks in the same body (guard conservatively
                // assumed held to the end of the fn).
                for m in &f.locks[li + 1..] {
                    let b = lock_name(fi, &m.recv);
                    if a != b {
                        pairs.entry((a.clone(), b)).or_default().push(Ev {
                            fi,
                            line: m.line,
                            col: m.col,
                            fn_qual: f.qual.clone(),
                            via: None,
                        });
                    }
                }
                // Later calls whose transitive lockset acquires b.
                for (ci, call) in f.calls.iter().enumerate() {
                    if call.tok < l.tok {
                        continue;
                    }
                    for &tgt in &self.resolved[id][ci] {
                        for b in &sets[tgt] {
                            if *b != a {
                                pairs.entry((a.clone(), b.clone())).or_default().push(Ev {
                                    fi,
                                    line: call.line,
                                    col: call.col,
                                    fn_qual: f.qual.clone(),
                                    via: Some(self.item(tgt).qual.clone()),
                                });
                            }
                        }
                    }
                }
            }
        }
        // Flag every evidence site of a pair whose reverse also occurs.
        let mut seen: BTreeSet<(usize, u32, u32, String, String)> = BTreeSet::new();
        for ((a, b), evs) in &pairs {
            let Some(rev) = pairs.get(&(b.clone(), a.clone())) else {
                continue;
            };
            let Some(r) = rev
                .iter()
                .min_by_key(|e| (&self.files[e.fi].rel, e.line, e.col))
            else {
                continue;
            };
            let rev_at = format!("{}:{}", self.files[r.fi].rel, r.line);
            for ev in evs {
                if !seen.insert((ev.fi, ev.line, ev.col, a.clone(), b.clone())) {
                    continue;
                }
                let via = match &ev.via {
                    Some(v) => format!(" via call to `{v}`"),
                    None => String::new(),
                };
                self.emit(
                    out,
                    ev.fi,
                    rules::LOCK_ORDER,
                    ev.line,
                    ev.col,
                    format!(
                        "`{}` can acquire lock `{b}`{via} while `{a}` is held; the reverse \
                         order appears at {rev_at} — pick one global order",
                        ev.fn_qual
                    ),
                );
            }
        }
    }

    fn panic_reachable_from_exec(&self, out: &mut Vec<Finding>) {
        let seeds: Vec<usize> = (0..self.fns.len())
            .filter(|&id| self.eligible(id) && self.file_of(id).rel == EXEC_ENTRY_FILE)
            .collect();
        let map = self.reach(&seeds, &[], |id| self.eligible(id));
        for (&id, &(_, seed)) in &map {
            let f = self.item(id);
            if f.panics.is_empty() && f.indexes.is_empty() {
                continue;
            }
            let ctx = if id == seed {
                format!("`{}` is an executor entry point", f.qual)
            } else {
                format!(
                    "reachable from executor entry `{}` via {}",
                    self.item(seed).qual,
                    self.chain(&map, id)
                )
            };
            let fi = self.fns[id].0;
            for site in &f.panics {
                // An existing no-panic-in-lib justification covers the
                // reachability claim too: the written invariant says the
                // panic cannot fire, wherever it is called from.
                if self.files[fi]
                    .scan
                    .allowed(rules::NO_PANIC_IN_LIB, site.line)
                {
                    continue;
                }
                self.emit(
                    out,
                    fi,
                    rules::PANIC_REACHABLE_FROM_EXEC,
                    site.line,
                    site.col,
                    format!(
                        ".{}() can panic on an executor path ({ctx}); return a typed error \
                         or justify with fftlint:allow",
                        site.what
                    ),
                );
            }
            if let [first, ..] = &f.indexes[..] {
                self.emit(
                    out,
                    fi,
                    rules::PANIC_REACHABLE_FROM_EXEC,
                    first.line,
                    first.col,
                    format!(
                        "{} index expression(s) in `{}` can panic on an executor path \
                         ({ctx}); first flagged here — prove the bounds or justify with \
                         fftlint:allow",
                        f.indexes.len(),
                        f.qual
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        Analysis::build(&inputs).findings()
    }

    fn rule_spans(f: &[Finding], rule: &str) -> Vec<(String, u32, u32)> {
        f.iter()
            .filter(|x| x.rule == rule)
            .map(|x| (x.path.clone(), x.line, x.col))
            .collect()
    }

    #[test]
    fn hot_alloc_two_hop_chain() {
        let a = "\
// fftlint:hot
pub fn driver(n: usize) { mid(n); }
pub fn mid(n: usize) { leaf(n); }
pub fn leaf(n: usize) { let v = vec![0u8; n]; }
pub fn cold(n: usize) { let v = vec![0u8; n]; }
";
        let f = analyze(&[("crates/fftkern/src/k.rs", a)]);
        let spans = rule_spans(&f, rules::NO_ALLOC_IN_HOT_PATH);
        assert_eq!(spans, vec![("crates/fftkern/src/k.rs".to_string(), 4, 33)]);
        let msg = &f
            .iter()
            .find(|x| x.rule == rules::NO_ALLOC_IN_HOT_PATH)
            .map(|x| x.msg.clone())
            .unwrap_or_default();
        assert!(msg.contains("driver -> mid -> leaf"), "{msg}");
    }

    #[test]
    fn hot_alloc_exempts_pool_apis_and_non_hot_crates() {
        let a = "\
// fftlint:hot
pub fn driver(ctx: &mut C) { let b = ctx.take_buffer(4); helper(); }
pub fn helper() {}
";
        let f = analyze(&[("crates/distfft/src/k.rs", a)]);
        assert!(rule_spans(&f, rules::NO_ALLOC_IN_HOT_PATH).is_empty());
        // Same source in a non-hot crate: marker is inert.
        let b = "\
// fftlint:hot
pub fn driver(n: usize) { let v = vec![0u8; n]; }
";
        let f = analyze(&[("crates/fftprof/src/k.rs", b)]);
        assert!(rule_spans(&f, rules::NO_ALLOC_IN_HOT_PATH).is_empty());
    }

    #[test]
    fn lock_order_reversed_pair_across_fns() {
        let a = "\
pub fn ab(s: &S) { s.alpha.lock(); s.beta.lock(); }
pub fn ba(s: &S) { s.beta.lock(); s.alpha.lock(); }
pub fn single(s: &S) { s.alpha.lock(); }
";
        let f = analyze(&[("crates/fftkern/src/l.rs", a)]);
        let spans = rule_spans(&f, rules::LOCK_ORDER);
        assert_eq!(
            spans,
            vec![
                ("crates/fftkern/src/l.rs".to_string(), 1, 43),
                ("crates/fftkern/src/l.rs".to_string(), 2, 43),
            ]
        );
    }

    #[test]
    fn lock_order_interprocedural_hold_and_call() {
        let a = "\
pub fn outer(s: &S) { s.alpha.lock(); inner(s); }
pub fn inner(s: &S) { s.beta.lock(); }
pub fn reversed(s: &S) { s.beta.lock(); s.alpha.lock(); }
";
        let f = analyze(&[("crates/fftkern/src/l.rs", a)]);
        let spans = rule_spans(&f, rules::LOCK_ORDER);
        // outer's call site + reversed's second lock both flagged.
        assert_eq!(spans.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.rule == rules::LOCK_ORDER && x.msg.contains("via call to `inner`")));
    }

    #[test]
    fn panic_reachable_cross_crate_chain() {
        let exec = "\
pub fn execute(p: &P) { fftkern_entry(p); }
";
        let kern = "\
pub fn fftkern_entry(p: &P) { deep(p); }
pub fn deep(p: &P) { p.x.unwrap(); }
";
        let f = analyze(&[
            ("crates/distfft/src/exec.rs", exec),
            ("crates/fftkern/src/k.rs", kern),
        ]);
        let spans = rule_spans(&f, rules::PANIC_REACHABLE_FROM_EXEC);
        assert_eq!(spans, vec![("crates/fftkern/src/k.rs".to_string(), 2, 26)]);
    }

    #[test]
    fn env_rule_fires_everywhere_but_fftobs_env() {
        let src = "pub fn f() { let v = std::env::var(\"FFT_X\"); }";
        let f = analyze(&[("crates/bench/src/lib.rs", src)]);
        assert_eq!(
            rule_spans(&f, rules::ENV_READ_OUTSIDE_FFTOBS),
            vec![("crates/bench/src/lib.rs".to_string(), 1, 27)]
        );
        let f = analyze(&[("crates/obs/src/env.rs", src)]);
        assert!(rule_spans(&f, rules::ENV_READ_OUTSIDE_FFTOBS).is_empty());
    }

    #[test]
    fn allows_suppress_graph_rules() {
        let a = "\
// fftlint:hot
pub fn driver(n: usize) {
    let v = vec![0u8; n]; // fftlint:allow(no-alloc-in-hot-path): startup only
}
";
        let f = analyze(&[("crates/fftkern/src/k.rs", a)]);
        assert!(rule_spans(&f, rules::NO_ALLOC_IN_HOT_PATH).is_empty());
    }
}
