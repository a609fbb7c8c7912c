//! Pass 2 of the workspace analyzer: the call graph and the
//! interprocedural panic rule.
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
//! The rule (its id is registered in [`crate::rules`]):
//! `panic-reachable-from-exec` — `.unwrap()`/`.expect()` and indexing
//! sites in any fn transitively reachable from the executor entry file
//! (`crates/distfft/src/exec.rs`). Index sites are summarized as one
//! finding per fn at the first site to keep volume reviewable.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use crate::lex;
use crate::rules::{self, FileKind, Finding};
use crate::tree::{self, FileTree, FnItem};

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

    /// BFS over resolved edges from `seeds` through graph-eligible fns.
    /// Seeds are visited in the given order; edges in token order —
    /// deterministic shortest chains.
    fn reach(&self, seeds: &[usize]) -> ReachMap {
        let mut map: ReachMap = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &s in seeds {
            if let Entry::Vacant(e) = map.entry(s) {
                e.insert((None, s));
                queue.push_back(s);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let seed = match map.get(&cur) {
                Some(&(_, s)) => s,
                None => continue,
            };
            for targets in &self.resolved[cur] {
                for &tgt in targets {
                    if self.eligible(tgt) && !map.contains_key(&tgt) {
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

    /// Runs the rule; findings sorted by (path, line, col, rule).
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.panic_reachable_from_exec(&mut out);
        out.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule, &a.msg).cmp(&(&b.path, b.line, b.col, b.rule, &b.msg))
        });
        out
    }

    fn panic_reachable_from_exec(&self, out: &mut Vec<Finding>) {
        let seeds: Vec<usize> = (0..self.fns.len())
            .filter(|&id| self.eligible(id) && self.file_of(id).rel == EXEC_ENTRY_FILE)
            .collect();
        let map = self.reach(&seeds);
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
    fn allows_suppress_graph_rules() {
        // An allow two hops below the entry silences that site only.
        let exec = "pub fn execute(p: &P) { mid(p); }";
        let kern = "\
pub fn mid(p: &P) { leaf(p); p.y.unwrap(); }
pub fn leaf(p: &P) {
    p.x.unwrap(); // fftlint:allow(panic-reachable-from-exec): invariant
}
";
        let f = analyze(&[
            ("crates/distfft/src/exec.rs", exec),
            ("crates/fftkern/src/k.rs", kern),
        ]);
        let spans = rule_spans(&f, rules::PANIC_REACHABLE_FROM_EXEC);
        assert_eq!(spans, vec![("crates/fftkern/src/k.rs".to_string(), 1, 34)]);
    }
}
