//! Pass 1 of the workspace analyzer: the per-file item tree.
//!
//! [`build`] turns one scanned file into a [`FileTree`]: every `fn` item
//! with its body token span, enclosing `impl` type, test marker, and the
//! sites the panic rule in [`crate::graph`] consumes — call sites (with
//! qualifier for resolution), `.unwrap()`/`.expect()` sites and
//! possibly-panicking index expressions.
//!
//! Like the lexer this is a *surface* parse: brace matching plus short
//! token patterns, no grammar. The known approximations are listed on each
//! extractor; they are all chosen to over-report (a human-reviewed allow or
//! baseline entry absorbs a false positive) rather than silently miss.

use crate::lex::{Scanned, Tok, Token};

/// Rust keywords that never name a call target or an indexed value.
const KEYWORDS: [&str; 36] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// True when `s` is a Rust keyword (see [`KEYWORDS`]).
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// A flagged token position inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was matched (`"unwrap"`, `"expect"` or `"index"`).
    pub what: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Path qualifier directly before `::name(`, when present
    /// (`Vec` in `Vec::new()`, `simd` in `simd::run_stage()`).
    pub qual: Option<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Display/resolution qualifier: `Type::name` inside an `impl Type`
    /// block, otherwise just `name`.
    pub qual: String,
    /// Enclosing `impl` self-type, when any (resolves `Self::` calls).
    pub impl_type: Option<String>,
    /// Token index of the `fn` keyword.
    pub decl_tok: usize,
    /// Token indices of the body `{` and its matching `}`.
    pub body: (usize, usize),
    /// Test code: inside a `#[cfg(test)]` module or under a `#[test]` /
    /// `#[cfg(test)]` attribute. Test fns never join the call graph.
    pub test: bool,
    /// Call sites, in token order.
    pub calls: Vec<Call>,
    /// `.unwrap()` / `.expect(` sites.
    pub panics: Vec<Site>,
    /// Possibly-panicking index expressions (`x[i]`, including slicing).
    pub indexes: Vec<Site>,
}

/// The item tree of one file.
#[derive(Debug, Default)]
pub struct FileTree {
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnItem>,
}

/// Builds the item tree for one scanned file.
pub fn build(scan: &Scanned) -> FileTree {
    let t = &scan.tokens;
    let mask = scan.test_mask();
    let close = match_braces(t);
    let impls = impl_spans(t, &close);
    let mut fns = discover_fns(t, &mask, &impls, &close);
    let owner = owner_map(t.len(), &fns);
    collect_sites(t, &owner, &mut fns);
    FileTree { fns }
}

fn ident(t: &[Token], i: usize) -> Option<&str> {
    match &t.get(i)?.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct(t: &[Token], i: usize, c: char) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c)
}

/// For every `{` token index, the index of its matching `}` (end of stream
/// when unbalanced).
fn match_braces(t: &[Token]) -> Vec<usize> {
    let end = t.len().saturating_sub(1);
    let mut close = vec![end; t.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        match tok.tok {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                if let Some(open) = stack.pop() {
                    close[open] = i;
                }
            }
            _ => {}
        }
    }
    close
}

/// Skips a `<...>` generic group starting at the `<` at `j`; returns the
/// index after the matching `>`. `->` arrows inside (Fn-trait sugar) do
/// not count as closers.
fn skip_angles(t: &[Token], j: usize) -> usize {
    let mut depth = 1usize;
    let mut k = j + 1;
    while k < t.len() && depth > 0 {
        match t[k].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') if !punct(t, k - 1, '-') && !punct(t, k - 1, '=') => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    k
}

/// Skips a `(...)` group starting at the `(` at `j`; returns the index
/// after the matching `)`.
fn skip_parens(t: &[Token], j: usize) -> usize {
    let mut depth = 1usize;
    let mut k = j + 1;
    while k < t.len() && depth > 0 {
        match t[k].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    k
}

/// Collects `impl` block spans as `(self_type, body_open, body_close)`.
///
/// Only *item-position* `impl` counts: the previous token must be an item
/// boundary (`{`, `}`, `;`, an attribute's `]`, `unsafe`, or start of
/// file), which excludes `-> impl Trait` and `arg: impl Trait` uses.
fn impl_spans(t: &[Token], close: &[usize]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if ident(t, i) != Some("impl") {
            i += 1;
            continue;
        }
        let item_position = i == 0
            || matches!(
                t[i - 1].tok,
                Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(';') | Tok::Punct(']')
            )
            || ident(t, i - 1) == Some("unsafe");
        if !item_position {
            i += 1;
            continue;
        }
        // Parse the header: generics, `Trait for`, then the self type; the
        // last path segment before the body brace names the type.
        let mut j = i + 1;
        let mut name: Option<String> = None;
        while j < t.len() {
            match &t[j].tok {
                Tok::Punct('<') => j = skip_angles(t, j),
                Tok::Punct('(') => j = skip_parens(t, j),
                Tok::Punct('{') => break,
                Tok::Ident(x) if x == "for" => {
                    name = None; // what follows `for` is the real self type
                    j += 1;
                }
                Tok::Ident(x) if x == "where" => {
                    while j < t.len() && !matches!(t[j].tok, Tok::Punct('{')) {
                        j = match t[j].tok {
                            Tok::Punct('<') => skip_angles(t, j),
                            Tok::Punct('(') => skip_parens(t, j),
                            _ => j + 1,
                        };
                    }
                    break;
                }
                Tok::Ident(x) if !is_keyword(x) => {
                    name = Some(x.clone());
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if j < t.len() && matches!(t[j].tok, Tok::Punct('{')) {
            if let Some(n) = name {
                out.push((n, j, close[j]));
            }
        }
        i = j + 1;
    }
    out
}

/// Finds every `fn` item with a body and its enclosing impl type.
fn discover_fns(
    t: &[Token],
    mask: &[bool],
    impls: &[(String, usize, usize)],
    close: &[usize],
) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < t.len() {
        // `#[test]` or `#[cfg(.. test ..)]` directly on an item marks the
        // next fn as test code even outside a `#[cfg(test)]` module.
        if punct(t, i, '#') && punct(t, i + 1, '[') {
            match ident(t, i + 2) {
                Some("test") if punct(t, i + 3, ']') => pending_test = true,
                Some("cfg") if punct(t, i + 3, '(') => {
                    let end = skip_parens(t, i + 3);
                    if t[i + 4..end.min(t.len())]
                        .iter()
                        .any(|x| matches!(&x.tok, Tok::Ident(s) if s == "test"))
                    {
                        pending_test = true;
                    }
                }
                _ => {}
            }
            i += 2;
            continue;
        }
        // A statement/item boundary clears a pending `#[test]` that did
        // not land on a fn (e.g. `#[cfg(test)] use …;`).
        if punct(t, i, ';') {
            pending_test = false;
        }
        if ident(t, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident(t, i + 1) else {
            i += 1; // `fn(..)` pointer type, not an item
            continue;
        };
        // Scan the signature for the body `{` (or `;` for a bodyless
        // trait-method declaration) at zero paren/bracket depth.
        let mut pdepth = 0i32;
        let mut bdepth = 0i32;
        let mut k = i + 2;
        let mut body_open = None;
        while k < t.len() {
            match t[k].tok {
                Tok::Punct('(') => pdepth += 1,
                Tok::Punct(')') => pdepth -= 1,
                Tok::Punct('[') => bdepth += 1,
                Tok::Punct(']') => bdepth -= 1,
                Tok::Punct('{') if pdepth == 0 && bdepth == 0 => {
                    body_open = Some(k);
                    break;
                }
                Tok::Punct(';') if pdepth == 0 && bdepth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body_open else {
            pending_test = false;
            i = k + 1;
            continue;
        };
        let impl_type = impls
            .iter()
            .filter(|(_, o, c)| *o < i && i < *c)
            .min_by_key(|(_, o, c)| c - o)
            .map(|(n, _, _)| n.clone());
        let qual = match &impl_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.to_string(),
        };
        out.push(FnItem {
            name: name.to_string(),
            qual,
            impl_type,
            decl_tok: i,
            body: (open, close[open]),
            test: pending_test || mask[i],
            calls: Vec::new(),
            panics: Vec::new(),
            indexes: Vec::new(),
        });
        pending_test = false;
        i = open + 1; // descend: nested fns are separate items
    }
    out
}

/// Maps each token index to the innermost enclosing fn item, if any.
fn owner_map(len: usize, fns: &[FnItem]) -> Vec<usize> {
    let mut owner = vec![usize::MAX; len];
    for (fid, f) in fns.iter().enumerate() {
        // Items are discovered outside-in, so nested fns overwrite their
        // parent's claim over the inner range.
        for o in owner
            .iter_mut()
            .take(f.body.1.saturating_add(1).min(len))
            .skip(f.decl_tok)
        {
            *o = fid;
        }
    }
    owner
}

/// One linear pass extracting call/panic/index sites and attributing them
/// to the owning fn.
fn collect_sites(t: &[Token], owner: &[usize], fns: &mut [FnItem]) {
    for i in 0..t.len() {
        let own = owner.get(i).copied().unwrap_or(usize::MAX);
        let Some(f) = fns.get_mut(own) else { continue };
        match &t[i].tok {
            Tok::Punct('.') => {
                if let Some(m @ ("unwrap" | "expect")) = ident(t, i + 1) {
                    if punct(t, i + 2, '(') {
                        f.panics.push(Site {
                            what: if m == "unwrap" { "unwrap" } else { "expect" },
                            line: t[i + 1].line,
                            col: t[i + 1].col,
                        });
                    }
                }
            }
            Tok::Punct('[') if i > 0 => {
                let indexing = match &t[i - 1].tok {
                    Tok::Ident(s) => !is_keyword(s),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if indexing {
                    f.indexes.push(Site {
                        what: "index",
                        line: t[i].line,
                        col: t[i].col,
                    });
                }
            }
            Tok::Ident(name) if !is_keyword(name) => {
                // Call site: `name(` or `name::<…>(`, free or method.
                if ident(t, i.wrapping_sub(1)) == Some("fn") {
                    continue; // the declaration itself
                }
                let mut k = i + 1;
                if punct(t, k, ':') && punct(t, k + 1, ':') && punct(t, k + 2, '<') {
                    k = skip_angles(t, k + 2);
                }
                if !punct(t, k, '(') {
                    continue;
                }
                let method = i > 0 && punct(t, i - 1, '.');
                let qual = if !method && i >= 3 && punct(t, i - 1, ':') && punct(t, i - 2, ':') {
                    ident(t, i - 3).map(str::to_string)
                } else {
                    None
                };
                f.calls.push(Call {
                    name: name.clone(),
                    qual,
                    method,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scan;

    fn tree_of(src: &str) -> FileTree {
        build(&scan(src))
    }

    #[test]
    fn fn_items_capture_impl_qualifiers() {
        let src = "\
impl Plan { pub fn run(&self) { helper(); } }
impl Display for Plan { fn fmt(&self) {} }
fn helper() {}
fn sig() -> impl Iterator<Item = u8> { std::iter::empty() }
";
        let t = tree_of(src);
        let quals: Vec<&str> = t.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Plan::run", "Plan::fmt", "helper", "sig"]);
        assert_eq!(t.fns[0].calls.len(), 1);
        assert_eq!(t.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn sites_are_attributed_to_the_owning_fn() {
        let src = "\
fn outer() {
    let b = vec![0u8; 4];
    let x = b[0];
    let u = b.first().unwrap();
    fn inner() { let w = v.expect(\"set\"); }
}
";
        let t = tree_of(src);
        assert_eq!(t.fns.len(), 2);
        let outer = &t.fns[0];
        let inner = &t.fns[1];
        let what = |f: &FnItem| f.panics.iter().map(|s| s.what).collect::<Vec<_>>();
        assert_eq!(what(outer), vec!["unwrap"]);
        assert_eq!(outer.indexes.len(), 1);
        assert_eq!(what(inner), vec!["expect"]);
        assert!(inner.indexes.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "\
#[test]
fn unit() { x.unwrap(); }
#[cfg(test)]
mod tests { fn helper() {} }
fn real() {}
";
        let t = tree_of(src);
        let marks: Vec<(&str, bool)> = t.fns.iter().map(|f| (f.name.as_str(), f.test)).collect();
        assert_eq!(
            marks,
            vec![("unit", true), ("helper", true), ("real", false)]
        );
    }

    #[test]
    fn qualified_and_method_calls_carry_resolution_hints() {
        let src = "fn f(p: &P) { simd::run_stage(1); p.execute(2); plain(); Vec::new(); }";
        let t = tree_of(src);
        let calls: Vec<(&str, Option<&str>, bool)> = t.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_deref(), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("run_stage", Some("simd"), false),
                ("execute", None, true),
                ("plain", None, false),
                ("new", Some("Vec"), false),
            ]
        );
    }
}
