//! Hand-written Rust surface lexer.
//!
//! The linter does not need a real parser: every site the rule consumes
//! is a short token sequence (`. unwrap (`, `x [`, `name (`). What it
//! *does* need is for those sequences never to fire inside string
//! literals, comments, char literals or doc text — which is exactly what a
//! lexer provides and a regex sweep does not.
//!
//! The lexer also carries the two pieces of non-token information the rule
//! consumes: `// fftlint:allow(<rule>, …)` escape directives (recognized in
//! both line and block comments) and a per-token "inside a `#[cfg(test)]`
//! module" mask computed by brace matching.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`.`, `:`, `<`, `{`, …).
    Punct(char),
    /// Literal: number (text kept), string, char. String/char literal
    /// text is dropped — the rule must never match it.
    Lit(String),
}

/// A token plus its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token payload.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// An `fftlint:allow(...)` escape parsed out of a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line the directive's comment starts on.
    pub line: u32,
    /// Rule id being allowed (one `Allow` per id for multi-id directives).
    pub rule: String,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Token stream, in source order.
    pub tokens: Vec<Token>,
    /// Every allow directive found in comments.
    pub allows: Vec<Allow>,
}

impl Scanned {
    /// True when `rule` is allowed at `line`: a directive on the same line
    /// (trailing comment) or on the line directly above (annotation
    /// comment) suppresses the finding.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// Marks, for every token, whether it sits inside a `#[cfg(test)] mod`
    /// body. Returns a mask parallel to `self.tokens`.
    pub fn test_mask(&self) -> Vec<bool> {
        let t = &self.tokens;
        let mut mask = vec![false; t.len()];
        let mut i = 0;
        while i < t.len() {
            if let Some(body_open) = self.cfg_test_mod_at(i) {
                // Mark from the attribute through the matching close brace.
                let mut depth = 0usize;
                let mut j = body_open;
                while j < t.len() {
                    match t[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end = j.min(t.len().saturating_sub(1));
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
            } else {
                i += 1;
            }
        }
        mask
    }

    /// If a `#[cfg(test)]`-attributed `mod` starts at token `i`, returns
    /// the index of the module body's opening `{`.
    fn cfg_test_mod_at(&self, i: usize) -> Option<usize> {
        let t = &self.tokens;
        let ident =
            |k: usize, s: &str| matches!(&t.get(k)?.tok, Tok::Ident(x) if x == s).then_some(());
        let punct =
            |k: usize, c: char| matches!(&t.get(k)?.tok, Tok::Punct(x) if *x == c).then_some(());
        punct(i, '#')?;
        punct(i + 1, '[')?;
        ident(i + 2, "cfg")?;
        punct(i + 3, '(')?;
        // Accept `test` anywhere inside the cfg predicate (covers
        // `cfg(test)` and `cfg(all(test, …))`).
        let mut k = i + 4;
        let mut saw_test = false;
        let mut depth = 1usize;
        while k < t.len() && depth > 0 {
            match &t[k].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Ident(x) if x == "test" => saw_test = true,
                _ => {}
            }
            k += 1;
        }
        if !saw_test {
            return None;
        }
        punct(k, ']')?;
        k += 1;
        // Skip further attributes between the cfg and the item.
        while matches!(t.get(k).map(|x| &x.tok), Some(Tok::Punct('#'))) {
            punct(k + 1, '[')?;
            let mut d = 1usize;
            let mut m = k + 2;
            while m < t.len() && d > 0 {
                match t[m].tok {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                m += 1;
            }
            k = m;
        }
        // `pub`/`pub(crate)` visibility, then `mod name {`.
        if matches!(t.get(k).map(|x| &x.tok), Some(Tok::Ident(x)) if x == "pub") {
            k += 1;
            if matches!(t.get(k).map(|x| &x.tok), Some(Tok::Punct('('))) {
                while k < t.len() && !matches!(t[k].tok, Tok::Punct(')')) {
                    k += 1;
                }
                k += 1;
            }
        }
        ident(k, "mod")?;
        k += 2; // mod + name
        matches!(t.get(k).map(|x| &x.tok), Some(Tok::Punct('{'))).then_some(k)
    }
}

/// Lexes `src` into tokens plus allow directives.
pub fn scan(src: &str) -> Scanned {
    let b: Vec<char> = src.chars().collect();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        let (tline, tcol) = (line, col);
        match c {
            // Line comment (covers `///` and `//!` doc comments too).
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    bump!();
                }
                let text: String = b[start..i].iter().collect();
                parse_allow(&text, tline, &mut out.allows);
            }
            // Block comment, nested.
            '/' if b.get(i + 1) == Some(&'*') => {
                let start = i;
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        bump!();
                        bump!();
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        bump!();
                        bump!();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        bump!();
                    }
                }
                let text: String = b[start..i.min(b.len())].iter().collect();
                parse_allow(&text, tline, &mut out.allows);
            }
            // String literals: plain, byte, raw (any hash count).
            '"' => {
                bump!();
                while i < b.len() {
                    if b[i] == '\\' {
                        bump!();
                        if i < b.len() {
                            bump!();
                        }
                    } else if b[i] == '"' {
                        bump!();
                        break;
                    } else {
                        bump!();
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Lit(String::new()),
                    line: tline,
                    col: tcol,
                });
            }
            'r' | 'b' if raw_string_start(&b, i) => {
                // Skip prefix (r, br, b) up to the quote, counting hashes.
                while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
                    bump!();
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == '#' {
                    hashes += 1;
                    bump!();
                }
                if i < b.len() && b[i] == '"' {
                    bump!();
                    'outer: while i < b.len() {
                        if b[i] == '"' {
                            bump!();
                            let mut h = 0usize;
                            while h < hashes && i < b.len() && b[i] == '#' {
                                h += 1;
                                bump!();
                            }
                            if h == hashes {
                                break 'outer;
                            }
                        } else {
                            bump!();
                        }
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Lit(String::new()),
                    line: tline,
                    col: tcol,
                });
            }
            // Char literal vs lifetime.
            '\'' => {
                if char_literal_start(&b, i) {
                    bump!(); // opening quote
                    if i < b.len() && b[i] == '\\' {
                        bump!();
                        if i < b.len() {
                            bump!();
                        }
                        // Escapes like \u{1F600} span to the closing quote.
                        while i < b.len() && b[i] != '\'' {
                            bump!();
                        }
                    } else if i < b.len() {
                        bump!();
                    }
                    if i < b.len() && b[i] == '\'' {
                        bump!();
                    }
                    out.tokens.push(Token {
                        tok: Tok::Lit(String::new()),
                        line: tline,
                        col: tcol,
                    });
                } else {
                    // Lifetime: skip the quote; the name lexes as an ident.
                    bump!();
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    bump!();
                }
                // Fractional part — only when followed by a digit, so
                // `1.max(2)` stays an int plus a method call.
                if i < b.len() && b[i] == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    bump!();
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                        bump!();
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Lit(b[start..i].iter().collect()),
                    line: tline,
                    col: tcol,
                });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    bump!();
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(b[start..i].iter().collect()),
                    line: tline,
                    col: tcol,
                });
            }
            _ if c.is_whitespace() => {
                bump!();
            }
            _ => {
                bump!();
                out.tokens.push(Token {
                    tok: Tok::Punct(c),
                    line: tline,
                    col: tcol,
                });
            }
        }
    }
    out
}

/// True when position `i` starts a raw/byte string (`r"`, `r#"`, `b"`,
/// `br#"`, …) rather than an identifier beginning with `r`/`b`.
fn raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (b, r or br/rb).
    let mut letters = 0;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && letters < 2 {
        j += 1;
        letters += 1;
    }
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"' && {
        // Reject identifiers like `rb_tree` — the prefix must be followed
        // directly by the (hash-prefixed) quote, which the scan above
        // guarantees; additionally the char before `i` must not be part of
        // a larger identifier (handled by the caller's tokenizer order).
        true
    }
}

/// True when the `'` at `i` opens a char literal (vs a lifetime).
fn char_literal_start(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => true,
        Some(c) if *c != '\'' => {
            // 'x' is a char literal iff a closing quote follows the single
            // char; otherwise it's a lifetime like 'static or 'w.
            b.get(i + 2) == Some(&'\'')
        }
        _ => false,
    }
}

/// Extracts `fftlint:allow(id, id2, …)` directives from comment text.
fn parse_allow(comment: &str, line: u32, out: &mut Vec<Allow>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("fftlint:allow(") {
        let after = &rest[pos + "fftlint:allow(".len()..];
        let Some(close) = after.find(')') else { return };
        for id in after[..close].split(',') {
            let id = id.trim();
            if !id.is_empty() {
                out.push(Allow {
                    line,
                    rule: id.to_string(),
                });
            }
        }
        rest = &after[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(s: &str) -> Vec<String> {
        scan(s)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block /* nested */ comment */
            let s = "HashMap::new()";
            let r = r#"SystemTime"#;
            let c = 'u';
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "r", "let", "c"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"a".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn float_literals_keep_their_text() {
        let s = scan("let x = 0.5 + 1f64 + 2;");
        let lits: Vec<String> = s
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Lit(l) if !l.is_empty() => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec!["0.5", "1f64", "2"]);
    }

    #[test]
    fn allow_directives_parse_with_positions() {
        let s = scan("let m = x; // fftlint:allow(panic-reachable-from-exec, other-rule): why\n");
        assert!(s.allowed("panic-reachable-from-exec", 1));
        assert!(s.allowed("other-rule", 1));
        assert!(s.allowed("panic-reachable-from-exec", 2)); // next line covered
        assert!(!s.allowed("panic-reachable-from-exec", 3));
        assert!(!s.allowed("unlisted-rule", 1));
    }

    #[test]
    fn cfg_test_mask_covers_test_module_only() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let s = scan(src);
        let mask = s.test_mask();
        for (t, m) in s.tokens.iter().zip(&mask) {
            if let Tok::Ident(id) = &t.tok {
                match id.as_str() {
                    "lib" | "tail" => assert!(!m, "{id} wrongly masked"),
                    "t" | "y" => assert!(m, "{id} not masked"),
                    _ => {}
                }
            }
        }
    }
}
