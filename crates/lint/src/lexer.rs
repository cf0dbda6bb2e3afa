//! A small, rule-oriented Rust lexer.
//!
//! The rules in this crate are line-anchored pattern checks over *token*
//! streams, not text: `HashMap` inside a string literal, `unsafe` in a doc
//! comment, or `panic!` in a `r##"raw string"##` must never fire a
//! diagnostic. This lexer therefore classifies exactly the constructs that
//! can hide identifier-lookalikes — line comments, nested block comments,
//! string/byte-string literals, raw strings with arbitrary `#` fences, char
//! literals vs lifetimes, raw identifiers — and throws everything it strips
//! into a per-line comment side-table that the `SAFETY:` and
//! `lint:allow(...)` checks read back.
//!
//! It is deliberately *not* a full Rust lexer: multi-character operators
//! come out as single punctuation tokens and numeric literals are lumped
//! into one kind, because no rule needs more. What it does get exactly
//! right is (a) what is code vs. trivia and (b) the 1-based line every
//! token sits on.

use std::collections::BTreeMap;

/// One significant (non-trivia) token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword. Raw identifiers keep their `r#` prefix so
    /// `r#unsafe` (an identifier) can never match the `unsafe` keyword.
    Ident(String),
    /// Single punctuation character (`.`, `!`, `(`, `::` arrives as two
    /// `:` tokens, ...).
    Punct(char),
    /// Numeric literal (integers, floats, any radix, any suffix).
    Num,
    /// String, byte-string, raw-string, or C-string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: usize,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Is this token exactly the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Is this token the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A lexed source file: tokens, per-line comment text, raw lines, and the
/// set of token indices that live inside `#[test]` / `#[cfg(test)]` items.
#[derive(Debug, Default)]
pub struct LexFile {
    /// Significant tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comment text per 1-based line. A line crossed by several comments
    /// (or a multi-line block comment) gets all of its comment text
    /// concatenated; rules only ever substring-match into this.
    pub comments: BTreeMap<usize, String>,
    /// Raw source lines (1-based access via `line(n)`).
    pub lines: Vec<String>,
    /// `in_test[i]` — token `i` is inside a `#[test]`/`#[cfg(test)]` item
    /// body (test module, test fn), so non-`unsafe` rules skip it.
    pub in_test: Vec<bool>,
}

impl LexFile {
    /// The raw text of 1-based line `n` (empty for out-of-range).
    pub fn line(&self, n: usize) -> &str {
        n.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map_or("", |s| s.as_str())
    }

    /// Does line `n` carry comment text containing `needle`?
    pub fn comment_contains(&self, n: usize, needle: &str) -> bool {
        self.comments.get(&n).is_some_and(|c| c.contains(needle))
    }

    /// Is the violation on `line` waived for `rule`?
    ///
    /// The allow marker is `lint:allow(rule)` (several rules may be listed,
    /// comma-separated) in a comment on the offending line, or on a
    /// directly preceding comment-only line — the latter so rustfmt-length
    /// lines can carry the justification above rather than trailing.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allow_marker_covers(rule, line)
            || (line >= 2
                && self.line(line - 1).trim_start().starts_with("//")
                && self.allow_marker_covers(rule, line - 1))
    }

    fn allow_marker_covers(&self, rule: &str, line: usize) -> bool {
        let Some(comment) = self.comments.get(&line) else {
            return false;
        };
        let mut rest = comment.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else {
                return false;
            };
            if rest[..close].split(',').any(|r| r.trim() == rule) {
                return true;
            }
            rest = &rest[close..];
        }
        false
    }
}

/// Lexes `src` into tokens + trivia tables. Never fails: unterminated
/// constructs consume to end-of-file, which is the forgiving behaviour a
/// lint walking generated or fixture code wants.
pub fn lex(src: &str) -> LexFile {
    let mut file = LexFile {
        lines: src
            .split('\n')
            .map(|l| l.trim_end_matches('\r').to_string())
            .collect(),
        ..LexFile::default()
    };
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;

    // Appends `text`'s comment content line-by-line starting at `start`.
    fn push_comment(file: &mut LexFile, start: usize, text: &str) {
        for (k, part) in text.split('\n').enumerate() {
            let entry = file.comments.entry(start + k).or_default();
            if !entry.is_empty() {
                entry.push(' ');
            }
            entry.push_str(part.trim_end_matches('\r'));
        }
    }

    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                push_comment(&mut file, line, &src[i..end]);
                i = end;
            }
            '/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comments, per the Rust grammar.
                let start_line = line;
                let begin = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                push_comment(&mut file, start_line, &src[begin..i]);
            }
            '"' => {
                let tok_line = line;
                i = skip_string(b, i, &mut line);
                file.tokens.push(Tok {
                    kind: TokKind::Str,
                    line: tok_line,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'` + ident-start + (no closing
                // quote right after the ident) → lifetime; everything else
                // is a char literal.
                let tok_line = line;
                let next = b.get(i + 1).copied();
                let is_lifetime = match next {
                    Some(n) if (n as char).is_alphabetic() || n == b'_' => {
                        let mut j = i + 1;
                        while j < b.len() && ((b[j] as char).is_alphanumeric() || b[j] == b'_') {
                            j += 1;
                        }
                        b.get(j) != Some(&b'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    i += 1;
                    while i < b.len() && ((b[i] as char).is_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    file.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        line: tok_line,
                    });
                } else {
                    i += 1;
                    if i < b.len() && b[i] == b'\\' {
                        i += 2; // escape + escaped char
                                // Longer escapes (\u{...}, \x4e) run to the quote.
                        while i < b.len() && b[i] != b'\'' {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                        i += 1;
                    } else {
                        // One (possibly multi-byte) char, then the quote.
                        i += src[i..].chars().next().map_or(1, char::len_utf8);
                        if i < b.len() && b[i] == b'\'' {
                            i += 1;
                        }
                    }
                    file.tokens.push(Tok {
                        kind: TokKind::Char,
                        line: tok_line,
                    });
                }
            }
            _ if c.is_alphabetic() || c == '_' => {
                let tok_line = line;
                let start = i;
                // Raw strings / byte strings / raw identifiers share the
                // ident-start alphabet, so disambiguate here.
                if let Some(skip) = raw_or_byte_literal(b, i, src, &mut line) {
                    let kind = if b[i] == b'b' && b.get(i + 1) == Some(&b'\'') {
                        TokKind::Char
                    } else {
                        TokKind::Str
                    };
                    i = skip;
                    file.tokens.push(Tok {
                        kind,
                        line: tok_line,
                    });
                    continue;
                }
                if c == 'r' && i + 1 < b.len() && b[i + 1] == b'#' {
                    let mut j = i + 2;
                    if j < b.len() && ((b[j] as char).is_alphabetic() || b[j] == b'_') {
                        // Raw identifier: keep the r# prefix so keyword
                        // rules never match it.
                        while j < b.len() && ((b[j] as char).is_alphanumeric() || b[j] == b'_') {
                            j += 1;
                        }
                        file.tokens.push(Tok {
                            kind: TokKind::Ident(src[i..j].to_string()),
                            line: tok_line,
                        });
                        i = j;
                        continue;
                    }
                }
                let mut j = i;
                while j < b.len() && ((b[j] as char).is_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                file.tokens.push(Tok {
                    kind: TokKind::Ident(src[start..j].to_string()),
                    line: tok_line,
                });
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let tok_line = line;
                i = skip_number(b, i);
                file.tokens.push(Tok {
                    kind: TokKind::Num,
                    line: tok_line,
                });
            }
            _ => {
                file.tokens.push(Tok {
                    kind: TokKind::Punct(c),
                    line,
                });
                i += src[i..].chars().next().map_or(1, char::len_utf8);
            }
        }
    }

    file.in_test = mark_test_regions(&file.tokens);
    file
}

/// Consumes a `"`-delimited string starting at `b[i] == '"'`, honouring
/// backslash escapes and counting newlines, including the one an
/// end-of-line `\` continuation escapes. Returns the index past the
/// closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If position `i` starts a raw string (`r"`, `r#"`), byte string (`b"`,
/// `br#"`), byte char (`b'`), or c-string (`c"`), consumes it and returns
/// the index just past it; otherwise `None`.
fn raw_or_byte_literal(b: &[u8], i: usize, src: &str, line: &mut usize) -> Option<usize> {
    let c = b[i];
    // b'x' byte literal.
    if c == b'b' && b.get(i + 1) == Some(&b'\'') {
        let mut j = i + 2;
        if b.get(j) == Some(&b'\\') {
            j += 2;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            return Some((j + 1).min(b.len()));
        }
        j += src
            .get(j..)
            .and_then(|s| s.chars().next())
            .map_or(1, char::len_utf8);
        if b.get(j) == Some(&b'\'') {
            j += 1;
        }
        return Some(j);
    }
    // Plain byte / c string: b"..." c"...".
    if (c == b'b' || c == b'c') && b.get(i + 1) == Some(&b'"') {
        return Some(skip_string(b, i + 1, line));
    }
    // Raw forms: r"...", r#*"..."#*, br#*"..."#*, cr#*"..."#*.
    let hashes_start = match (c, b.get(i + 1).copied()) {
        (b'r', Some(b'"' | b'#')) => i + 1,
        (b'b' | b'c', Some(b'r')) if matches!(b.get(i + 2), Some(b'"' | b'#')) => i + 2,
        _ => return None,
    };
    let mut j = hashes_start;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None; // r#ident — raw identifier, not a raw string
    }
    j += 1;
    // Scan for `"` followed by `hashes` `#`s.
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(j)
}

/// Consumes a numeric literal loosely (any radix, underscores, float
/// fraction/exponent, type suffix) without swallowing `..` ranges.
fn skip_number(b: &[u8], mut i: usize) -> usize {
    let radix_alpha = i + 1 < b.len()
        && b[i] == b'0'
        && matches!(b[i + 1], b'x' | b'X' | b'o' | b'O' | b'b' | b'B');
    if radix_alpha {
        i += 2;
    }
    while i < b.len() {
        let c = b[i];
        if (c as char).is_alphanumeric() || c == b'_' {
            // `1e-3` / `1E+9`: sign directly after an exponent marker.
            if (c == b'e' || c == b'E')
                && !radix_alpha
                && matches!(b.get(i + 1), Some(b'+') | Some(b'-'))
                && b.get(i + 2).is_some_and(|d| d.is_ascii_digit())
            {
                i += 2;
            }
            i += 1;
        } else if c == b'.'
            && b.get(i + 1) != Some(&b'.')
            && b.get(i + 1).is_none_or(|&n| n.is_ascii_digit())
        {
            // Fraction dot — but `1..x` is a range and `1.max(2)` a method
            // call, so only a digit (or EOF: `1.`) may follow.
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Marks every token inside the body of an item annotated `#[test]` or
/// `#[cfg(test)]` (including `#[cfg(all(test, ...))]` — any attribute whose
/// token stream contains the bare identifier `test`).
fn mark_test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Consume the attribute `#[ ... ]` (bracket-balanced).
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut has_test = false;
        while j < tokens.len() {
            match tokens[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokKind::Ident(ref s) if s == "test" => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Find the annotated item's body: the first `{` before a
        // top-level `;` (skipping any further attributes on the way).
        let mut k = j;
        let mut open = None;
        while k < tokens.len() {
            match tokens[k].kind {
                TokKind::Punct('{') => {
                    open = Some(k);
                    break;
                }
                TokKind::Punct(';') => break,
                TokKind::Punct('#') if tokens.get(k + 1).is_some_and(|t| t.is_punct('[')) => {
                    let mut d = 0usize;
                    k += 1;
                    while k < tokens.len() {
                        match tokens[k].kind {
                            TokKind::Punct('[') => d += 1,
                            TokKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        // Match the body's braces and mark the whole span (attribute
        // included — its tokens are not interesting to any rule anyway).
        let mut d = 0usize;
        let mut e = open;
        while e < tokens.len() {
            match tokens[e].kind {
                TokKind::Punct('{') => d += 1,
                TokKind::Punct('}') => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            e += 1;
        }
        let e = e.min(tokens.len() - 1);
        for flag in &mut in_test[i..=e] {
            *flag = true;
        }
        i = e + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* unsafe in /* a nested */ block comment */
            let a = "HashMap::new()";
            let b = r#"unsafe { panic!() }"#;
            let c = b"HashSet";
            let d = 'u';
            real_ident();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids,
            vec!["let", "a", "let", "b", "let", "c", "let", "d", "real_ident"]
        );
    }

    #[test]
    fn comments_are_recorded_per_line() {
        let f = lex("let x = 1; // SAFETY: fine\n// next line\n");
        assert!(f.comment_contains(1, "SAFETY:"));
        assert!(f.comment_contains(2, "next line"));
        assert!(!f.comment_contains(1, "next"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = f.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn raw_identifier_does_not_leak_keyword() {
        let ids = idents("let r#unsafe = 1;");
        assert_eq!(ids, vec!["let", "r#unsafe"]);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { inner(); }\n}\nfn after() {}\n";
        let f = lex(src);
        let flag_of = |name: &str| {
            f.tokens
                .iter()
                .zip(&f.in_test)
                .find(|(t, _)| t.is_ident(name))
                .map(|(_, &b)| b)
        };
        assert_eq!(flag_of("lib"), Some(false));
        assert_eq!(flag_of("inner"), Some(true));
        assert_eq!(flag_of("after"), Some(false));
    }

    #[test]
    fn allow_markers_match_rule_lists() {
        let f = lex("do_it(); // lint:allow(det-map, panic) lookup-only\nnext();\n");
        assert!(f.allowed("det-map", 1));
        assert!(f.allowed("panic", 1));
        assert!(!f.allowed("det-clock", 1));
        assert!(
            !f.allowed("det-map", 2),
            "marker does not cover the next line"
        );
    }

    #[test]
    fn string_line_continuations_advance_the_line() {
        let f = lex("let s = \"a \\\n   b\";\nnext();\n");
        let next = f.tokens.iter().find(|t| t.ident() == Some("next"));
        assert_eq!(next.map(|t| t.line), Some(3));
    }

    #[test]
    fn allow_marker_on_preceding_comment_line_covers() {
        let f = lex("// lint:allow(panic): justified\nfoo.unwrap();\n");
        assert!(f.allowed("panic", 2));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let f = lex("for i in 0..10 { x(1.0e-3, 2.0_f32, 7.max(3)); }");
        let nums = f.tokens.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 6, "0, 10, 1.0e-3, 2.0_f32, 7, 3");
        assert!(f.tokens.iter().any(|t| t.is_ident("max")));
    }
}
