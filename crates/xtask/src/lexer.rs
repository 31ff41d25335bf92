//! A minimal token-level lexer for Rust source, sufficient for the VAQ
//! lint rules. No dependency on `syn` (the workspace is offline): the
//! lexer strips comments, strings, and char literals, splits the rest into
//! identifier/number/punctuation tokens with line numbers, and marks
//! `#[cfg(test)]` regions by brace matching so rules can exempt test code.

/// One surviving token: an identifier, a number, or a single punctuation
/// character.
#[derive(Debug, Clone)]
pub struct Token {
    pub text: String,
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (set by [`lex`]'s post-pass).
    pub is_test: bool,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// Last line of each comment run carrying a `SAFETY:` marker followed
    /// by non-trivial justification text (an empty `// SAFETY:` records
    /// nothing — rule VAQ005 requires an actual argument).
    pub safety_lines: Vec<u32>,
    /// Same for `ORDERING:` justification comments (rule VAQ009).
    pub ordering_lines: Vec<u32>,
    /// Last line of each comment run naming a CPU feature tier (`ssse3`,
    /// `avx2`, …) — rule VAQ011 requires one next to every `unsafe` in
    /// kernel files, so the justification states which runtime-verified
    /// target feature the block relies on.
    pub feature_lines: Vec<u32>,
}

/// CPU-feature keywords a kernel `unsafe` justification must name
/// (VAQ011). Case-insensitive; `sse2` covers the baseline-guaranteed
/// loads/stores and prefetch, `sse4.2` and `crc` the CRC-32C
/// instructions of x86-64 and aarch64.
const FEATURE_KEYWORDS: &[&str] = &["ssse3", "sse2", "avx2", "neon", "sse4.2", "crc"];

/// A contiguous run of comments: first line, last line, accumulated text,
/// and the token count when the run last grew (a token emitted between
/// two comments splits the run, so a trailing comment after code never
/// merges with the next line's comment).
struct CommentRun {
    last: u32,
    text: String,
    ntokens: usize,
}

/// Extends the open run when `start` continues it, else opens a new one.
/// Runs let a `SAFETY:` / `ORDERING:` marker's justification span several
/// `//` lines and still be judged as one comment.
fn push_comment(runs: &mut Vec<CommentRun>, start: u32, end: u32, text: &str, ntokens: usize) {
    if let Some(run) = runs.last_mut() {
        if run.last + 1 >= start && run.ntokens == ntokens {
            run.last = end;
            run.text.push('\n');
            run.text.push_str(text);
            return;
        }
    }
    runs.push(CommentRun { last: end, text: text.to_string(), ntokens });
}

/// The line a justification run vouches from: its last line, or `None`
/// when fewer than three alphanumeric characters follow the marker — a
/// bare `// SAFETY:` or `// ORDERING: .` justifies nothing.
fn marker_line(run: &CommentRun, marker: &str) -> Option<u32> {
    let rest = &run.text[run.text.find(marker)? + marker.len()..];
    let alnum = rest.chars().filter(char::is_ascii_alphanumeric).count();
    (alnum >= 3).then_some(run.last)
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Tokenizes `src`, then marks `#[cfg(test)]` regions.
pub fn lex(src: &str) -> LexedFile {
    let b = src.as_bytes();
    let mut out = LexedFile::default();
    let mut runs: Vec<CommentRun> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                push_comment(&mut runs, line, line, &src[start..i], out.tokens.len());
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push_comment(
                    &mut runs,
                    start_line,
                    line,
                    &src[start..i.min(b.len())],
                    out.tokens.len(),
                );
            }
            b'"' => {
                // Plain string literals survive as single tokens (text
                // includes the quotes, so they can never collide with an
                // identifier) — VAQ006 inspects fault-site name literals.
                let start = i;
                let start_line = line;
                i = skip_string(b, i, &mut line);
                out.tokens.push(Token {
                    text: src[start..i.min(b.len())].to_string(),
                    line: start_line,
                    is_test: false,
                });
            }
            b'r' | b'b' if raw_or_byte_string_start(b, i).is_some() => {
                let (quote, hashes) = raw_or_byte_string_start(b, i).expect("checked");
                i = if hashes == usize::MAX {
                    // Plain byte string b"…".
                    skip_string(b, quote, &mut line)
                } else {
                    skip_raw_string(b, quote, hashes, &mut line)
                };
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => i = skip_char_literal(b, i + 1, &mut line),
            b'\'' => {
                // Lifetime or char literal.
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = match next {
                    Some(n) if is_ident_start(n) => after != Some(b'\''),
                    _ => false,
                };
                if is_lifetime {
                    i += 2;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                } else {
                    i = skip_char_literal(b, i, &mut line);
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token { text: src[start..i].to_string(), line, is_test: false });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || (b[i] == b'.'
                            && b.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                            && !src[start..i].contains('.')))
                {
                    i += 1;
                }
                out.tokens.push(Token { text: src[start..i].to_string(), line, is_test: false });
            }
            _ => {
                // Punctuation, one char at a time (multi-char operators are
                // matched as token sequences by the rules). Non-ASCII bytes
                // outside strings are skipped.
                if c.is_ascii() {
                    out.tokens.push(Token { text: (c as char).to_string(), line, is_test: false });
                }
                i += 1;
            }
        }
    }

    for run in &runs {
        if let Some(l) = marker_line(run, "SAFETY:") {
            out.safety_lines.push(l);
        }
        if let Some(l) = marker_line(run, "ORDERING:") {
            out.ordering_lines.push(l);
        }
        let lower = run.text.to_ascii_lowercase();
        if FEATURE_KEYWORDS.iter().any(|k| lower.contains(k)) {
            out.feature_lines.push(run.last);
        }
    }
    mark_test_regions(&mut out.tokens);
    out
}

/// Skips a `"…"` string starting at `i` (the opening quote); returns the
/// index just past the closing quote.
fn skip_string(b: &[u8], i: usize, line: &mut u32) -> usize {
    let mut i = i + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
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

/// Detects `r"…"`, `r#"…"#`, `br…`, and `b"…"` starts at `i`. Returns the
/// index of the opening quote plus the hash count (`usize::MAX` marks a
/// plain byte string, handled like a normal string).
fn raw_or_byte_string_start(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut k = i;
    let mut saw_b = false;
    if b[k] == b'b' {
        saw_b = true;
        k += 1;
    }
    if b.get(k) == Some(&b'r') {
        k += 1;
        let mut hashes = 0usize;
        while b.get(k) == Some(&b'#') {
            hashes += 1;
            k += 1;
        }
        if b.get(k) == Some(&b'"') {
            return Some((k, hashes));
        }
        return None;
    }
    if saw_b && b.get(k) == Some(&b'"') {
        return Some((k, usize::MAX));
    }
    None
}

/// Skips a raw string whose opening quote is at `i` with `hashes` hashes.
fn skip_raw_string(b: &[u8], i: usize, hashes: usize, line: &mut u32) -> usize {
    let mut i = i + 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut ok = true;
            for h in 0..hashes {
                if b.get(i + 1 + h) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Skips a `'…'` char literal starting at the opening quote.
fn skip_char_literal(b: &[u8], i: usize, line: &mut u32) -> usize {
    let mut i = i + 1;
    if b.get(i) == Some(&b'\\') {
        i += 2; // escape head; \u{…} tails are consumed by the loop below
    }
    while i < b.len() && b[i] != b'\'' {
        if b[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    i + 1
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let attr_end = match matching_bracket(tokens, i + 1) {
            Some(e) => e,
            None => break,
        };
        let is_cfg_test = {
            let span = &tokens[i + 1..attr_end];
            span.iter().any(|t| t.text == "cfg") && span.iter().any(|t| t.text == "test")
        };
        if !is_cfg_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between the cfg and the item.
        let mut k = attr_end + 1;
        while tokens.get(k).map(|t| t.text.as_str()) == Some("#")
            && tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[")
        {
            match matching_bracket(tokens, k + 1) {
                Some(e) => k = e + 1,
                None => return,
            }
        }
        // The item extends to the matching `}` of its first body brace, or
        // to a top-level `;` for brace-less items.
        let mut depth = 0i32;
        let mut end = tokens.len().saturating_sub(1);
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    end = matching_brace(tokens, k).unwrap_or(tokens.len() - 1);
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end = end.min(tokens.len() - 1);
        for t in tokens[i..=end].iter_mut() {
            t.is_test = true;
        }
        i = end + 1;
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let toks =
            texts("// partial_cmp in a comment\nlet s = \"partial_cmp\"; /* unsafe */ call();");
        assert!(!toks.contains(&"partial_cmp".to_string()));
        assert!(!toks.contains(&"unsafe".to_string()));
        assert!(toks.contains(&"call".to_string()));
    }

    #[test]
    fn plain_string_literals_survive_as_quoted_tokens() {
        let toks = texts("faults::fired(\"varpca.fit\"); next();");
        assert!(toks.contains(&"\"varpca.fit\"".to_string()));
        assert!(toks.contains(&"next".to_string()));
        // The quotes stay in the token text, so a literal can never be
        // mistaken for a bare identifier by the other rules.
        assert!(!toks.iter().any(|t| t == "varpca"));
    }

    #[test]
    fn multiline_string_tracks_following_lines() {
        let lexed = lex("let s = \"a\nb\";\nafter();");
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
        let lit = lexed.tokens.iter().find(|t| t.text.starts_with('"')).unwrap();
        assert_eq!(lit.line, 1);
    }

    #[test]
    fn raw_strings_are_stripped() {
        let toks = texts("let s = r#\"unwrap() \"quoted\" unsafe\"#; next();");
        assert!(!toks.contains(&"unwrap".to_string()));
        assert!(toks.contains(&"next".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = texts("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.contains(&"str".to_string()));
        // The char literal 'x' is stripped, but the lifetime does not
        // swallow the following tokens.
        let toks2 = texts("let c = 'x'; done();");
        assert!(toks2.contains(&"done".to_string()));
        assert!(!toks2.contains(&"x".to_string()));
    }

    #[test]
    fn escaped_char_literals() {
        let toks = texts(r"let c = '\n'; let q = '\''; let u = '\u{1F600}'; end();");
        assert!(toks.contains(&"end".to_string()));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let lexed = lex("fn live() { a.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\n\
             fn live2() { c.unwrap(); }");
        let unwraps: Vec<bool> =
            lexed.tokens.iter().filter(|t| t.text == "unwrap").map(|t| t.is_test).collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_with_following_attribute() {
        let lexed = lex(
            "#[cfg(test)]\n#[allow(dead_code)]\nfn t() { b.unwrap(); }\nfn l() { c.unwrap(); }",
        );
        let unwraps: Vec<bool> =
            lexed.tokens.iter().filter(|t| t.text == "unwrap").map(|t| t.is_test).collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn safety_comment_lines_are_recorded() {
        let lexed = lex("fn f() {\n    // SAFETY: bounds checked above\n    unsafe { go() }\n}");
        assert_eq!(lexed.safety_lines, vec![2]);
    }

    #[test]
    fn empty_safety_marker_is_not_recorded() {
        // VAQ005 requires an argument: a bare marker, or one followed only
        // by punctuation, vouches for nothing.
        assert!(lex("fn f() {\n    // SAFETY:\n    unsafe { go() }\n}").safety_lines.is_empty());
        assert!(lex("fn f() {\n    // SAFETY: ..\n    unsafe { go() }\n}").safety_lines.is_empty());
        assert!(lex("fn f() {\n    /* SAFETY: */\n    unsafe { go() }\n}").safety_lines.is_empty());
    }

    #[test]
    fn multiline_safety_run_records_its_last_line() {
        // The justification continues across `//` lines; the run vouches
        // from its last line so a long comment still sits "within three
        // lines" of the code below it.
        let lexed = lex("// SAFETY: the caller pinned the buffer\n// for the whole call\n\
                         unsafe { go() }");
        assert_eq!(lexed.safety_lines, vec![2]);
        // A bare marker whose justification lives on the next comment
        // line still counts — the run is judged as one comment.
        let lexed = lex("// SAFETY:\n// bounds were checked above\nunsafe { go() }");
        assert_eq!(lexed.safety_lines, vec![2]);
    }

    #[test]
    fn code_between_comments_splits_the_run() {
        // The second comment must not inherit the first line's marker.
        let lexed = lex("// SAFETY: fine here\nuse x; // unrelated\nunsafe { go() }");
        assert_eq!(lexed.safety_lines, vec![1]);
    }

    #[test]
    fn feature_comment_lines_are_recorded() {
        let lexed = lex("fn f() {\n    // SAFETY: lane count fixed; caller verified AVX2\n    \
                         unsafe { go() }\n}");
        assert_eq!(lexed.feature_lines, vec![2]);
        // Case-insensitive, and multi-line runs vouch from their last line.
        let lexed = lex("// SAFETY: pointers stay in bounds,\n// guarded by the ssse3 probe\n\
                         unsafe { go() }");
        assert_eq!(lexed.feature_lines, vec![2]);
        // A justification that names no feature tier records nothing.
        let lexed = lex("fn f() {\n    // SAFETY: bounds checked above\n    unsafe { go() }\n}");
        assert!(lexed.feature_lines.is_empty());
    }

    #[test]
    fn crc_feature_names_are_recorded() {
        // The x86-64 CRC-32C tier, written the way the CPUID flag is.
        let lexed = lex("// SAFETY: SSE4.2 support verified by the guard\nunsafe { go() }");
        assert_eq!(lexed.feature_lines, vec![1]);
        // The aarch64 `crc` feature.
        let lexed = lex("// SAFETY: the aarch64 `crc` feature was probed\nunsafe { go() }");
        assert_eq!(lexed.feature_lines, vec![1]);
        // `sse4` alone names no tier.
        let lexed = lex("// SAFETY: sse4 is fine here\nunsafe { go() }");
        assert!(lexed.feature_lines.is_empty());
    }

    #[test]
    fn ordering_comment_lines_are_recorded() {
        let lexed = lex("// ORDERING: Release pairs with the Acquire\n// load in the searcher\n\
                         v.store(1, Ordering::Release);");
        assert_eq!(lexed.ordering_lines, vec![2]);
        assert!(lex("// ORDERING:\nv.store(1, Ordering::Release);").ordering_lines.is_empty());
    }
}
