//! Line/token scanner over Rust sources.
//!
//! The conformance rules are lexical: they match tokens that must (or must
//! not) appear in particular regions of the tree. To keep them honest the
//! scanner separates, per line, the *code* text from the *comment* text —
//! string-literal contents are blanked out of the code channel (so a log
//! message mentioning `Instant::now` never trips R3) and comments are removed
//! from the code channel entirely (so doc-examples never trip call-site
//! rules) while remaining available for pragma parsing.
//!
//! It also computes, per line, whether the line is **test code**: inside a
//! `#[cfg(test)]` item, or in a file that is itself a test/bench/example
//! target. Most rules only police library code — the determinism contracts
//! bind the simulation, not its assertions.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Original line text (used for `expect("...")` message checks, where
    /// the string contents matter).
    pub raw: String,
    /// Code channel: comments stripped, string/char literal contents
    /// blanked (the delimiting quotes are kept).
    pub code: String,
    /// Comment channel: the text of any `//`, `///`, `//!`, or block
    /// comment on this line.
    pub comment: String,
    /// True if the line is test code (see module docs).
    pub in_test: bool,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path used for rule scoping and diagnostics — workspace-relative,
    /// with `/` separators. Fixture files may override it via a
    /// `conform-fixture: <path>` comment in their first lines.
    pub effective: String,
    /// Scanned lines, in order (line numbers are `index + 1`).
    pub lines: Vec<Line>,
}

/// Lexer state carried across lines.
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Scans `text` as Rust source. `effective_path` should be the
/// workspace-relative path; a `conform-fixture: <path>` comment within the
/// first five lines overrides it (so linter fixtures can impersonate any
/// location in the tree).
pub fn scan_str(effective_path: &str, text: &str) -> SourceFile {
    let effective = fixture_override(text).unwrap_or_else(|| effective_path.to_string());
    let mut lines = lex(text);
    mark_tests(&effective, &mut lines);
    SourceFile { effective, lines }
}

/// Lexes `text` *without* test marking: the single-parse indexer
/// ([`crate::index_str`]) applies structural `cfg(test)` spans itself from
/// the one shared parse. Returns the effective path, the lexed lines, and
/// whether the whole file is a test target.
pub(crate) fn lex_parts(effective_path: &str, text: &str) -> (String, Vec<Line>, bool) {
    let effective = fixture_override(text).unwrap_or_else(|| effective_path.to_string());
    let lines = lex(text);
    let whole_file_test = test_path(&effective);
    (effective, lines, whole_file_test)
}

/// Looks for `conform-fixture: <path>` in the first five lines.
fn fixture_override(text: &str) -> Option<String> {
    for line in text.lines().take(5) {
        if let Some(at) = line.find("conform-fixture:") {
            let path = line[at + "conform-fixture:".len()..].trim();
            if !path.is_empty() {
                return Some(path.to_string());
            }
        }
    }
    None
}

/// Splits `text` into [`Line`]s with code/comment channels separated.
fn lex(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut raw = String::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            lines.push(Line {
                raw: std::mem::take(&mut raw),
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            flush_line!();
            i += 1;
            continue;
        }
        raw.push(c);
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    comment.push('/');
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    raw.push('*');
                    i += 1;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                } else if let Some(hashes) = raw_string_open(&chars, i) {
                    // `r"`, `r#"`, `br##"`, … — skip the prefix, enter the
                    // raw string. The prefix chars still land in `raw`.
                    code.push('"');
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'r')
                        || chars.get(j) == Some(&'#')
                        || chars.get(j) == Some(&'"')
                    {
                        raw.push(chars[j]);
                        if chars[j] == '"' {
                            break;
                        }
                        j += 1;
                    }
                    i = j;
                    state = State::RawStr(hashes);
                } else if c == '\'' {
                    // Char literal vs. lifetime: a char literal closes with
                    // a `'` within a couple of characters.
                    if let Some(close) = char_literal_close(&chars, i) {
                        code.push('\'');
                        for &lit in chars.iter().take(close + 1).skip(i + 1) {
                            if lit == '\n' {
                                break;
                            }
                            raw.push(lit);
                        }
                        code.push('\'');
                        i = close;
                    } else {
                        code.push('\'');
                    }
                } else {
                    code.push(c);
                }
            }
            State::LineComment => comment.push(c),
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    raw.push('/');
                    i += 1;
                    if depth == 1 {
                        state = State::Code;
                        // Keep tokens on either side of a block comment
                        // separated in the code channel.
                        code.push(' ');
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    raw.push('*');
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                }
            }
            State::Str => {
                if c == '\\' {
                    if let Some(&n) = chars.get(i + 1) {
                        if n != '\n' {
                            raw.push(n);
                            i += 1;
                        }
                    }
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    for k in 0..hashes {
                        raw.push(chars[i + 1 + k as usize]);
                    }
                    i += hashes as usize;
                    code.push('"');
                    state = State::Code;
                }
            }
        }
        i += 1;
    }
    if !raw.is_empty() || !code.is_empty() || !comment.is_empty() {
        flush_line!();
    }
    let _ = state;
    lines
}

/// If position `i` starts a raw-string prefix (`r`/`br` + `#`s + `"`),
/// returns the hash count.
fn raw_string_open(chars: &[char], i: usize) -> Option<u32> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    // An identifier character before the prefix means this `r` is just part
    // of a name like `for` or `var`.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// True if the `"` at position `i` is followed by `hashes` `#` characters.
fn raw_string_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
}

/// If position `i` (a `'`) opens a char literal, returns the index of the
/// closing `'`. Otherwise (a lifetime) returns `None`.
fn char_literal_close(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escapes: `'\n'`, `'\''`, `'\u{...}'`, `'\x41'`.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' && j < i + 12 {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j)
        }
        Some('\'') | Some('\n') | None => None,
        Some(_) => (chars.get(i + 2) == Some(&'\'')).then_some(i + 2),
    }
}

/// True if the whole file is a test/bench/example/fixture target by path.
fn test_path(effective: &str) -> bool {
    let parts: Vec<&str> = effective.split('/').collect();
    parts[..parts.len().saturating_sub(1)]
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"))
}

/// Marks lines inside `#[cfg(test)]` items (and whole test-target files).
/// The per-item marking is structural: [`crate::syntax`] parses the code
/// channel into token trees and attributes `#[cfg(test)]` to the item it
/// governs, so nested modules, multi-line items, and braces inside
/// literals are all handled exactly.
fn mark_tests(effective: &str, lines: &mut [Line]) {
    if test_path(effective) {
        for l in lines.iter_mut() {
            l.in_test = true;
        }
        return;
    }
    crate::syntax::mark_cfg_test(lines);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_channel() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "let a = \"HashMap\"; // HashMap here\nlet b = 1; /* HashMap */ let c = 2;\n",
        );
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("let c"));
    }

    #[test]
    fn raw_strings_and_char_literals_are_blanked() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "let s = r#\"Instant::now\"#;\nlet c = 'x'; let l: &'static str = \"\";\n",
        );
        assert!(!f.lines[0].code.contains("Instant::now"));
        assert!(f.lines[1].code.contains("&'static str"));
        assert!(
            !f.lines[1].code.contains('x'),
            "char literal contents blanked"
        );
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = scan_str("crates/core/src/x.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod prod {\n    fn p() {}\n}\n";
        let f = scan_str("crates/core/src/x.rs", src);
        assert!(f.lines.iter().all(|l| !l.in_test));
    }

    #[test]
    fn test_target_paths_are_all_test() {
        let f = scan_str("crates/core/tests/t.rs", "fn x() {}\n");
        assert!(f.lines[0].in_test);
        let f = scan_str("examples/demo.rs", "fn x() {}\n");
        assert!(f.lines[0].in_test);
    }

    #[test]
    fn fixture_override_rewrites_the_effective_path() {
        let f = scan_str(
            "crates/conform/tests/fixtures/r1.rs",
            "// conform-fixture: crates/core/src/demo.rs\nfn x() {}\n",
        );
        assert_eq!(f.effective, "crates/core/src/demo.rs");
        assert!(!f.lines[1].in_test);
    }
}
