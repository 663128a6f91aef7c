//! Token-tree layer over the scanner's code channel.
//!
//! The lexical rules (R3, R5–R7, R14) match substrings of single lines;
//! the structural and dataflow rules (R11, R18–R21) need to know
//! *where* a token sits — which `fn`, which `impl`, whether a call is
//! inside a loop body or a closure. This module supplies that context: it
//! tokenizes the scanner's code channel (comments and string contents are
//! already blanked, so the stream is pure code), parses balanced
//! delimiters into trees, and extracts item structure — `fn` boundaries
//! with their enclosing `impl`/`mod` scope, plus structural `#[cfg(test)]`
//! tracking that replaces the scanner's old brace-counting heuristic.
//!
//! The parser is deliberately approximate where precision would require
//! rustc: macro invocation bodies are opaque token groups (no calls are
//! extracted from them), generic angle brackets are skipped by counting
//! rather than parsed, and trait dispatch resolves by method name only.
//! DESIGN.md §8 records the approximations.

use crate::scanner::{Line, SourceFile};

/// One lexical token from the code channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier, keyword, or lifetime (lifetimes keep their leading `'`).
    Ident(String),
    /// Single punctuation character; multi-character operators arrive as
    /// consecutive puncts (`::` is two `:` tokens).
    Punct(char),
    /// Numeric literal text (float literals keep their `.`).
    Num(String),
    /// A blanked string or char literal (`""` / `''` in the code channel).
    Lit,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// A balanced token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single non-delimiter token.
    Leaf(Token),
    /// A `(…)`, `[…]`, or `{…}` group.
    Group(Group),
}

/// A delimited group of trees.
#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    /// 1-based line of the opening delimiter.
    pub open_line: usize,
    /// 1-based line of the closing delimiter.
    pub close_line: usize,
    /// Child trees.
    pub children: Vec<Tree>,
}

/// A function item with a body: name, enclosing scope, span, and the
/// group-index path from the file roots to the body group.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` target type (last path segment), if any.
    pub self_type: Option<String>,
    /// True if the item is test code — under structural `#[cfg(test)]`
    /// nesting or in a test-target file.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Group-index path from the file roots to the body group.
    pub path: Vec<usize>,
}

/// Parsed structure of one source file.
#[derive(Debug)]
pub struct FileSyntax {
    /// Effective path (same as the scanner's).
    pub effective: String,
    /// Top-level token trees.
    pub roots: Vec<Tree>,
    /// Every `fn` with a body, in source order (fns nested inside other fn
    /// bodies are attributed to the enclosing fn, not listed separately).
    pub fns: Vec<FnSpan>,
}

impl FileSyntax {
    /// The body trees of `f` (empty if the path no longer resolves).
    pub fn body_of(&self, f: &FnSpan) -> &[Tree] {
        let mut trees: &[Tree] = &self.roots;
        for &idx in &f.path {
            match trees.get(idx) {
                Some(Tree::Group(g)) => trees = &g.children,
                _ => return &[],
            }
        }
        trees
    }
}

/// Tokenizes the code channel of scanned lines.
pub fn tokenize(lines: &[Line]) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line: lineno,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Float literal (`1.5`, `0.25e3`) — but not a tuple index
                // (`pair.0`) or a range bound (`0..n`).
                let after_dot = matches!(
                    out.last(),
                    Some(Token {
                        tok: Tok::Punct('.'),
                        ..
                    })
                );
                if !after_dot
                    && chars.get(i) == Some(&'.')
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.push(Token {
                    tok: Tok::Num(chars[start..i].iter().collect()),
                    line: lineno,
                });
            } else if c == '"' {
                // Blanked string literal: the closing quote is adjacent.
                i += 1;
                if chars.get(i) == Some(&'"') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Lit,
                    line: lineno,
                });
            } else if c == '\'' {
                if chars.get(i + 1) == Some(&'\'') {
                    // Blanked char literal.
                    out.push(Token {
                        tok: Tok::Lit,
                        line: lineno,
                    });
                    i += 2;
                } else {
                    // Lifetime: keep the quote in the identifier.
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(Token {
                        tok: Tok::Ident(chars[start..i].iter().collect()),
                        line: lineno,
                    });
                }
            } else {
                out.push(Token {
                    tok: Tok::Punct(c),
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    out
}

thread_local! {
    static PARSE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`parse`] invocations on the current thread. The single-parse
/// perf contract — [`crate::check`] lexes and parses each file exactly once
/// into the shared [`crate::FileIndex`] — is pinned by a test over this
/// counter.
pub fn parse_invocations() -> usize {
    PARSE_CALLS.with(std::cell::Cell::get)
}

/// Parses tokens into balanced trees. Tolerant of malformed input: stray
/// closers are dropped and unclosed groups are closed at end of input.
pub fn parse(tokens: Vec<Token>) -> Vec<Tree> {
    PARSE_CALLS.with(|c| c.set(c.get() + 1));
    struct OpenGroup {
        delim: char,
        open_line: usize,
        parent: Vec<Tree>,
    }
    let mut stack: Vec<OpenGroup> = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    let mut last_line = 1usize;
    for t in tokens {
        last_line = t.line;
        match t.tok {
            Tok::Punct(c @ ('(' | '[' | '{')) => {
                stack.push(OpenGroup {
                    delim: c,
                    open_line: t.line,
                    parent: std::mem::take(&mut cur),
                });
            }
            Tok::Punct(c @ (')' | ']' | '}')) => {
                let _ = c;
                if let Some(open) = stack.pop() {
                    let children = std::mem::replace(&mut cur, open.parent);
                    cur.push(Tree::Group(Group {
                        delim: open.delim,
                        open_line: open.open_line,
                        close_line: t.line,
                        children,
                    }));
                }
            }
            _ => cur.push(Tree::Leaf(t)),
        }
    }
    while let Some(open) = stack.pop() {
        let children = std::mem::replace(&mut cur, open.parent);
        cur.push(Tree::Group(Group {
            delim: open.delim,
            open_line: open.open_line,
            close_line: last_line,
            children,
        }));
    }
    cur
}

/// Rust keywords (and reserved words) that can precede a parenthesized
/// expression without forming a call.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "pub", "use", "mod", "impl", "trait", "struct", "enum",
    "union", "where", "unsafe", "async", "await", "dyn", "crate", "super", "self", "Self", "const",
    "static", "type", "extern", "box", "yield",
];

/// True if `s` is a Rust keyword.
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// The identifier text of a leaf, if it is one.
pub fn ident_of(tree: &Tree) -> Option<&str> {
    match tree {
        Tree::Leaf(Token {
            tok: Tok::Ident(s), ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character of a leaf, if it is one.
pub fn punct_of(tree: &Tree) -> Option<char> {
    match tree {
        Tree::Leaf(Token {
            tok: Tok::Punct(c), ..
        }) => Some(*c),
        _ => None,
    }
}

/// The group behind a tree, if it is one.
pub fn group_of(tree: &Tree) -> Option<&Group> {
    match tree {
        Tree::Group(g) => Some(g),
        _ => None,
    }
}

/// The 1-based line a tree starts on.
pub fn line_of(tree: &Tree) -> usize {
    match tree {
        Tree::Leaf(t) => t.line,
        Tree::Group(g) => g.open_line,
    }
}

/// True if the bracket group is exactly `[cfg(test)]` — structural parity
/// with the old lexical `#[cfg(test)]` match: `cfg(not(test))` and
/// `cfg(all(test, …))` do not qualify.
fn attr_is_cfg_test(g: &Group) -> bool {
    if g.delim != '[' || g.children.len() != 2 || ident_of(&g.children[0]) != Some("cfg") {
        return false;
    }
    match group_of(&g.children[1]) {
        Some(args) if args.delim == '(' => {
            args.children.len() == 1 && ident_of(&args.children[0]) == Some("test")
        }
        _ => false,
    }
}

/// Skips a balanced `<…>` generic run starting at `i` (which must point at
/// the `<`). Returns the index just past the matching `>`. A `>` preceded
/// by `-` (the `->` arrow inside `Fn(…) -> T` bounds) does not close.
fn skip_angles(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    let mut prev = ' ';
    while i < trees.len() {
        match punct_of(&trees[i]) {
            Some('<') => depth += 1,
            Some('>') if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        prev = punct_of(&trees[i]).unwrap_or(' ');
        i += 1;
    }
    i
}

struct ItemCtx {
    self_type: Option<String>,
    in_test: bool,
}

/// Walks item structure at one nesting level, collecting `fn` spans and
/// `#[cfg(test)]` item line spans; descends into `mod`/`impl`/`trait`
/// bodies (not into `fn` bodies or macro groups).
fn walk_items(
    trees: &[Tree],
    ctx: &ItemCtx,
    path: &mut Vec<usize>,
    fns: &mut Vec<FnSpan>,
    spans: &mut Vec<(usize, usize)>,
) {
    let mut i = 0usize;
    // Start line of a pending `#[cfg(test)]` attribute awaiting its item.
    let mut pending: Option<usize> = None;
    while i < trees.len() {
        // Outer attributes `#[…]` (inner `#![…]` attrs are skipped without
        // affecting the pending state).
        if punct_of(&trees[i]) == Some('#') {
            let attr_line = line_of(&trees[i]);
            let mut j = i + 1;
            let inner = j < trees.len() && punct_of(&trees[j]) == Some('!');
            if inner {
                j += 1;
            }
            if let Some(g) = trees.get(j).and_then(group_of) {
                if g.delim == '[' {
                    if !inner && attr_is_cfg_test(g) {
                        pending.get_or_insert(attr_line);
                    }
                    i = j + 1;
                    continue;
                }
            }
        }
        match ident_of(&trees[i]) {
            Some("fn") => {
                i = parse_fn(trees, i, ctx, &mut pending, path, fns, spans);
            }
            Some("mod") => {
                i = parse_mod(trees, i, ctx, &mut pending, path, fns, spans);
            }
            Some(kw @ ("impl" | "trait")) => {
                i = parse_impl_like(trees, i, kw, ctx, &mut pending, path, fns, spans);
            }
            Some("macro_rules") => {
                // `macro_rules! name { … }` — the body is opaque.
                let mut j = i + 1;
                while j < trees.len() && group_of(&trees[j]).is_none() {
                    j += 1;
                }
                if let Some(start) = pending.take() {
                    let end = trees.get(j).map_or(line_of(&trees[i]), |t| match t {
                        Tree::Group(g) => g.close_line,
                        Tree::Leaf(t) => t.line,
                    });
                    spans.push((start, end));
                }
                i = j + 1;
            }
            Some("struct" | "enum" | "union" | "use" | "static" | "type" | "extern")
                if pending.is_some() =>
            {
                i = consume_plain_item(trees, i, &mut pending, spans);
            }
            _ => {
                // `pub`, `unsafe`, `async`, `const`, visibility groups, and
                // stray tokens: keep any pending attribute alive — it still
                // belongs to the upcoming item.
                i += 1;
            }
        }
    }
}

/// Consumes a non-descending item (`struct`/`use`/`static`/…) under a
/// pending `#[cfg(test)]`: the item ends at the first top-level `;` or the
/// first brace group. Aborts (leaving `pending` set) if an item keyword
/// that has its own handler shows up first.
fn consume_plain_item(
    trees: &[Tree],
    i: usize,
    pending: &mut Option<usize>,
    spans: &mut Vec<(usize, usize)>,
) -> usize {
    let mut j = i + 1;
    while j < trees.len() {
        if matches!(ident_of(&trees[j]), Some("fn" | "mod" | "impl" | "trait")) {
            // `#[cfg(test)] use` never reaches here, but `type`-like
            // keywords can prefix handled items in odd grammars; let the
            // dedicated handler consume from its keyword.
            return i + 1;
        }
        if punct_of(&trees[j]) == Some(';') {
            if let Some(start) = pending.take() {
                spans.push((start, line_of(&trees[j])));
            }
            return j + 1;
        }
        if let Some(g) = group_of(&trees[j]) {
            if g.delim == '{' {
                if let Some(start) = pending.take() {
                    spans.push((start, g.close_line));
                }
                return j + 1;
            }
        }
        j += 1;
    }
    trees.len()
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursive item parser threads its cursor, scope and output lists explicitly"
)]
fn parse_fn(
    trees: &[Tree],
    at: usize,
    ctx: &ItemCtx,
    pending: &mut Option<usize>,
    path: &[usize],
    fns: &mut Vec<FnSpan>,
    spans: &mut Vec<(usize, usize)>,
) -> usize {
    let fn_line = line_of(&trees[at]);
    let mut i = at + 1;
    let Some(name) = trees.get(i).and_then(ident_of).map(str::to_string) else {
        return at + 1;
    };
    i += 1;
    if punct_of(trees.get(i).unwrap_or(&trees[at])) == Some('<') {
        i = skip_angles(trees, i);
    }
    // Parameter list.
    match trees.get(i).and_then(group_of) {
        Some(g) if g.delim == '(' => i += 1,
        _ => return at + 1,
    }
    // Body: the first top-level brace group; `;` means a bodyless decl.
    while i < trees.len() {
        if punct_of(&trees[i]) == Some(';') {
            if let Some(start) = pending.take() {
                spans.push((start, line_of(&trees[i])));
            }
            return i + 1;
        }
        if let Some(g) = group_of(&trees[i]) {
            if g.delim == '{' {
                let is_test = ctx.in_test || pending.is_some();
                if let Some(start) = pending.take() {
                    spans.push((start, g.close_line));
                }
                let mut body_path = path.to_vec();
                body_path.push(i);
                fns.push(FnSpan {
                    name,
                    self_type: ctx.self_type.clone(),
                    is_test,
                    start_line: fn_line,
                    end_line: g.close_line,
                    path: body_path,
                });
                return i + 1;
            }
        }
        i += 1;
    }
    trees.len()
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursive item parser threads its cursor, scope and output lists explicitly"
)]
fn parse_mod(
    trees: &[Tree],
    at: usize,
    ctx: &ItemCtx,
    pending: &mut Option<usize>,
    path: &mut Vec<usize>,
    fns: &mut Vec<FnSpan>,
    spans: &mut Vec<(usize, usize)>,
) -> usize {
    let mut i = at + 1;
    if trees.get(i).and_then(ident_of).is_some() {
        i += 1;
    }
    while i < trees.len() {
        if punct_of(&trees[i]) == Some(';') {
            if let Some(start) = pending.take() {
                spans.push((start, line_of(&trees[i])));
            }
            return i + 1;
        }
        if let Some(g) = group_of(&trees[i]) {
            if g.delim == '{' {
                let in_test = ctx.in_test || pending.is_some();
                if let Some(start) = pending.take() {
                    spans.push((start, g.close_line));
                }
                let child_ctx = ItemCtx {
                    self_type: None,
                    in_test,
                };
                path.push(i);
                walk_items(&g.children, &child_ctx, path, fns, spans);
                path.pop();
                return i + 1;
            }
        }
        i += 1;
    }
    trees.len()
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursive item parser threads its cursor, scope and output lists explicitly"
)]
fn parse_impl_like(
    trees: &[Tree],
    at: usize,
    kw: &str,
    ctx: &ItemCtx,
    pending: &mut Option<usize>,
    path: &mut Vec<usize>,
    fns: &mut Vec<FnSpan>,
    spans: &mut Vec<(usize, usize)>,
) -> usize {
    let mut i = at + 1;
    if punct_of(trees.get(i).unwrap_or(&trees[at])) == Some('<') {
        i = skip_angles(trees, i);
    }
    // `impl [Trait for] Type` → last path segment of the target type;
    // `trait Name[: Super]` → the first identifier.
    let mut ty: Option<String> = None;
    let mut collecting = true;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            if g.delim == '{' {
                let in_test = ctx.in_test || pending.is_some();
                if let Some(start) = pending.take() {
                    spans.push((start, g.close_line));
                }
                let child_ctx = ItemCtx {
                    self_type: ty.clone(),
                    in_test,
                };
                path.push(i);
                walk_items(&g.children, &child_ctx, path, fns, spans);
                path.pop();
                return i + 1;
            }
            i += 1;
            continue;
        }
        match ident_of(&trees[i]) {
            Some("for") if kw == "impl" => {
                ty = None;
                collecting = true;
            }
            Some("where") => collecting = false,
            Some(id) if collecting && !is_keyword(id) => {
                ty = Some(id.to_string());
                if kw == "trait" {
                    collecting = false;
                }
            }
            _ => {}
        }
        if punct_of(&trees[i]) == Some('<') {
            i = skip_angles(trees, i);
            continue;
        }
        if punct_of(&trees[i]) == Some(';') {
            if let Some(start) = pending.take() {
                spans.push((start, line_of(&trees[i])));
            }
            return i + 1;
        }
        i += 1;
    }
    trees.len()
}

/// Parses one scanned file into its token-tree structure.
pub fn parse_file(file: &SourceFile) -> FileSyntax {
    let roots = parse(tokenize(&file.lines));
    let mut fns = Vec::new();
    let mut spans = Vec::new();
    let ctx = ItemCtx {
        self_type: None,
        in_test: false,
    };
    walk_items(&roots, &ctx, &mut Vec::new(), &mut fns, &mut spans);
    for f in &mut fns {
        // Whole-file test targets: the scanner marked every line.
        if file.lines.get(f.start_line - 1).is_some_and(|l| l.in_test) {
            f.is_test = true;
        }
    }
    FileSyntax {
        effective: file.effective.clone(),
        roots,
        fns,
    }
}

/// Lexed-lines → (test-marked [`SourceFile`], [`FileSyntax`]) in a single
/// tokenize+parse — the engine behind [`crate::index_str`]. Equivalent to
/// `scan_str` followed by `parse_file`, which cost two parses per file.
pub(crate) fn index_file(
    effective: String,
    mut lines: Vec<Line>,
    whole_file_test: bool,
) -> (SourceFile, FileSyntax) {
    if whole_file_test {
        for line in &mut lines {
            line.in_test = true;
        }
    }
    let roots = parse(tokenize(&lines));
    let mut fns = Vec::new();
    let mut spans = Vec::new();
    let ctx = ItemCtx {
        self_type: None,
        in_test: false,
    };
    walk_items(&roots, &ctx, &mut Vec::new(), &mut fns, &mut spans);
    let n = lines.len();
    for (start, end) in spans {
        for line in lines[start.saturating_sub(1)..end.min(n)].iter_mut() {
            line.in_test = true;
        }
    }
    for f in &mut fns {
        // Whole-file test targets: every line is marked.
        if lines.get(f.start_line - 1).is_some_and(|l| l.in_test) {
            f.is_test = true;
        }
    }
    let source = SourceFile {
        effective: effective.clone(),
        lines,
    };
    let syntax = FileSyntax {
        effective,
        roots,
        fns,
    };
    (source, syntax)
}

/// Marks lines inside structurally-`#[cfg(test)]` items. Called by the
/// scanner in place of its old brace-counting heuristic.
pub(crate) fn mark_cfg_test(lines: &mut [Line]) {
    let roots = parse(tokenize(lines));
    let mut fns = Vec::new();
    let mut spans = Vec::new();
    let ctx = ItemCtx {
        self_type: None,
        in_test: false,
    };
    walk_items(&roots, &ctx, &mut Vec::new(), &mut fns, &mut spans);
    let n = lines.len();
    for (start, end) in spans {
        for line in lines[start.saturating_sub(1)..end.min(n)].iter_mut() {
            line.in_test = true;
        }
    }
}

/// Context carried through [`walk_exprs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprCtx {
    /// Inside the body of a `for`/`while`/`loop`.
    pub in_loop: bool,
    /// Inside a macro invocation's token group.
    pub in_macro: bool,
}

/// Pre-order walk over every tree position; `f` receives the sibling
/// slice, the index within it, and the structural context.
pub fn walk_exprs<F: FnMut(&[Tree], usize, ExprCtx)>(trees: &[Tree], ctx: ExprCtx, f: &mut F) {
    let mut pending_loop = false;
    for i in 0..trees.len() {
        f(trees, i, ctx);
        match &trees[i] {
            Tree::Leaf(t) => {
                if let Tok::Ident(s) = &t.tok {
                    if matches!(s.as_str(), "for" | "while" | "loop") {
                        pending_loop = true;
                    }
                }
                if t.tok == Tok::Punct(';') {
                    pending_loop = false;
                }
            }
            Tree::Group(g) => {
                let after_bang = i > 0 && punct_of(&trees[i - 1]) == Some('!');
                let child_ctx = ExprCtx {
                    in_loop: ctx.in_loop || (g.delim == '{' && pending_loop),
                    in_macro: ctx.in_macro || after_bang,
                };
                if g.delim == '{' {
                    pending_loop = false;
                }
                walk_exprs(&g.children, child_ctx, f);
            }
        }
    }
}

/// An approximate call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called identifier (method name or last path segment).
    pub name: String,
    /// `Qual::` path segment immediately before the name, if any.
    pub qual: Option<String>,
    /// True for `.name(…)` method calls.
    pub method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// Extracts approximate call sites from `trees`: an identifier directly
/// followed by a paren group. Macro bodies are skipped (conservative), as
/// are keywords and `fn` definitions.
pub fn calls_in(trees: &[Tree]) -> Vec<CallSite> {
    let mut out = Vec::new();
    walk_exprs(trees, ExprCtx::default(), &mut |sibs, i, ctx| {
        if ctx.in_macro {
            return;
        }
        let Some(name) = ident_of(&sibs[i]) else {
            return;
        };
        if is_keyword(name) || name.starts_with('\'') {
            return;
        }
        // Must be followed by `(` (a call), not `!` (a macro).
        match sibs.get(i + 1) {
            Some(Tree::Group(g)) if g.delim == '(' => {}
            _ => return,
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && ident_of(&sibs[i - 1]) == Some("fn") {
            return;
        }
        let method = i > 0 && punct_of(&sibs[i - 1]) == Some('.');
        let qual =
            if i >= 3 && punct_of(&sibs[i - 1]) == Some(':') && punct_of(&sibs[i - 2]) == Some(':')
            {
                sibs.get(i - 3).and_then(ident_of).map(str::to_string)
            } else {
                None
            };
        out.push(CallSite {
            name: name.to_string(),
            qual,
            method,
            line: line_of(&sibs[i]),
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;

    fn syntax(src: &str) -> FileSyntax {
        parse_file(&scan_str("crates/core/src/x.rs", src))
    }

    #[test]
    fn balanced_groups_with_raw_strings() {
        // The raw string contains unbalanced braces and quotes — the
        // scanner blanks them, so the tree stays balanced.
        let fs = syntax("fn f() { let s = r#\"} } { \"unbalanced\" \"#; g(s); }\n");
        assert_eq!(fs.fns.len(), 1);
        assert_eq!(fs.fns[0].name, "f");
        let calls = calls_in(fs.body_of(&fs.fns[0]));
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "g");
    }

    #[test]
    fn nested_block_comments_are_invisible() {
        let fs = syntax("fn f() { /* { /* nested } */ still comment { */ h(); }\n");
        assert_eq!(fs.fns.len(), 1);
        assert_eq!(fs.fns[0].end_line, 1);
        let calls = calls_in(fs.body_of(&fs.fns[0]));
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "h");
    }

    #[test]
    fn macro_bodies_are_opaque_to_call_extraction() {
        let fs = syntax("fn f() { assert_eq!(charge(), 1); vec![g()]; real(); }\n");
        let calls = calls_in(fs.body_of(&fs.fns[0]));
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["real"], "macro arguments are not resolved");
    }

    #[test]
    fn nested_cfg_test_modules_mark_structurally() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       mod inner {\n\
                           fn t() { helper(); }\n\
                       }\n\
                   }\n\
                   fn lib2() {}\n";
        let fs = syntax(src);
        let by_name: Vec<(&str, bool)> = fs
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            by_name,
            vec![("lib", false), ("t", true), ("lib2", false)],
            "cfg(test) nesting is tracked through nested modules"
        );
    }

    #[test]
    fn multi_line_generics_do_not_break_fn_parsing() {
        let src = "fn frob<\n\
                       F: Fn(u32) -> u32,\n\
                       T: Into<String>,\n\
                   >(f: F, t: T) -> Result<u32, String>\n\
                   where\n\
                       T: Clone,\n\
                   {\n\
                       f(7)\n\
                   }\n";
        let fs = syntax(src);
        assert_eq!(fs.fns.len(), 1);
        assert_eq!(fs.fns[0].name, "frob");
        assert_eq!(fs.fns[0].start_line, 1);
        assert_eq!(fs.fns[0].end_line, 9);
    }

    #[test]
    fn impl_scope_attaches_self_type() {
        let src = "impl<'a, T: Ord> fmt::Display for Round<'a, T> {\n\
                       fn fmt(&self) -> u32 { 0 }\n\
                   }\n\
                   impl Ledger {\n\
                       fn charge(&mut self) {}\n\
                   }\n\
                   trait Transport {\n\
                       fn node_count(&self) -> usize { 0 }\n\
                   }\n";
        let fs = syntax(src);
        let scopes: Vec<(&str, Option<&str>)> = fs
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_type.as_deref()))
            .collect();
        assert_eq!(
            scopes,
            vec![
                ("fmt", Some("Round")),
                ("charge", Some("Ledger")),
                ("node_count", Some("Transport")),
            ]
        );
    }

    #[test]
    fn call_sites_carry_method_and_qualifier() {
        let fs = syntax(
            "fn f() { ledger.charge_round(); RoundLedger::new(); Self::helper(); plain(); }\n",
        );
        let calls = calls_in(fs.body_of(&fs.fns[0]));
        assert_eq!(calls.len(), 4);
        assert!(calls[0].method && calls[0].name == "charge_round");
        assert_eq!(calls[1].qual.as_deref(), Some("RoundLedger"));
        assert_eq!(calls[2].qual.as_deref(), Some("Self"));
        assert!(!calls[3].method && calls[3].qual.is_none());
    }

    #[test]
    fn loop_context_reaches_the_walker() {
        let fs = syntax("fn f() { for i in 0..n { spawn(i); } let x = arr[i as usize]; }\n");
        let mut in_loop_calls = Vec::new();
        walk_exprs(
            fs.body_of(&fs.fns[0]),
            ExprCtx::default(),
            &mut |sibs, i, ctx| {
                if let Tree::Leaf(Token {
                    tok: Tok::Ident(s), ..
                }) = &sibs[i]
                {
                    if ctx.in_loop
                        && matches!(sibs.get(i + 1), Some(Tree::Group(g)) if g.delim == '(')
                    {
                        in_loop_calls.push(s.clone());
                    }
                }
            },
        );
        assert_eq!(in_loop_calls, vec!["spawn".to_string()]);
    }

    #[test]
    fn float_literals_tokenize_distinctly_from_tuple_indexes() {
        let toks =
            tokenize(&scan_str("x.rs", "let a = 1.5; let b = pair.0; let c = 0..n;\n").lines);
        let nums: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1.5", "0", "0"]);
    }
}
