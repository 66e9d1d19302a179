//! An item-level parser over the lexed token stream: just enough Rust
//! grammar for semantic analysis of the workspace's own sources.
//!
//! This is deliberately **not** a full Rust parser. It recognises the
//! item shapes the semantic lints need — `fn` items (free, inherent, and
//! trait-impl methods), `impl` blocks, `struct`/`enum`/`trait` types and
//! struct fields, and call expressions inside function bodies — using the
//! same token-tree depth tracking the lexer uses for brackets. Everything
//! else (expressions, patterns, generics beyond bracket matching) is
//! skipped structurally.
//!
//! The output is a [`FileSummary`]: a flat digest of one file, which
//! [`crate::semantic`] stitches into the workspace symbol table and call
//! graph. Local (single-file) lints that need item structure — D011
//! (order-sensitive float reductions) and D014 (doc coverage of exported
//! sim types) — are evaluated here and recorded as [`LocalFinding`]s;
//! cross-file lints only record *sites* (calls, allocations, counter
//! subtractions, discarded results) for the semantic pass to resolve.

use crate::lexer::{Allow, Lexed, Tok, Token};
use crate::lints::{self, FileContext, FileKind};

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Path qualifier directly before `::name(` — a type name
    /// (`PrefetchBuffer::new`), `Self`, or a crate (`asd_core::foo`).
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// A heap-allocation site inside a function body (same constructs D009
/// recognises: `Box::new`, `Vec::new`/`with_capacity`/`from`, `vec![…]`,
/// `.collect()`, `.to_vec()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the allocating construct.
    pub what: String,
}

/// One `fn` item: identity, the facts the graph lints need, and its
/// body's call/allocation sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// `Some(TypeName)` for methods/associated fns declared in an `impl`
    /// block (for `impl Trait for Type`, the `Type`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` token.
    pub line: u32,
    /// Whether a `// asd-lint: hot` marker anchors to this function.
    pub is_hot: bool,
    /// Whether a `// asd-lint: cold` marker anchors to this function —
    /// declaring it off the per-cycle path, so D010's reachability walk
    /// stops here instead of flagging its (and its callees') allocations.
    pub is_cold: bool,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Call sites in the body (nested closures included, nested `fn`
    /// definitions attributed to this item for reachability purposes).
    pub calls: Vec<Call>,
    /// Heap-allocation sites in the body.
    pub allocs: Vec<AllocSite>,
}

/// An exported type declaration (`pub struct` / `pub enum` / `pub trait`
/// / `pub union`) in sim-crate library code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeSummary {
    /// Type name.
    pub name: String,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// Whether a doc comment is adjacent above the item (attributes may
    /// intervene).
    pub documented: bool,
}

/// How a fallible call's `Result` was discarded (D013 sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardKind {
    /// `let _ = <expr ending in the call>;`
    LetUnderscore,
    /// `<call>.ok();` — converting to `Option` and dropping it.
    OkDropped,
}

/// A site where a call's return value is silently discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discard {
    /// 1-based line.
    pub line: u32,
    /// The discarded call's callee name.
    pub callee: String,
    /// Qualifier before the callee, if any (see [`Call::qualifier`]).
    pub qualifier: Option<String>,
    /// Discard syntax.
    pub kind: DiscardKind,
}

/// An unchecked subtraction on a counter-candidate field (`x.field -= …`
/// or `x.field - …`); resolved against the workspace counter-field set by
/// the semantic pass (D012).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterOp {
    /// 1-based line.
    pub line: u32,
    /// The field name being subtracted from.
    pub field: String,
    /// `-=` or `-`.
    pub op: &'static str,
}

/// A single-file finding recorded at parse time (codes whose evidence is
/// entirely local). The display `hint` is recovered from the catalog by
/// code, so summaries stay compact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalFinding {
    /// 1-based line.
    pub line: u32,
    /// Lint code.
    pub code: &'static str,
    /// What was found.
    pub message: String,
}

/// The per-file digest: everything the semantic pass needs to know about
/// one source file.
#[derive(Debug, Clone)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub path: String,
    /// Short crate name.
    pub crate_name: String,
    /// File classification.
    pub kind: FileKind,
    /// Parsed `fn` items.
    pub fns: Vec<FnSummary>,
    /// Exported sim types (D014 candidates), with doc status.
    pub types: Vec<TypeSummary>,
    /// Unsigned-integer fields of `*Stats` / `*Counters` structs declared
    /// in this file — the counter-field registry D012 resolves against.
    pub counter_fields: Vec<String>,
    /// Unchecked counter subtractions (candidate D012 sites).
    pub counter_ops: Vec<CounterOp>,
    /// Discarded call results (candidate D013 sites).
    pub discards: Vec<Discard>,
    /// Findings fully decided at parse time (token lints + D011 + D014).
    pub local: Vec<LocalFinding>,
    /// Suppression directives, for workspace-level allow application.
    pub allows: Vec<Allow>,
}

/// Rust keywords (and keyword-like idents) that must not be mistaken for
/// call names when followed by `(`.
const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "where", "impl", "dyn", "unsafe", "async", "await", "break", "continue", "use",
    "pub", "crate", "super", "mod", "const",
];

/// Parse one lexed file into its summary. Token-level lints (D001–D009)
/// are evaluated via [`lints::local_findings`] and folded into
/// [`FileSummary::local`] together with the parse-level D011/D014 checks.
pub fn summarize(ctx: FileContext<'_>, lexed: &Lexed) -> FileSummary {
    let tokens = &lexed.tokens;
    let test_regions = lints::test_regions(tokens);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| a <= line && line <= b);

    let mut out = FileSummary {
        path: ctx.path.to_string(),
        crate_name: ctx.crate_name.to_string(),
        kind: ctx.kind,
        fns: Vec::new(),
        types: Vec::new(),
        counter_fields: Vec::new(),
        counter_ops: Vec::new(),
        discards: Vec::new(),
        local: Vec::new(),
        allows: lexed.allows.clone(),
    };

    // Token-level lints first (D001–D009), unfiltered: suppression is
    // applied workspace-level by the semantic pass.
    for f in lints::local_findings(ctx, lexed) {
        out.local.push(LocalFinding { line: f.line, code: f.code, message: f.message });
    }

    let mut p = Parser { tokens, lexed, ctx, in_test: &in_test, out: &mut out };
    p.items(0, tokens.len(), None);

    // Mark hot and cold functions: each marker anchors to the first
    // `fn` token at or below its line (same rule as D009).
    for &hot in &lexed.hots {
        if let Some(f) = out.fns.iter_mut().filter(|f| f.line >= hot).min_by_key(|f| f.line) {
            f.is_hot = true;
        }
    }
    for &cold in &lexed.colds {
        if let Some(f) = out.fns.iter_mut().filter(|f| f.line >= cold).min_by_key(|f| f.line) {
            f.is_cold = true;
        }
    }

    out
}

struct Parser<'a> {
    tokens: &'a [Token],
    lexed: &'a Lexed,
    ctx: FileContext<'a>,
    in_test: &'a dyn Fn(u32) -> bool,
    out: &'a mut FileSummary,
}

impl Parser<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map_or(0, |t| t.line)
    }

    /// Skip `#[...]` / `#![...]` attributes starting at `i`; returns the
    /// index after them and the line of the first attribute (if any).
    fn skip_attrs(&self, mut i: usize) -> (usize, Option<u32>) {
        let mut first = None;
        while self.punct(i, '#') {
            let open = if self.punct(i + 1, '[') {
                i + 1
            } else if self.punct(i + 1, '!') && self.punct(i + 2, '[') {
                i + 2
            } else {
                break;
            };
            match lints::match_bracket(self.tokens, open, '[', ']') {
                Some(end) => {
                    first.get_or_insert(self.line(i));
                    i = end + 1;
                }
                None => break,
            }
        }
        (i, first)
    }

    /// Skip a generics list `<...>` starting at `i` (which must hold
    /// `<`); returns the index after the closing `>`. `->` inside (fn
    /// pointer types) does not close the list.
    fn skip_generics(&self, i: usize) -> usize {
        if !self.punct(i, '<') {
            return i;
        }
        let mut depth = 0i32;
        let mut j = i;
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if j > 0 && matches!(self.tokens[j - 1].tok, Tok::Punct('-')) => {}
                Tok::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.tokens.len()
    }

    /// Walk the items in `tokens[start..end]`, with `owner` set inside an
    /// `impl` block.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            let (after_attrs, attr_line) = self.skip_attrs(i);
            if after_attrs != i {
                // Re-dispatch on the item the attributes decorate; the
                // attribute line anchors doc adjacency for D014.
                i = self.item(after_attrs, end, owner, attr_line);
                continue;
            }
            i = self.item(i, end, owner, None);
        }
    }

    /// Parse (or skip) one item starting at `i`; returns the index after
    /// it. `attr_line` is the line of its first attribute, if any.
    fn item(&mut self, i: usize, end: usize, owner: Option<&str>, attr_line: Option<u32>) -> usize {
        let Some(name) = self.ident(i) else {
            return i + 1;
        };
        match name {
            "pub" => {
                // `pub`, `pub(crate)`, `pub(in path)` — remember plain-pub
                // for D014 and re-dispatch.
                let restricted = self.punct(i + 1, '(');
                let next = if restricted {
                    lints::match_bracket(self.tokens, i + 1, '(', ')').map_or(i + 2, |e| e + 1)
                } else {
                    i + 1
                };
                self.pub_item(next, owner, attr_line, !restricted)
            }
            "struct" | "enum" | "union" | "trait" => self.type_item(i, owner, attr_line, false),
            "fn" => self.fn_item(i, owner),
            "impl" => self.impl_item(i),
            "mod" => {
                // `mod name { ... }` — recurse; `mod name;` — skip.
                let mut j = i + 1;
                while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
                    j += 1;
                }
                if self.punct(j, '{') {
                    match lints::match_bracket(self.tokens, j, '{', '}') {
                        Some(close) => {
                            self.items(j + 1, close, None);
                            close + 1
                        }
                        None => end,
                    }
                } else {
                    j + 1
                }
            }
            _ => i + 1,
        }
    }

    /// An item directly after `pub` (and after any visibility restriction).
    fn pub_item(
        &mut self,
        i: usize,
        owner: Option<&str>,
        attr_line: Option<u32>,
        exported: bool,
    ) -> usize {
        match self.ident(i) {
            Some("struct" | "enum" | "union" | "trait") => {
                self.type_item(i, owner, attr_line, exported)
            }
            Some("fn") => self.fn_item(i, owner),
            Some("unsafe" | "const" | "async") => self.pub_item(i + 1, owner, attr_line, exported),
            _ => i + 1,
        }
    }

    /// A type declaration (`struct`/`enum`/`union`/`trait`), possibly
    /// exported. Records D014 candidates and counter fields.
    fn type_item(
        &mut self,
        i: usize,
        _owner: Option<&str>,
        attr_line: Option<u32>,
        exported: bool,
    ) -> usize {
        let keyword_line = self.line(i);
        let Some(type_name) = self.ident(i + 1).map(str::to_string) else {
            return i + 1;
        };
        let mut j = self.skip_generics(i + 2);
        // Tuple struct `(…)` / where clauses: scan to the item body `{`
        // or terminating `;` at this nesting level.
        let mut body: Option<(usize, usize)> = None;
        while j < self.tokens.len() {
            if self.punct(j, '(') {
                j = lints::match_bracket(self.tokens, j, '(', ')').map_or(j + 1, |e| e + 1);
                continue;
            }
            if self.punct(j, '<') {
                j = self.skip_generics(j);
                continue;
            }
            if self.punct(j, ';') {
                j += 1;
                break;
            }
            if self.punct(j, '{') {
                match lints::match_bracket(self.tokens, j, '{', '}') {
                    Some(close) => {
                        body = Some((j, close));
                        j = close + 1;
                    }
                    None => j = self.tokens.len(),
                }
                break;
            }
            j += 1;
        }

        if exported
            && self.ctx.kind == FileKind::Lib
            && lints::is_sim_crate(self.ctx.crate_name)
            && !(self.in_test)(keyword_line)
        {
            let anchor = attr_line.unwrap_or(keyword_line);
            let documented = anchor > 0 && self.lexed.doc_lines.contains(&(anchor - 1));
            self.out.types.push(TypeSummary {
                name: type_name.clone(),
                line: keyword_line,
                documented,
            });
        }

        // Counter-field registry: unsigned integer fields of structs
        // named `*Stats` / `*Counters`.
        if (type_name.ends_with("Stats") || type_name.ends_with("Counters"))
            && self.ident(i) == Some("struct")
        {
            if let Some((open, close)) = body {
                let mut k = open + 1;
                while k < close {
                    // Field pattern at depth 1: [pub[(…)]] name : Type
                    if self.ident(k) == Some("pub") {
                        k += 1;
                        if self.punct(k, '(') {
                            k = lints::match_bracket(self.tokens, k, '(', ')')
                                .map_or(k + 1, |e| e + 1);
                        }
                        continue;
                    }
                    if let Some(field) = self.ident(k) {
                        if self.punct(k + 1, ':')
                            && matches!(
                                self.ident(k + 2),
                                Some("u8" | "u16" | "u32" | "u64" | "u128" | "usize")
                            )
                        {
                            self.out.counter_fields.push(field.to_string());
                        }
                    }
                    // Advance to the comma at depth 1.
                    let mut depth = 0usize;
                    k += 1;
                    while k < close {
                        match &self.tokens[k].tok {
                            Tok::Punct('{' | '(' | '[' | '<') => depth += 1,
                            Tok::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
                            Tok::Punct('>') if depth > 0 => depth -= 1,
                            Tok::Punct(',') if depth == 0 => {
                                k += 1;
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
        }

        // Trait bodies contain fn signatures/default bodies; walk them.
        if self.ident(i) == Some("trait") {
            if let Some((open, close)) = body {
                self.items(open + 1, close, None);
            }
        }
        j
    }

    /// An `impl` block: find the implemented type, recurse with `owner`.
    fn impl_item(&mut self, i: usize) -> usize {
        let mut j = self.skip_generics(i + 1);
        // Path up to `for` (trait impl) or `{`; the owner type is the last
        // path segment before the body, after `for` when present.
        let mut last_ident: Option<String> = None;
        let mut owner: Option<String> = None;
        while j < self.tokens.len() {
            if let Some(id) = self.ident(j) {
                if id == "for" {
                    owner = None; // everything before `for` was the trait
                    j += 1;
                    continue;
                }
                last_ident = Some(id.to_string());
                owner = last_ident.clone();
                j += 1;
                continue;
            }
            if self.punct(j, '<') {
                j = self.skip_generics(j);
                continue;
            }
            if self.punct(j, '{') {
                let close = match lints::match_bracket(self.tokens, j, '{', '}') {
                    Some(c) => c,
                    None => return self.tokens.len(),
                };
                let owner = owner.or(last_ident);
                self.items(j + 1, close, owner.as_deref());
                return close + 1;
            }
            if self.punct(j, ';') {
                return j + 1;
            }
            j += 1;
        }
        j
    }

    /// A `fn` item: signature facts plus a body scan for calls,
    /// allocations, discards, counter ops, and D011 sites.
    fn fn_item(&mut self, i: usize, owner: Option<&str>) -> usize {
        let fn_line = self.line(i);
        let Some(name) = self.ident(i + 1).map(str::to_string) else {
            return i + 1;
        };
        // Signature: up to the body `{` or declaration-terminating `;`.
        let mut j = i + 2;
        let mut arrow_at: Option<usize> = None;
        let mut body: Option<(usize, usize)> = None;
        while j < self.tokens.len() {
            if self.punct(j, '(') || self.punct(j, '[') {
                let (o, c) = if self.punct(j, '(') { ('(', ')') } else { ('[', ']') };
                j = lints::match_bracket(self.tokens, j, o, c).map_or(j + 1, |e| e + 1);
                continue;
            }
            if self.punct(j, '<') {
                j = self.skip_generics(j);
                continue;
            }
            if self.punct(j, '-') && self.punct(j + 1, '>') {
                arrow_at = Some(j);
                j += 2;
                continue;
            }
            if self.punct(j, ';') {
                j += 1;
                break;
            }
            if self.punct(j, '{') {
                match lints::match_bracket(self.tokens, j, '{', '}') {
                    Some(close) => {
                        body = Some((j, close));
                        j = close + 1;
                    }
                    None => j = self.tokens.len(),
                }
                break;
            }
            j += 1;
        }
        let returns_result = match (arrow_at, body) {
            (Some(a), Some((open, _))) => (a..open)
                .any(|k| matches!(self.ident(k), Some("Result" | "SimResult" | "IoResult"))),
            (Some(a), None) => {
                (a..j).any(|k| matches!(self.ident(k), Some("Result" | "SimResult" | "IoResult")))
            }
            _ => false,
        };

        let mut f = FnSummary {
            name,
            owner: owner.map(str::to_string),
            line: fn_line,
            is_hot: false,
            is_cold: false,
            returns_result,
            calls: Vec::new(),
            allocs: Vec::new(),
        };
        if let Some((open, close)) = body {
            self.scan_body(open + 1, close, &mut f);
        }
        self.out.fns.push(f);
        j
    }

    /// Scan a function body for call sites, allocations, discards,
    /// counter subtractions, and order-sensitive float reductions.
    fn scan_body(&mut self, start: usize, end: usize, f: &mut FnSummary) {
        let sim_lib = lints::is_sim_crate(self.ctx.crate_name) && self.ctx.kind == FileKind::Lib;
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            let line = t.line;
            let tested = (self.in_test)(line);
            let Some(name) = self.ident(i).map(str::to_string) else {
                i += 1;
                continue;
            };
            let name = name.as_str();

            // Nested `fn` definition: its name token is not a call.
            if name == "fn" {
                i += 2;
                continue;
            }

            // Allocation sites (shared detector with D009).
            if !tested {
                if let Some(what) = lints::alloc_at(self.tokens, i) {
                    f.allocs.push(AllocSite { line, what });
                }
            }

            // `let _ = <expr>;` — record the final top-level call.
            if !tested && name == "let" && self.ident(i + 1) == Some("_") && self.punct(i + 2, '=')
            {
                if let Some((callee, qual, stmt_end)) = self.final_call_of_stmt(i + 3, end) {
                    self.out.discards.push(Discard {
                        line,
                        callee,
                        qualifier: qual,
                        kind: DiscardKind::LetUnderscore,
                    });
                    i = stmt_end;
                    continue;
                }
            }

            // Call detection: `name(`, `qual::name(`, `.name(`, and
            // turbofish `name::<..>(`.
            let is_call = !KEYWORDS.contains(&name)
                && !self.punct(i + 1, '!') // macro
                && (self.punct(i + 1, '(')
                    || (self.punct(i + 1, ':')
                        && self.punct(i + 2, ':')
                        && self.punct(i + 3, '<')
                        && self.punct(self.skip_generics(i + 3), '(')));
            if is_call {
                let method = self.punct(i.wrapping_sub(1), '.');
                let qualifier = if !method
                    && self.punct(i.wrapping_sub(1), ':')
                    && self.punct(i.wrapping_sub(2), ':')
                {
                    self.ident(i.wrapping_sub(3)).map(str::to_string)
                } else {
                    None
                };
                if !tested {
                    f.calls.push(Call { name: name.to_string(), qualifier, method, line });
                }

                // `<call>.ok();` — fallible result downgraded and dropped.
                if !tested && name == "ok" && method && self.punct(i + 1, '(') {
                    if let Some(close) = lints::match_bracket(self.tokens, i + 1, '(', ')') {
                        if self.punct(close + 1, ';') {
                            if let Some((callee, qual)) = self.call_before(i.wrapping_sub(1)) {
                                self.out.discards.push(Discard {
                                    line,
                                    callee,
                                    qualifier: qual,
                                    kind: DiscardKind::OkDropped,
                                });
                            }
                        }
                    }
                }
            }

            // D011: order-sensitive float reductions (sim-crate lib code).
            if sim_lib && !tested {
                self.check_d011(i, name, line);
            }

            // D012 candidate: `.field -= …` / `.field - …` (not `->`).
            if !tested
                && sim_lib
                && self.punct(i.wrapping_sub(1), '.')
                && self.punct(i + 1, '-')
                && !self.punct(i + 2, '>')
            {
                let op = if self.punct(i + 2, '=') { "-=" } else { "-" };
                self.out.counter_ops.push(CounterOp { line, field: name.to_string(), op });
            }

            i += 1;
        }
    }

    /// D011 at one token: `.sum::<f64>()` / `.product::<f64>()`
    /// turbofished to a float, or `.fold(<float literal>, …)`.
    fn check_d011(&mut self, i: usize, name: &str, line: u32) {
        if !self.punct(i.wrapping_sub(1), '.') {
            return;
        }
        let float_turbofish = matches!(name, "sum" | "product")
            && self.punct(i + 1, ':')
            && self.punct(i + 2, ':')
            && self.punct(i + 3, '<')
            && matches!(self.ident(i + 4), Some("f32" | "f64"));
        let float_fold = name == "fold"
            && self.punct(i + 1, '(')
            && matches!(
                self.tokens.get(i + 2).map(|t| &t.tok),
                Some(Tok::Number(n)) if n.contains('.') || n.ends_with("f32") || n.ends_with("f64")
            );
        if float_turbofish || float_fold {
            let what = if float_fold {
                format!(".{name}(<float>, …)")
            } else {
                format!(".{name}::<float>()")
            };
            self.out.local.push(LocalFinding {
                line,
                code: "D011",
                message: format!("order-sensitive float reduction `{what}`"),
            });
        }
    }

    /// The final top-level call of the statement starting at `i` (for
    /// `let _ = …;`): scan to the `;` at depth 0, remembering the last
    /// `name(` at depth 0. Returns `(callee, qualifier, index after ;)`.
    fn final_call_of_stmt(
        &self,
        start: usize,
        end: usize,
    ) -> Option<(String, Option<String>, usize)> {
        let mut depth = 0usize;
        let mut last: Option<(String, Option<String>)> = None;
        let mut i = start;
        while i < end {
            match &self.tokens[i].tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
                Tok::Punct(';') if depth == 0 => {
                    return last.map(|(c, q)| (c, q, i + 1));
                }
                Tok::Ident(name)
                    if depth == 0
                        && !KEYWORDS.contains(&name.as_str())
                        && self.punct(i + 1, '(')
                        && !self.punct(i.wrapping_sub(1), '!') =>
                {
                    let qualifier = if self.punct(i.wrapping_sub(1), ':')
                        && self.punct(i.wrapping_sub(2), ':')
                    {
                        self.ident(i.wrapping_sub(3)).map(str::to_string)
                    } else {
                        None
                    };
                    last = Some((name.clone(), qualifier));
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Walk left from `i` (which holds the `.` of `.ok()`) to the call
    /// whose result is being `.ok()`-ed: `name(…)` or `name::<..>(…)`
    /// directly before the dot.
    fn call_before(&self, dot: usize) -> Option<(String, Option<String>)> {
        if !self.punct(dot, '.') {
            return None;
        }
        let before = dot.checked_sub(1)?;
        if !self.punct(before, ')') {
            return None;
        }
        // Find the matching `(` by walking backwards.
        let mut depth = 0usize;
        let mut j = before;
        loop {
            match &self.tokens[j].tok {
                Tok::Punct(')') => depth += 1,
                Tok::Punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        let callee_at = j.checked_sub(1)?;
        let name = self.ident(callee_at)?;
        if KEYWORDS.contains(&name) {
            return None;
        }
        let qualifier = if self.punct(callee_at.wrapping_sub(1), ':')
            && self.punct(callee_at.wrapping_sub(2), ':')
        {
            self.ident(callee_at.wrapping_sub(3)).map(str::to_string)
        } else {
            None
        };
        Some((name.to_string(), qualifier))
    }
}
