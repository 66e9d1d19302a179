//! The simulator invariant catalog (D001–D009) and the token-level
//! checks that enforce it.
//!
//! Every lint exists to protect one property: **bit-determinism** of the
//! simulation results. The parallel [`Pipeline`] executor's correctness
//! claim ("bit-identical to serial execution") and every figure driver
//! built on it assume that a run is a pure function of `(SystemConfig,
//! WorkloadProfile, RunOpts)`. These lints make the assumptions that
//! claim rests on mechanically checkable.
//!
//! [`Pipeline`]: ../asd_sim/pipeline/struct.Pipeline.html

use crate::lexer::{Lexed, Tok, Token};

/// Which kind of source file is being linted; several lints scope by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `crates/<c>/src` (excluding `bin/` and
    /// `main.rs`).
    Lib,
    /// Binary code (`src/main.rs`, `src/bin/**`).
    Bin,
    /// Bench harness code under `benches/`.
    Bench,
    /// Example code under `examples/`.
    Example,
    /// Test code (`crates/<c>/tests/**` or the workspace `tests/`).
    Test,
}

/// Per-file context handed to the checks.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Workspace-relative path, `/`-separated (for findings).
    pub path: &'a str,
    /// Short crate name (`core`, `mc`, ... — without the `asd-` prefix).
    pub crate_name: &'a str,
    /// File classification.
    pub kind: FileKind,
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint code (`D001`...).
    pub code: &'static str,
    /// What was found.
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} {} — {}", self.path, self.line, self.code, self.message, self.hint)
    }
}

/// Catalog entry: one row of the DESIGN.md lint table.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Lint code.
    pub code: &'static str,
    /// One-line rule statement.
    pub rule: &'static str,
}

/// The full catalog, in code order (D000 is the meta-lint for malformed
/// suppression directives).
pub const CATALOG: [LintInfo; 15] = [
    LintInfo { code: "D000", rule: "suppression directives must be well-formed, known, and used" },
    LintInfo { code: "D001", rule: "no wall-clock (`Instant`/`SystemTime`) in simulation crates" },
    LintInfo { code: "D002", rule: "no default-hasher `HashMap`/`HashSet` in simulation state" },
    LintInfo { code: "D003", rule: "randomness only via `asd_core::rng` (no `rand` crate)" },
    LintInfo { code: "D004", rule: "no `static mut` / mutable globals in simulation crates" },
    LintInfo { code: "D005", rule: "no `unwrap`/`expect`/panicking macros in library code" },
    LintInfo { code: "D006", rule: "crate roots carry the canonical lint-header block" },
    LintInfo { code: "D007", rule: "crate dependencies follow the workspace layering" },
    LintInfo {
        code: "D008",
        rule: "no front-of-`Vec` shifting (`.remove(0)`/`.insert(0, _)`) in simulation crates",
    },
    LintInfo { code: "D009", rule: "no heap allocation in functions marked `// asd-lint: hot`" },
    LintInfo {
        code: "D010",
        rule: "no heap allocation transitively reachable from a hot-path function (call graph)",
    },
    LintInfo {
        code: "D011",
        rule: "no order-sensitive float reductions (`.sum::<f64>()`, float `fold`) in sim crates",
    },
    LintInfo {
        code: "D012",
        rule: "no unchecked subtraction on sim-state counter fields (`*Stats`/`*Counters`)",
    },
    LintInfo {
        code: "D013",
        rule: "no silently discarded `Result` from fallible workspace calls in library code",
    },
    LintInfo {
        code: "D014",
        rule: "exported sim types carry doc comments stating their invariants",
    },
];

/// The canonical one-line fix hint for each lint code. Findings carry the
/// hint by value so renderers (text, SARIF) need no lookup, but cached
/// and parse-level findings are reconstituted through this table.
pub fn hint_for(code: &str) -> &'static str {
    match code {
        "D000" => "use `// asd-lint: allow(Dxxx) -- reason` with a nonempty reason, a known code, and a matching finding",
        "D001" => "simulated time comes from asd_core::clock cycle counts; wall-clock reads are nondeterministic",
        "D002" => "iteration order depends on hasher seed; use BTreeMap/BTreeSet or allow(D002) with a proof that order is unobservable",
        "D003" => "use the seeded asd_core::rng::SmallRng so every run is reproducible from RunOpts::seed",
        "D004" => "globals leak state between runs and break run-to-run determinism; thread state through the owning struct",
        "D005" => "return a typed error (e.g. asd_sim::SimError / asd_core::ConfigError), or allow(D005) with the invariant that makes this unreachable",
        "D006" => "every crate root carries the same three-line header block (see DESIGN.md, D006)",
        "D007" => "dependency direction is core/telemetry <- {trace,dram} <- {traceio,cache,cpu,mc} <- engines <- sim <- bench; invert the reference or move the code down a layer",
        "D008" => "index-0 remove/insert memmoves the whole Vec every call; use a ring buffer (VecDeque) or push/swap at the back, or allow(D008) with why this path is cold",
        "D009" => "functions marked `// asd-lint: hot` run per simulated cycle; reuse a buffer owned by the struct, or allow(D009) with why this branch is cold",
        "D010" => "this function is reachable from a `// asd-lint: hot` marker through the call graph; hoist the buffer to the owning struct, mark the callee `// asd-lint: cold` if it runs off-cycle, or allow(D010) at the allocation with why the path is cold",
        "D011" => "float addition is not associative, so the reduced value depends on iteration order; pin the order (sorted/slice iteration) and allow(D011) with the ordering argument, or restructure",
        "D012" => "an underflowing counter panics in debug and wraps in release — two different results; use saturating_sub/checked_sub/wrapping_sub, or allow(D012) with why underflow is impossible",
        "D013" => "a dropped Result hides sim-state corruption; propagate with `?`, handle the error, or allow(D013) with why failure is benign here",
        "D014" => "exported simulation types document the invariants callers rely on; add a doc comment (see DESIGN.md, D014)",
        _ => "see the lint catalog in DESIGN.md",
    }
}

/// The deterministic-simulation crates D001/D002/D004 scope to. `bench`
/// is excluded (its whole purpose is wall-clock timing) and `lint` is
/// included (this tool polices itself).
pub const SIM_CRATES: [&str; 12] = [
    "core",
    "telemetry",
    "cache",
    "cpu",
    "dram",
    "mc",
    "trace",
    "traceio",
    "engines",
    "sim",
    "serve",
    "lint",
];

/// Workspace layering: each crate may depend only on the crates listed
/// for it (plus itself, for tests/benches/examples of that crate).
/// Direction: `core`/`telemetry` ← {`trace`,`dram`} ←
/// {`traceio`,`cache`,`cpu`,`mc`} ← `engines` ← `sim` ← `bench` ←
/// `serve`; `lint` depends on nothing. `telemetry` sits beside `core` at the bottom so
/// every sim crate can carry instruments; `engines` (the prefetcher zoo)
/// sits between `mc` (whose `PrefetchEngine` trait it implements) and
/// `sim` (whose registry resolves zoo engines by name).
pub const LAYERS: [(&str, &[&str]); 13] = [
    ("core", &[]),
    ("telemetry", &["core"]),
    ("trace", &["core", "telemetry"]),
    ("dram", &["core", "telemetry"]),
    ("traceio", &["core", "telemetry", "trace"]),
    ("cache", &["core", "telemetry", "trace"]),
    ("cpu", &["core", "telemetry", "trace", "cache"]),
    ("mc", &["core", "telemetry", "trace", "dram"]),
    ("engines", &["core", "telemetry", "trace", "dram", "mc"]),
    ("sim", &["core", "telemetry", "trace", "traceio", "dram", "cache", "cpu", "mc", "engines"]),
    (
        "bench",
        &["core", "telemetry", "trace", "traceio", "dram", "cache", "cpu", "mc", "engines", "sim"],
    ),
    (
        "serve",
        &[
            "core",
            "telemetry",
            "trace",
            "traceio",
            "dram",
            "cache",
            "cpu",
            "mc",
            "engines",
            "sim",
            "bench",
        ],
    ),
    ("lint", &[]),
];

/// The canonical crate-root header block D006 requires, verbatim.
pub const CANONICAL_HEADER: [&str; 3] =
    ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]", "#![warn(rust_2018_idioms)]"];

fn allowed_deps(crate_name: &str) -> Option<&'static [&'static str]> {
    LAYERS.iter().find(|(n, _)| *n == crate_name).map(|(_, deps)| *deps)
}

/// Whether `name` is one of the deterministic-simulation crates the
/// scoped lints apply to.
pub fn is_sim_crate(name: &str) -> bool {
    SIM_CRATES.contains(&name)
}

/// Analyze one file end to end: token-level lints, the item parser's
/// local lints (D011/D014), the single-file slice of the graph lints
/// (D010/D012/D013 over this file's own call graph), suppression
/// directives, and directive hygiene (D000). Equivalent to running
/// [`crate::semantic::analyze`] over a one-file workspace; the
/// whole-workspace driver is [`crate::run_workspace`].
pub fn check_file(ctx: FileContext<'_>, lexed: &Lexed) -> Vec<Finding> {
    let summary = crate::parse::summarize(ctx, lexed);
    crate::semantic::analyze(&[summary])
}

/// Run every token-level lint (D001–D009) on one lexed file, with **no**
/// suppression applied: the semantic pass owns allow application so that
/// graph-lint findings participate in stale-directive detection.
pub fn local_findings(ctx: FileContext<'_>, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let test_regions = test_regions(tokens);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| a <= line && line <= b);

    let mut findings = Vec::new();
    check_d001(&ctx, tokens, &mut findings);
    check_d002(&ctx, tokens, &in_test, &mut findings);
    check_d003(&ctx, tokens, &mut findings);
    check_d004(&ctx, tokens, &mut findings);
    check_d005(&ctx, tokens, &in_test, &mut findings);
    if ctx.kind == FileKind::Lib && ctx.path.ends_with("/src/lib.rs") {
        check_d006(&ctx, tokens, &mut findings);
    }
    check_d007_source(&ctx, tokens, &mut findings);
    check_d008(&ctx, tokens, &in_test, &mut findings);
    check_d009(&ctx, tokens, &lexed.hots, &in_test, &mut findings);
    findings
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Find the index of the token closing the bracket opened at `open`
/// (which must hold `open_c`), honouring nesting. Returns `None` on
/// unbalanced input.
pub(crate) fn match_bracket(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Punct(c) if *c == open_c => depth += 1,
            Tok::Punct(c) if *c == close_c => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Line ranges covered by `#[cfg(test)]` items (modules, functions, use
/// declarations). `#[cfg(not(test))]` does not count.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(punct_at(tokens, i, '#') && punct_at(tokens, i + 1, '[')) {
            i += 1;
            continue;
        }
        let Some(end) = match_bracket(tokens, i + 1, '[', ']') else {
            break;
        };
        if !attr_is_cfg_test(&tokens[i + 2..end]) {
            i = end + 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes on the same item.
        let mut j = end + 1;
        while punct_at(tokens, j, '#') && punct_at(tokens, j + 1, '[') {
            match match_bracket(tokens, j + 1, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // The item body: up to the matching `}` of its first brace, or to
        // a `;` for brace-less items.
        let mut end_line = start_line;
        while let Some(t) = tokens.get(j) {
            match &t.tok {
                Tok::Punct(';') => {
                    end_line = t.line;
                    break;
                }
                Tok::Punct('{') => {
                    if let Some(close) = match_bracket(tokens, j, '{', '}') {
                        end_line = tokens[close].line;
                        j = close;
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

/// Does this attribute token slice (the inside of `#[...]`) mean
/// "compiled only under test"?
fn attr_is_cfg_test(attr: &[Token]) -> bool {
    let has_cfg = attr.iter().any(|t| matches!(&t.tok, Tok::Ident(s) if s == "cfg"));
    if !has_cfg {
        return false;
    }
    for (k, t) in attr.iter().enumerate() {
        if let Tok::Ident(s) = &t.tok {
            if s == "test" {
                // Reject `not(test)`: look back past the opening paren.
                let negated = k >= 2
                    && matches!(&attr[k - 1].tok, Tok::Punct('('))
                    && matches!(&attr[k - 2].tok, Tok::Ident(n) if n == "not");
                if !negated {
                    return true;
                }
            }
        }
    }
    false
}

fn push(
    findings: &mut Vec<Finding>,
    ctx: &FileContext<'_>,
    line: u32,
    code: &'static str,
    message: String,
    hint: &'static str,
) {
    findings.push(Finding { path: ctx.path.to_string(), line, code, message, hint });
}

/// D001: wall-clock sources in simulation crates.
fn check_d001(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !is_sim_crate(ctx.crate_name) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if let Some(name @ ("Instant" | "SystemTime")) = ident_at(tokens, i) {
            push(
                findings,
                ctx,
                t.line,
                "D001",
                format!("wall-clock type `{name}` in a simulation crate"),
                "simulated time comes from asd_core::clock cycle counts; wall-clock reads are nondeterministic",
            );
        }
    }
}

/// D002: default-hasher maps in simulation state.
fn check_d002(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !is_sim_crate(ctx.crate_name) || ctx.kind != FileKind::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if let Some(name @ ("HashMap" | "HashSet")) = ident_at(tokens, i) {
            if !in_test(t.line) {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D002",
                    format!("default-hasher `{name}` in simulation state"),
                    "iteration order depends on hasher seed; use BTreeMap/BTreeSet or allow(D002) with a proof that order is unobservable",
                );
            }
        }
    }
}

/// D003: the `rand` crate (or OS entropy) must not come back; all
/// randomness goes through the seeded `asd_core::rng`.
fn check_d003(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident_at(tokens, i) else { continue };
        let flagged = match name {
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom" => true,
            "rand" => {
                punct_at(tokens, i + 1, ':')
                    || ident_at(tokens, i.wrapping_sub(1)) == Some("crate")
                    || (ident_at(tokens, i.wrapping_sub(1)) == Some("use")
                        && punct_at(tokens, i + 1, ';'))
            }
            _ => false,
        };
        if flagged {
            push(
                findings,
                ctx,
                t.line,
                "D003",
                format!("unseeded/external randomness via `{name}`"),
                "use the seeded asd_core::rng::SmallRng so every run is reproducible from RunOpts::seed",
            );
        }
    }
}

/// D004: mutable global state in simulation crates.
fn check_d004(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !is_sim_crate(ctx.crate_name) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if ident_at(tokens, i) == Some("static") && ident_at(tokens, i + 1) == Some("mut") {
            push(
                findings,
                ctx,
                t.line,
                "D004",
                "`static mut` global in a simulation crate".to_string(),
                "globals leak state between runs and break run-to-run determinism; thread state through the owning struct",
            );
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// D005: panicking escape hatches in non-test library code.
fn check_d005(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };
        let method_call = matches!(name, "unwrap" | "expect")
            && punct_at(tokens, i.wrapping_sub(1), '.')
            && punct_at(tokens, i + 1, '(');
        let panic_macro = PANIC_MACROS.contains(&name) && punct_at(tokens, i + 1, '!');
        if method_call || panic_macro {
            let what = if method_call { format!(".{name}()") } else { format!("{name}!") };
            push(
                findings,
                ctx,
                t.line,
                "D005",
                format!("`{what}` in non-test library code"),
                "return a typed error (e.g. asd_sim::SimError / asd_core::ConfigError), or allow(D005) with the invariant that makes this unreachable",
            );
        }
    }
}

/// D006: crate roots must carry the canonical header block.
fn check_d006(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    // Collect the ident sets of all inner attributes `#![...]`.
    let mut groups: Vec<Vec<String>> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if punct_at(tokens, i, '#') && punct_at(tokens, i + 1, '!') && punct_at(tokens, i + 2, '[')
        {
            if let Some(end) = match_bracket(tokens, i + 2, '[', ']') {
                groups.push(
                    tokens[i + 3..end]
                        .iter()
                        .filter_map(|t| match &t.tok {
                            Tok::Ident(s) => Some(s.clone()),
                            _ => None,
                        })
                        .collect(),
                );
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    let required: [(&str, &str, &str); 3] = [
        ("forbid", "unsafe_code", "#![forbid(unsafe_code)]"),
        ("warn", "missing_docs", "#![warn(missing_docs)]"),
        ("warn", "rust_2018_idioms", "#![warn(rust_2018_idioms)]"),
    ];
    for (level, lint, text) in required {
        let present =
            groups.iter().any(|g| g.iter().any(|s| s == level) && g.iter().any(|s| s == lint));
        if !present {
            push(
                findings,
                ctx,
                1,
                "D006",
                format!("crate root is missing `{text}`"),
                "every crate root carries the same three-line header block (see DESIGN.md, D006)",
            );
        }
    }
}

/// D007 (source half): `asd_*` references must respect the layer map.
fn check_d007_source(ctx: &FileContext<'_>, tokens: &[Token], findings: &mut Vec<Finding>) {
    let Some(allowed) = allowed_deps(ctx.crate_name) else {
        if ctx.crate_name.is_empty() {
            return;
        }
        push(
            findings,
            ctx,
            1,
            "D007",
            format!("crate `{}` is not in the workspace layer map", ctx.crate_name),
            "add it to LAYERS in crates/lint/src/lints.rs with an explicit allowed-dependency list",
        );
        return;
    };
    let mut seen: Vec<&str> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident_at(tokens, i) else { continue };
        let Some(dep) = name.strip_prefix("asd_") else { continue };
        if dep == ctx.crate_name || seen.contains(&dep) {
            continue;
        }
        // Only idents naming real workspace crates count — `asd_`-prefixed
        // test/function names are not references. New crates are caught by
        // the manifest half (unknown crates fail the layer-map check).
        if allowed_deps(dep).is_none() {
            continue;
        }
        if !allowed.contains(&dep) {
            seen.push(dep);
            push(
                findings,
                ctx,
                t.line,
                "D007",
                format!("crate `{}` must not depend on `asd_{dep}`", ctx.crate_name),
                "dependency direction is core/telemetry <- {trace,dram} <- {traceio,cache,cpu,mc} <- engines <- sim <- bench; invert the reference or move the code down a layer",
            );
        }
    }
}

/// D008: front-of-`Vec` shifting in the simulation hot path. `.remove(0)`
/// and `.insert(0, value)` on a `Vec` are O(len) memmoves; inside the
/// per-cycle kernel loops they turn O(1) queue operations into quadratic
/// scans (the pre-calendar completion queue did exactly this). Flagged on
/// a literal-`0` index in non-test library code of simulation crates;
/// ring buffers (`VecDeque`) or back-of-vec layouts are the fix, and a
/// genuine cold-path use can carry `// asd-lint: allow(D008) -- reason`.
fn check_d008(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !is_sim_crate(ctx.crate_name) || ctx.kind != FileKind::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let Some(name @ ("remove" | "insert")) = ident_at(tokens, i) else { continue };
        // `.remove(` / `.insert(` followed by a literal zero index.
        if !(punct_at(tokens, i.wrapping_sub(1), '.') && punct_at(tokens, i + 1, '(')) {
            continue;
        }
        let Some(Tok::Number(text)) = tokens.get(i + 2).map(|t| &t.tok) else { continue };
        if !number_is_zero(text) {
            continue;
        }
        // `remove(0)` ends the call; `insert(0,` takes the shifted value.
        let closes = match name {
            "remove" => punct_at(tokens, i + 3, ')'),
            _ => punct_at(tokens, i + 3, ','),
        };
        if closes {
            push(
                findings,
                ctx,
                t.line,
                "D008",
                format!("front-of-Vec shift `.{name}(0{})`", if name == "remove" { "" } else { ", _" }),
                "index-0 remove/insert memmoves the whole Vec every call; use a ring buffer (VecDeque) or push/swap at the back, or allow(D008) with why this path is cold",
            );
        }
    }
}

/// D009: heap allocation inside a hot-path function. Functions marked
/// with `// asd-lint: hot` are the per-cycle kernel of the simulator —
/// scheduler scans, controller stages, the event loop. An allocation
/// there (`Box::new`, `Vec::new`, `vec![...]`, `.collect()`,
/// `.to_vec()`) runs millions of times per figure; buffers belong in the
/// owning struct, reused across cycles. The marker anchors the scan to
/// the next `fn` item's body; a deliberate cold-path allocation inside
/// one can carry `// asd-lint: allow(D009) -- reason`.
fn check_d009(
    ctx: &FileContext<'_>,
    tokens: &[Token],
    hots: &[u32],
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    if !is_sim_crate(ctx.crate_name) {
        return;
    }
    for &hot_line in hots {
        // The function the marker anchors to: the first `fn` at or below
        // the marker's line.
        let Some(fn_idx) = tokens
            .iter()
            .position(|t| t.line >= hot_line && matches!(&t.tok, Tok::Ident(s) if s == "fn"))
        else {
            continue;
        };
        // Its body: the first `{` after the signature, to its match.
        let Some(open) = (fn_idx..tokens.len()).find(|&j| punct_at(tokens, j, '{')) else {
            continue;
        };
        let Some(close) = match_bracket(tokens, open, '{', '}') else {
            continue;
        };
        for i in open..close {
            let t = &tokens[i];
            if in_test(t.line) {
                continue;
            }
            if let Some(what) = alloc_at(tokens, i) {
                push(
                    findings,
                    ctx,
                    t.line,
                    "D009",
                    format!("heap allocation `{what}` in a hot-path function"),
                    "functions marked `// asd-lint: hot` run per simulated cycle; reuse a buffer owned by the struct, or allow(D009) with why this branch is cold",
                );
            }
        }
    }
}

/// Recognise a heap-allocating construct at token `i`: `Box::new(` /
/// `Vec::new(` / `Vec::with_capacity(` / `Vec::from(`, `vec![…]`,
/// `.collect()` (turbofished or not), and `.to_vec()`. Shared between
/// D009's direct scan and the parser's per-function allocation sites
/// (which D010 resolves transitively).
pub(crate) fn alloc_at(tokens: &[Token], i: usize) -> Option<String> {
    let name = ident_at(tokens, i)?;
    match name {
        // `Box::new(` / `Vec::new(` (and `Vec::with_capacity(`).
        "Box" | "Vec" if punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, ':') => {
            match ident_at(tokens, i + 3) {
                Some(m @ ("new" | "with_capacity" | "from")) => Some(format!("{name}::{m}(...)")),
                _ => None,
            }
        }
        // `vec![...]`.
        "vec" if punct_at(tokens, i + 1, '!') => Some("vec![...]".to_string()),
        // `.collect(` / `.collect::<...>(` / `.to_vec(`.
        "collect" | "to_vec"
            if punct_at(tokens, i.wrapping_sub(1), '.')
                && (punct_at(tokens, i + 1, '(') || punct_at(tokens, i + 1, ':')) =>
        {
            Some(format!(".{name}()"))
        }
        _ => None,
    }
}

/// Is this number-literal text an integer zero? Handles `_` separators,
/// type suffixes (`0usize`, `0_u64`), and base prefixes (`0x0`, `0b00`).
fn number_is_zero(text: &str) -> bool {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let body = t
        .strip_prefix("0x")
        .or_else(|| t.strip_prefix("0o"))
        .or_else(|| t.strip_prefix("0b"))
        .unwrap_or(&t);
    let digits: String = body.chars().take_while(char::is_ascii_hexdigit).collect();
    !digits.is_empty() && digits.chars().all(|c| c == '0')
}

/// D007 (manifest half): check the `asd-*` dependency declarations of one
/// crate's `Cargo.toml` against the layer map. `manifest_path` is the
/// workspace-relative path used in findings.
pub fn check_manifest(crate_name: &str, manifest_path: &str, manifest: &str) -> Vec<Finding> {
    let ctx = FileContext { path: manifest_path, crate_name, kind: FileKind::Lib };
    let mut findings = Vec::new();
    let Some(allowed) = allowed_deps(crate_name) else {
        push(
            &mut findings,
            &ctx,
            1,
            "D007",
            format!("crate `{crate_name}` is not in the workspace layer map"),
            "add it to LAYERS in crates/lint/src/lints.rs with an explicit allowed-dependency list",
        );
        return findings;
    };
    let mut in_deps = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.starts_with("[dependencies")
                || line.starts_with("[dev-dependencies")
                || line.starts_with("[build-dependencies");
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(rest) = line.strip_prefix("asd-") {
            let dep: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if dep != crate_name && !allowed.contains(&dep.as_str()) {
                push(
                    &mut findings,
                    &ctx,
                    (idx + 1) as u32,
                    "D007",
                    format!("crate `{crate_name}` declares a dependency on `asd-{dep}`"),
                    "dependency direction is core/telemetry <- {trace,dram} <- {traceio,cache,cpu,mc} <- engines <- sim <- bench; invert the reference or move the code down a layer",
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(crate_name: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let path = format!("crates/{crate_name}/src/lib.rs");
        let lexed = lex(src);
        check_file(FileContext { path: &path, crate_name, kind }, &lexed)
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    const HEADER: &str =
        "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n#![warn(rust_2018_idioms)]\n";

    fn with_header(body: &str) -> String {
        format!("{HEADER}{body}")
    }

    #[test]
    fn d001_flags_wall_clock_in_sim_crate() {
        let f = lint("mc", FileKind::Lib, &with_header("use std::time::Instant;\n"));
        assert_eq!(codes(&f), ["D001"]);
        assert!(f[0].message.contains("Instant"));
    }

    #[test]
    fn d001_ignores_bench_crate() {
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
        let lexed = lex(src);
        let f = check_file(
            FileContext {
                path: "crates/bench/benches/figures.rs",
                crate_name: "bench",
                kind: FileKind::Bench,
            },
            &lexed,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d001_ignores_comments_and_strings() {
        let f = lint(
            "mc",
            FileKind::Lib,
            &with_header("// Instant is banned\nconst S: &str = \"SystemTime\";\n"),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d002_flags_hashmap_outside_tests() {
        let f = lint(
            "trace",
            FileKind::Lib,
            &with_header("use std::collections::HashMap;\nstruct S { m: HashMap<u64, u32> }\n"),
        );
        assert_eq!(codes(&f), ["D002", "D002"]);
    }

    #[test]
    fn d002_skips_cfg_test_modules() {
        let src = with_header(
            "struct S;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n",
        );
        let f = lint("trace", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d002_not_fooled_by_cfg_not_test() {
        let src =
            with_header("#[cfg(not(test))]\nmod real {\n    use std::collections::HashMap;\n}\n");
        let f = lint("trace", FileKind::Lib, &src);
        assert_eq!(codes(&f), ["D002"]);
    }

    #[test]
    fn d002_suppressed_with_reason() {
        let src = with_header(
            "// asd-lint: allow(D002) -- drained unordered into a sorted Vec before use\nstruct S { m: HashMap<u64, u32> }\n",
        );
        let f = lint("trace", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d003_flags_rand_reintroduction() {
        let f = lint("core", FileKind::Lib, &with_header("use rand::Rng;\n"));
        assert_eq!(codes(&f), ["D003"]);
        let f = lint("core", FileKind::Lib, &with_header("fn f() { let r = thread_rng(); }\n"));
        assert_eq!(codes(&f), ["D003"]);
    }

    #[test]
    fn d003_allows_in_tree_rng() {
        let f = lint(
            "trace",
            FileKind::Lib,
            &with_header(
                "use asd_core::rng::SmallRng;\nfn f(r: &mut SmallRng) { r.next_u64(); }\n",
            ),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d004_flags_static_mut() {
        let f = lint("cpu", FileKind::Lib, &with_header("static mut COUNTER: u64 = 0;\n"));
        assert_eq!(codes(&f), ["D004"]);
    }

    #[test]
    fn d004_not_fooled_by_static_lifetime() {
        let f = lint("cpu", FileKind::Lib, &with_header("fn f(x: &'static mut u8) {}\n"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d005_flags_unwrap_expect_panic() {
        let src = with_header(
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }\nfn h() { panic!(\"boom\"); }\n",
        );
        let f = lint("sim", FileKind::Lib, &src);
        assert_eq!(codes(&f), ["D005", "D005", "D005"]);
    }

    #[test]
    fn d005_ignores_unwrap_or_variants() {
        let src = with_header(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }\n",
        );
        let f = lint("sim", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d005_skips_tests_and_non_lib() {
        let src = with_header(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n",
        );
        assert!(lint("sim", FileKind::Lib, &src).is_empty());
        let lexed = lex("fn main() { std::env::args().next().unwrap(); }");
        let f = check_file(
            FileContext {
                path: "crates/bench/src/bin/figures.rs",
                crate_name: "bench",
                kind: FileKind::Bin,
            },
            &lexed,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d005_suppression_on_same_or_previous_line() {
        let same = with_header(
            "fn f(x: Option<u8>) -> u8 { x.expect(\"nonempty\") } // asd-lint: allow(D005) -- constructor guarantees Some\n",
        );
        assert!(lint("sim", FileKind::Lib, &same).is_empty());
        let above = with_header(
            "// asd-lint: allow(D005) -- constructor guarantees Some\nfn f(x: Option<u8>) -> u8 { x.expect(\"nonempty\") }\n",
        );
        assert!(lint("sim", FileKind::Lib, &above).is_empty());
    }

    #[test]
    fn d000_reports_reasonless_suppression() {
        let src =
            with_header("// asd-lint: allow(D005)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        let f = lint("sim", FileKind::Lib, &src);
        let mut c = codes(&f);
        c.sort_unstable();
        assert_eq!(c, ["D000", "D005"], "reasonless allow both fails and does not suppress");
    }

    #[test]
    fn d006_flags_missing_header_lines() {
        let f = lint("dram", FileKind::Lib, "#![forbid(unsafe_code)]\npub fn x() {}\n");
        assert_eq!(codes(&f), ["D006", "D006"]);
        assert!(f[0].message.contains("missing_docs"));
        assert!(f[1].message.contains("rust_2018_idioms"));
    }

    #[test]
    fn d006_accepts_canonical_header() {
        let f = lint("dram", FileKind::Lib, &with_header("pub fn x() {}\n"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d007_flags_upward_source_reference() {
        let f = lint("core", FileKind::Lib, &with_header("use asd_sim::RunOpts;\n"));
        assert_eq!(codes(&f), ["D007"]);
        let f = lint("trace", FileKind::Lib, &with_header("fn f() { asd_mc::x(); }\n"));
        assert_eq!(codes(&f), ["D007"]);
    }

    #[test]
    fn d007_accepts_downward_reference_and_self() {
        let f =
            lint("sim", FileKind::Lib, &with_header("use asd_core::Slh;\nuse asd_mc::McStats;\n"));
        assert!(f.is_empty(), "{f:?}");
        let lexed = lex("use asd_lint::run_workspace;\n");
        let f = check_file(
            FileContext { path: "tests/lint.rs", crate_name: "lint", kind: FileKind::Test },
            &lexed,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d007_ignores_asd_prefixed_non_crate_idents() {
        let src = with_header("fn asd_learns_streams() { let asd_cfg = 1; }\n");
        let f = lint("core", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d008_flags_front_of_vec_shifts() {
        let src = with_header(
            "fn f(v: &mut Vec<u8>) -> u8 { v.remove(0) }\nfn g(v: &mut Vec<u8>) { v.insert(0, 7); }\n",
        );
        let f = lint("mc", FileKind::Lib, &src);
        assert_eq!(codes(&f), ["D008", "D008"]);
        assert!(f[0].message.contains("remove"));
        assert!(f[1].message.contains("insert"));
    }

    #[test]
    fn d008_flags_suffixed_and_based_zeros() {
        let src = with_header(
            "fn f(v: &mut Vec<u8>) -> u8 { v.remove(0usize) }\nfn g(v: &mut Vec<u8>) -> u8 { v.remove(0x0) }\n",
        );
        assert_eq!(codes(&lint("sim", FileKind::Lib, &src)), ["D008", "D008"]);
    }

    #[test]
    fn d008_ignores_variable_and_nonzero_indices() {
        let src = with_header(
            "fn f(v: &mut Vec<u8>, i: usize) -> u8 { v.remove(i) }\nfn g(v: &mut Vec<u8>) -> u8 { v.remove(1) }\nfn h(v: &mut Vec<u8>) -> u8 { v.remove(0x10) }\nfn k(m: &mut std::collections::BTreeMap<u64, u8>) { m.remove(&0); }\n",
        );
        let f = lint("mc", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d008_scopes_to_sim_crate_lib_code() {
        let src = "fn f(v: &mut Vec<u8>) -> u8 { v.remove(0) }\n";
        // Bench crate: out of scope.
        let lexed = lex(src);
        let f = check_file(
            FileContext {
                path: "crates/bench/benches/figures.rs",
                crate_name: "bench",
                kind: FileKind::Bench,
            },
            &lexed,
        );
        assert!(f.is_empty(), "{f:?}");
        // Test code in a sim crate: out of scope.
        let in_test = with_header(
            "#[cfg(test)]\nmod tests {\n    fn t(v: &mut Vec<u8>) -> u8 { v.remove(0) }\n}\n",
        );
        assert!(lint("mc", FileKind::Lib, &in_test).is_empty());
    }

    #[test]
    fn d008_suppressed_with_reason() {
        let src = with_header(
            "// asd-lint: allow(D008) -- config parsing, runs once per process\nfn f(v: &mut Vec<u8>) -> u8 { v.remove(0) }\n",
        );
        assert!(lint("sim", FileKind::Lib, &src).is_empty());
    }

    #[test]
    fn d009_flags_allocation_in_hot_function() {
        let src = with_header(
            "// asd-lint: hot\nfn f(xs: &[u8]) -> Vec<u8> { xs.iter().copied().collect() }\n",
        );
        let f = lint("mc", FileKind::Lib, &src);
        assert_eq!(codes(&f), ["D009"]);
        assert!(f[0].message.contains("collect"));
    }

    #[test]
    fn d009_flags_box_vec_and_macro_allocations() {
        let src = with_header(
            "// asd-lint: hot\nfn f() { let a = Box::new(1); let b: Vec<u8> = Vec::new(); let c = vec![0u8; 4]; }\n",
        );
        let f = lint("sim", FileKind::Lib, &src);
        assert_eq!(codes(&f), ["D009", "D009", "D009"]);
    }

    #[test]
    fn d009_ignores_unmarked_functions_and_cold_code() {
        let src = with_header(
            "fn cold() -> Vec<u8> { Vec::new() }\n// asd-lint: hot\nfn hot(x: u64) -> u64 { x + 1 }\nfn later() -> Vec<u8> { vec![1] }\n",
        );
        let f = lint("mc", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d009_scan_stops_at_the_marked_functions_closing_brace() {
        // The allocation sits in the *next* function; the marker must not
        // bleed past the marked body.
        let src = with_header(
            "// asd-lint: hot\nfn hot() -> u64 { 7 }\nfn build() -> Vec<u8> { Vec::with_capacity(8) }\n",
        );
        let f = lint("sim", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d009_suppressed_with_reason() {
        let src = with_header(
            "// asd-lint: hot\nfn f(grow: bool, buf: &mut Vec<u8>) {\n    if grow {\n        // asd-lint: allow(D009) -- resize happens once per run, not per cycle\n        *buf = Vec::with_capacity(1024);\n    }\n}\n",
        );
        let f = lint("mc", FileKind::Lib, &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d009_scopes_to_sim_crates() {
        let src = "// asd-lint: hot\nfn f() -> Vec<u8> { Vec::new() }\n";
        let lexed = lex(src);
        let f = check_file(
            FileContext {
                path: "crates/bench/benches/figures.rs",
                crate_name: "bench",
                kind: FileKind::Bench,
            },
            &lexed,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d007_manifest_declarations_checked() {
        let bad =
            "[package]\nname = \"asd-core\"\n[dependencies]\nasd-sim = { workspace = true }\n";
        let f = check_manifest("core", "crates/core/Cargo.toml", bad);
        assert_eq!(codes(&f), ["D007"]);
        assert_eq!(f[0].line, 4);
        let good = "[package]\nname = \"asd-sim\"\n[dependencies]\nasd-core = { workspace = true }\nasd-mc = { workspace = true }\n";
        assert!(check_manifest("sim", "crates/sim/Cargo.toml", good).is_empty());
    }

    #[test]
    fn unknown_crate_is_a_layering_finding() {
        let f = check_manifest("newcrate", "crates/newcrate/Cargo.toml", "[dependencies]\n");
        assert_eq!(codes(&f), ["D007"]);
        assert!(f[0].message.contains("layer map"));
    }
}
