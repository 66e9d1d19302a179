//! # `asd-lint`: the workspace determinism & invariant linter
//!
//! A zero-dependency static-analysis pass over every simulator crate,
//! enforcing the invariants the paper's reproducibility rests on: the
//! parallel [`Pipeline`] executor promises results **bit-identical** to
//! serial execution, and every figure driver builds on that promise. The lints
//! (catalogued in [`lints::CATALOG`] and DESIGN.md) ban the ways that
//! promise could silently rot — wall-clock reads, hasher-ordered
//! iteration, unseeded randomness, mutable globals, panicking library
//! paths, missing crate-root lint headers, layering inversions, and (via
//! the semantic pass) transitive hot-path allocation, order-sensitive
//! float reductions, unchecked counter arithmetic, swallowed `Result`s,
//! and undocumented exported sim types.
//!
//! The pipeline is `lexer` → [`parse`] (per-file [`parse::FileSummary`]
//! digests, cacheable) → [`semantic`] (workspace symbol table, call
//! graph, graph lints, suppression). The [`cache`] module persists the
//! digests keyed by content hash, so a re-lint of an unchanged tree skips
//! lexing and parsing entirely; the semantic pass always recomputes, so
//! output is bit-identical with the cache hot, cold, or disabled.
//! [`output`] renders SARIF 2.1.0 and JSON for CI.
//!
//! Three entry points, one implementation:
//!
//! * `cargo run -p asd-lint` — the CLI, exits nonzero on any finding;
//! * `scripts/check.sh` — runs the CLI before the build;
//! * `tests/lint.rs` — a tier-1 `#[test]` wrapper, so `cargo test -q`
//!   catches regressions.
//!
//! Per-site suppression: `// asd-lint: allow(Dxxx) -- reason` on the
//! finding's line or the line directly above it. Reasonless, malformed,
//! unknown-code, or **stale** (matching no finding) directives are
//! themselves findings (D000).
//!
//! [`Pipeline`]: ../asd_sim/pipeline/struct.Pipeline.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod lexer;
pub mod lints;
pub mod output;
pub mod parse;
pub mod semantic;

pub use lints::{FileContext, FileKind, Finding, LintInfo, CATALOG};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of linting the whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by `(path, line, code)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crate manifests checked.
    pub manifests_checked: usize,
    /// Files whose summary was replayed from the incremental cache.
    pub cache_hits: usize,
    /// Files that were lexed and parsed fresh this run.
    pub cache_misses: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report the way the CLI prints it. Deliberately does
    /// not mention cache state: stdout must be bit-identical whether the
    /// cache was hot, cold, or disabled (`--stats` goes to stderr).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "asd-lint: {} finding(s) in {} files, {} manifests\n",
            self.findings.len(),
            self.files_scanned,
            self.manifests_checked
        ));
        out
    }
}

/// Ascend from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Lint the workspace with the incremental cache enabled (the default
/// entry point — equivalent to [`run_workspace_with`]`(root, true)`).
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    run_workspace_with(root, true)
}

/// Lint every `crates/*/src`, `crates/*/tests`, `crates/*/benches`,
/// workspace `tests/`, and workspace `examples/` file, plus every crate
/// manifest, under `root`. With `use_cache`, per-file summaries are
/// replayed from `target/asd-lint/` when the file is unchanged (size +
/// mtime, falling back to a content hash) and persisted after the run.
pub fn run_workspace_with(root: &Path, use_cache: bool) -> io::Result<Report> {
    let mut findings = Vec::new();
    let mut manifests_checked = 0usize;
    // Workspace-level [[test]]/[[example]] targets declared by a crate
    // with `path = "../../..."`: the declaring crate owns that file.
    let mut owners: Vec<(String, String)> = Vec::new();
    // (absolute path, workspace-relative path, crate, kind) per file.
    let mut units: Vec<(PathBuf, String, String, FileKind)> = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in &crate_dirs {
        let crate_name = match dir.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let manifest_path = dir.join("Cargo.toml");
        let Ok(manifest) = fs::read_to_string(&manifest_path) else {
            continue;
        };
        manifests_checked += 1;
        findings.extend(lints::check_manifest(&crate_name, &rel(root, &manifest_path), &manifest));
        for line in manifest.lines() {
            if let Some(p) = parse_workspace_target_path(line) {
                owners.push((p, crate_name.clone()));
            }
        }

        for (sub, base_kind) in
            [("src", FileKind::Lib), ("tests", FileKind::Test), ("benches", FileKind::Bench)]
        {
            for file in rs_files(&dir.join(sub))? {
                let rel_path = rel(root, &file);
                let kind = if base_kind == FileKind::Lib
                    && (rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs"))
                {
                    FileKind::Bin
                } else {
                    base_kind
                };
                units.push((file, rel_path, crate_name.clone(), kind));
            }
        }
    }

    for (sub, kind) in [("tests", FileKind::Test), ("examples", FileKind::Example)] {
        for file in rs_files(&root.join(sub))? {
            let rel_path = rel(root, &file);
            let crate_name = owners
                .iter()
                .find(|(p, _)| *p == rel_path)
                .map(|(_, c)| c.as_str())
                // Unclaimed workspace-level files default to the top
                // simulation crate.
                .unwrap_or("sim")
                .to_string();
            units.push((file, rel_path, crate_name, kind));
        }
    }

    // Per-file summaries: replayed from the cache when fresh, parsed
    // otherwise. The semantic pass below always runs over the full set,
    // so cross-file lints see every edit regardless of cache state.
    let mut store = if use_cache { cache::Store::load(root) } else { cache::Store::default() };
    let mut summaries: Vec<parse::FileSummary> = Vec::with_capacity(units.len());
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    for (file, rel_path, crate_name, kind) in &units {
        let stat = if use_cache { cache::stat_key(file) } else { None };
        let cached = stat.and_then(|(size, mtime_ns)| {
            store
                .lookup(rel_path, size, mtime_ns, || fs::read(file).ok().map(|b| cache::fnv1a(&b)))
                .cloned()
        });
        if let Some(summary) = cached {
            cache_hits += 1;
            summaries.push(summary);
            continue;
        }
        cache_misses += 1;
        let src = fs::read_to_string(file)?;
        let lexed = lexer::lex(&src);
        let summary =
            parse::summarize(FileContext { path: rel_path, crate_name, kind: *kind }, &lexed);
        if let Some((size, mtime_ns)) = stat {
            store.put(size, mtime_ns, cache::fnv1a(src.as_bytes()), summary.clone());
        }
        summaries.push(summary);
    }
    if use_cache && cache_misses > 0 {
        store.save(root);
    }

    findings.extend(semantic::analyze(&summaries));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    // Two identical constructs on one line (e.g. chained `.expect()`s)
    // produce identical findings; report each site once.
    findings.dedup();
    Ok(Report { findings, files_scanned: units.len(), manifests_checked, cache_hits, cache_misses })
}

/// `path = "../../tests/sweep.rs"` in a manifest target section →
/// `tests/sweep.rs`.
fn parse_workspace_target_path(line: &str) -> Option<String> {
    let trimmed = line.trim();
    let value = trimmed.strip_prefix("path")?.trim_start().strip_prefix('=')?.trim_start();
    let quoted = value.strip_prefix('"')?;
    let end = quoted.find('"')?;
    quoted[..end].strip_prefix("../../").map(str::to_string)
}

/// All `.rs` files under `dir`, recursively, sorted for deterministic
/// output. A missing directory is simply empty. Directories named
/// `lint_fixtures` hold the known-bad lint corpus and are never part of
/// the workspace scan.
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "lint_fixtures") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_target_path_parsing() {
        assert_eq!(
            parse_workspace_target_path("path = \"../../tests/sweep.rs\""),
            Some("tests/sweep.rs".to_string())
        );
        assert_eq!(parse_workspace_target_path("path = \"src/bin/figures.rs\""), None);
        assert_eq!(parse_workspace_target_path("name = \"sweep\""), None);
    }

    #[test]
    fn find_root_ascends() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn fixture_dirs_are_excluded_from_scans() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = rs_files(&root.join("tests")).expect("scan tests/");
        assert!(
            files.iter().all(|p| !p.to_string_lossy().contains("lint_fixtures")),
            "lint fixture corpus must not be linted as workspace code"
        );
    }
}
