//! Tier-1 wrapper around `asd-lint`: `cargo test -q` fails if any
//! determinism/invariant lint (D000–D009) regresses anywhere in the
//! workspace. The same pass runs as `cargo run -p asd-lint` and from
//! `scripts/check.sh`.
//!
//! Also pinned here, as tier-1 contracts of the linter itself:
//!
//! * exit-code semantics of the CLI (0 clean / 1 findings / 2 internal
//!   error), driven through the real binary;
//! * repeatability: two lints of one tree render the same bytes as text,
//!   JSON and SARIF;
//! * lexer span integrity over every `.rs` file in the workspace;
//! * SARIF exposition shape.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    asd_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

#[test]
fn workspace_is_lint_clean() {
    let report = asd_lint::run_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        report.is_clean(),
        "asd-lint found violations — fix them or suppress per-site with \
         `// asd-lint: allow(Dxxx) -- reason`:\n{}",
        report.render()
    );
}

#[test]
fn scan_covers_the_whole_tree() {
    // A lint pass that silently scanned nothing would also be "clean";
    // pin rough lower bounds so coverage loss is loud.
    let report = asd_lint::run_workspace(&workspace_root()).expect("scan workspace");
    assert!(report.files_scanned >= 60, "only {} files scanned", report.files_scanned);
    assert!(report.manifests_checked >= 9, "only {} manifests", report.manifests_checked);
}

#[test]
fn catalog_is_complete() {
    let codes: Vec<&str> = asd_lint::CATALOG.iter().map(|l| l.code).collect();
    assert_eq!(
        codes,
        ["D000", "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009"]
    );
}

// ---------------------------------------------------------------------
// Lexer span integrity over the whole tree
// ---------------------------------------------------------------------

fn all_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("tests"), root.join("examples")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name != "target" && name != "lint_fixtures" {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn lexer_spans_are_monotone_over_the_whole_workspace() {
    // Every token's span must be non-empty, in bounds, and strictly
    // after the previous token's span — for every source file we own.
    // A lexer desync (mis-tracked raw string, comment, or escape) shows
    // up here as overlapping or regressing spans.
    let root = workspace_root();
    let files = all_rs_files(&root);
    assert!(files.len() >= 60, "workspace walk found only {} files", files.len());
    for file in files {
        let src = std::fs::read_to_string(&file).expect("read source");
        let n_chars = src.chars().count() as u32;
        let lexed = asd_lint::lexer::lex(&src);
        let mut prev_end = 0u32;
        let mut prev_line = 1u32;
        for t in &lexed.tokens {
            assert!(t.start < t.end, "{}: empty span {}..{}", file.display(), t.start, t.end);
            assert!(
                t.end <= n_chars,
                "{}: span {}..{} out of bounds",
                file.display(),
                t.start,
                t.end
            );
            assert!(
                t.start >= prev_end,
                "{}: span {}..{} overlaps previous (ended {})",
                file.display(),
                t.start,
                t.end,
                prev_end
            );
            assert!(
                t.line >= prev_line,
                "{}: line numbers regressed at {}",
                file.display(),
                t.line
            );
            prev_end = t.end;
            prev_line = t.line;
        }
    }
}

// ---------------------------------------------------------------------
// Repeatability
// ---------------------------------------------------------------------

#[test]
fn two_lints_of_one_tree_render_the_same_bytes() {
    let root = workspace_root();
    let first = asd_lint::run_workspace(&root).expect("first scan");
    let second = asd_lint::run_workspace(&root).expect("second scan");
    assert_eq!(first.render(), second.render(), "text output differs");
    assert_eq!(asd_lint::output::to_json(&first), asd_lint::output::to_json(&second));
    assert_eq!(asd_lint::output::to_sarif(&first), asd_lint::output::to_sarif(&second));
}

// ---------------------------------------------------------------------
// CLI exit codes and machine-readable output, through the real binary
// ---------------------------------------------------------------------

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asd-lint"))
}

#[test]
fn exit_zero_on_clean_tree_and_sarif_is_well_formed() {
    let root = workspace_root();
    let out = lint_bin().arg("--format").arg("sarif").arg(&root).output().expect("run asd-lint");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
    let sarif = String::from_utf8(out.stdout).expect("sarif is utf-8");
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("sarif-schema-2.1.0"));
    assert!(sarif.contains("\"id\": \"D009\""), "rule catalog must list every code");
    assert!(sarif.contains("\"results\""));
}

#[test]
fn exit_one_on_findings() {
    // A scratch workspace with a deliberate D001 violation in a sim
    // crate: the binary must report it and exit 1.
    let dir = std::env::temp_dir().join(format!("asd-lint-exit1-{}", std::process::id()));
    let src_dir = dir.join("crates").join("sim").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch workspace");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/sim\"]\n")
        .expect("write root manifest");
    std::fs::write(
        dir.join("crates").join("sim").join("Cargo.toml"),
        "[package]\nname = \"asd-sim\"\nversion = \"0.0.0\"\nedition = \"2021\"\n",
    )
    .expect("write crate manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    )
    .expect("write violating source");

    let out = lint_bin().arg(&dir).output().expect("run asd-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "findings must exit 1; stdout:\n{stdout}");
    assert!(stdout.contains("D001"), "expected a D001 finding, got:\n{stdout}");
}

#[test]
fn exit_two_on_internal_errors() {
    // No workspace root above the given path -> internal error.
    let out = lint_bin().arg("/nonexistent-asd-lint-root").output().expect("run asd-lint");
    assert_eq!(out.status.code(), Some(2), "missing workspace root must exit 2");

    // Unknown flags and bad --format values are also internal errors,
    // never silently-clean exits.
    let out = lint_bin().arg("--format").arg("yaml").output().expect("run asd-lint");
    assert_eq!(out.status.code(), Some(2), "bad --format must exit 2");
    for flag in ["--bogus-flag", "--no-cache", "--stats"] {
        let out = lint_bin().arg(flag).output().expect("run asd-lint");
        assert_eq!(out.status.code(), Some(2), "unknown flag {flag} must exit 2");
    }
}
