//! Known-bad fixture corpus runner.
//!
//! Every `.rs` file in `tests/lint_fixtures/` at the workspace root is
//! one fixture. Fixture headers:
//!
//! ```text
//! //@ crate: <short crate name>
//! //@ kind: <lib|bin|test|bench|example>
//! //@ expect: D001@8, D000@5     (empty list = file must be clean)
//! ```
//!
//! Each file is lexed and run through [`lints::check_file`] under the
//! synthetic path `crates/<crate>/src/<filename>`, and its exact
//! `(code, line)` finding set is compared against its `expect` header.

use asd_lint::lexer;
use asd_lint::lints::{self, FileContext, FileKind};
use std::fs;
use std::path::{Path, PathBuf};

/// One fixture file: source plus parsed header fields.
struct Fixture {
    /// Synthetic workspace-relative path used in findings.
    path: String,
    crate_name: String,
    kind: FileKind,
    /// Expected `(code, line)` pairs.
    expect: Vec<(String, u32)>,
    source: String,
}

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_fixtures")
}

fn parse_kind(s: &str) -> FileKind {
    match s {
        "lib" => FileKind::Lib,
        "bin" => FileKind::Bin,
        "test" => FileKind::Test,
        "bench" => FileKind::Bench,
        "example" => FileKind::Example,
        other => panic!("fixture header names unknown kind `{other}`"),
    }
}

fn load_fixture(file: &Path) -> Fixture {
    let source =
        fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
    let mut crate_name = None;
    let mut kind = None;
    let mut expect = None;
    for line in source.lines() {
        let Some(field) = line.strip_prefix("//@ ") else {
            break; // headers are a contiguous prefix
        };
        if let Some(v) = field.strip_prefix("crate:") {
            crate_name = Some(v.trim().to_string());
        } else if let Some(v) = field.strip_prefix("kind:") {
            kind = Some(parse_kind(v.trim()));
        } else if let Some(v) = field.strip_prefix("expect:") {
            expect = Some(
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|pair| {
                        let (code, line) = pair.split_once('@').unwrap_or_else(|| {
                            panic!("bad expect entry `{pair}` in {}", file.display())
                        });
                        let n: u32 =
                            line.parse().unwrap_or_else(|e| panic!("bad line in `{pair}`: {e}"));
                        (code.to_string(), n)
                    })
                    .collect(),
            );
        } else {
            panic!("unknown fixture header `{line}` in {}", file.display());
        }
    }
    let name = file.file_name().unwrap().to_string_lossy().into_owned();
    let crate_name =
        crate_name.unwrap_or_else(|| panic!("{}: missing `//@ crate:` header", file.display()));
    Fixture {
        path: format!("crates/{crate_name}/src/{name}"),
        crate_name,
        kind: kind.unwrap_or_else(|| panic!("{}: missing `//@ kind:` header", file.display())),
        expect: expect
            .unwrap_or_else(|| panic!("{}: missing `//@ expect:` header", file.display())),
        source,
    }
}

/// Lint one fixture and assert its exact finding set.
fn check_fixture(fixture: &Fixture) {
    let lexed = lexer::lex(&fixture.source);
    let ctx =
        FileContext { path: &fixture.path, crate_name: &fixture.crate_name, kind: fixture.kind };
    let findings = lints::check_file(ctx, &lexed);

    let mut got: Vec<(String, u32)> =
        findings.iter().map(|f| (f.code.to_string(), f.line)).collect();
    let mut want = fixture.expect.clone();
    got.sort();
    want.sort();
    assert_eq!(
        got,
        want,
        "fixture `{}`: finding set mismatch\nfindings:\n{}",
        fixture.path,
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn fixture_corpus_matches_expectations() {
    let root = fixtures_root();
    let mut files: Vec<PathBuf> = fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("read {}: {e}", root.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    for file in &files {
        check_fixture(&load_fixture(file));
    }
    assert!(files.len() >= 5, "expected the full D000 corpus, found {} fixtures", files.len());
}
