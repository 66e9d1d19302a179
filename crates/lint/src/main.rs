//! CLI driver for `asd-lint`. Usage:
//!
//! ```text
//! cargo run -q -p asd-lint [--catalog] [--format text|json|sarif]
//!                          [--out FILE] [ROOT]
//! ```
//!
//! Exits 0 on a clean tree, 1 on findings, 2 on internal errors (bad
//! flags, unreadable files, missing workspace root). The text report's
//! last line counts findings, files and manifests.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut out_file: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--catalog" => {
                for info in asd_lint::CATALOG {
                    println!("{}  {}", info.code, info.rule);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("asd-lint: determinism & invariant linter for the ASD workspace");
                println!(
                    "usage: asd-lint [--catalog] [--format text|json|sarif] [--out FILE] [ROOT]"
                );
                println!("suppress per site with: // asd-lint: allow(Dxxx) -- reason");
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next() {
                Some(f) if matches!(f.as_str(), "text" | "json" | "sarif") => format = f,
                Some(f) => {
                    eprintln!("asd-lint: unknown format `{f}` (expected text, json, or sarif)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("asd-lint: --format requires a value");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_file = Some(PathBuf::from(p)),
                None => {
                    eprintln!("asd-lint: --out requires a file path");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("asd-lint: unknown flag `{other}` (see --help)");
                return ExitCode::from(2);
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }

    let start = match root_arg {
        Some(p) => p,
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("asd-lint: cannot determine working directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let Some(root) = asd_lint::find_workspace_root(&start) else {
        eprintln!("asd-lint: no workspace root (Cargo.toml with [workspace]) above {start:?}");
        return ExitCode::from(2);
    };

    match asd_lint::run_workspace(&root) {
        Ok(report) => {
            let rendered = match format.as_str() {
                "json" => asd_lint::output::to_json(&report),
                "sarif" => asd_lint::output::to_sarif(&report),
                _ => report.render(),
            };
            if let Some(path) = out_file {
                if let Err(e) = std::fs::write(&path, &rendered) {
                    eprintln!("asd-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            } else {
                print!("{rendered}");
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("asd-lint: I/O error while scanning: {e}");
            ExitCode::from(2)
        }
    }
}
