//! The workspace-level semantic pass: symbol table, call graph, the
//! transitive/dataflow lints (D010, D012, D013), D014 exposition, and
//! unified suppression handling.
//!
//! Input is a set of [`FileSummary`] digests from [`crate::parse`]. The
//! pass:
//!
//! 1. builds a name-indexed **symbol table** of every `fn` in the set and
//!    a **call graph** by resolving each call site against it (method
//!    calls match impl methods by name, `Type::assoc` and `asd_crate::fn`
//!    qualifiers narrow candidates, unqualified calls match free
//!    functions) — resolution is conservative: ambiguity keeps all
//!    candidates, and names that resolve to nothing in the workspace
//!    (std / external calls) produce no edge;
//! 2. walks reachability from every `// asd-lint: hot` function and flags
//!    allocations in reached functions (**D010**), with the witness call
//!    chain in the message — the walk stops at functions marked
//!    `// asd-lint: cold` (the documented escape hatch for exposition
//!    and amortized-growth paths that a hot function calls off-cycle);
//! 3. resolves counter-subtraction sites against the union of
//!    `*Stats`/`*Counters` unsigned fields (**D012**) and discarded
//!    results against workspace functions returning `Result` (**D013**);
//! 4. reports undocumented exported sim types (**D014**);
//! 5. applies `// asd-lint: allow(...)` directives to the merged finding
//!    set and reports directive hygiene (**D000**): malformed syntax,
//!    unknown codes, and **stale** directives that matched no finding.

use crate::lints::{hint_for, Finding, CATALOG};
use crate::parse::{DiscardKind, FileSummary};
use std::collections::{BTreeMap, BTreeSet};

/// Analyze a set of file summaries as one workspace and return the final
/// (suppression-applied) findings, sorted by `(path, line, code)`.
pub fn analyze(files: &[FileSummary]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();

    // ---- Local findings replayed from parse time -------------------
    for fs in files {
        for lf in &fs.local {
            findings.push(Finding {
                path: fs.path.clone(),
                line: lf.line,
                code: lf.code,
                message: lf.message.clone(),
                hint: hint_for(lf.code),
            });
        }
    }

    // ---- Symbol table & call graph ---------------------------------
    // Node id = (file index, fn index). The name index maps a bare fn
    // name to every definition sharing it.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, fs) in files.iter().enumerate() {
        for (ki, f) in fs.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((fi, ki));
        }
    }

    let resolve = |fi: usize, ki: usize| -> Vec<(usize, usize)> {
        let fs = &files[fi];
        let f = &fs.fns[ki];
        let mut out = Vec::new();
        for call in &f.calls {
            let Some(cands) = by_name.get(call.name.as_str()) else { continue };
            for &(cfi, cki) in cands {
                let cand = &files[cfi].fns[cki];
                let ok = match (&call.qualifier, call.method) {
                    // `.name(...)`: any impl method of that name.
                    (_, true) => cand.owner.is_some(),
                    // `Self::name(...)`: same impl type as the caller.
                    (Some(q), false) if q == "Self" => cand.owner == f.owner,
                    // `asd_xxx::name(...)`: free fn in that crate.
                    (Some(q), false) if q.starts_with("asd_") => {
                        cand.owner.is_none() && files[cfi].crate_name == q["asd_".len()..]
                    }
                    // `Type::name(...)`: associated fn of that type.
                    (Some(q), false) => cand.owner.as_deref() == Some(q.as_str()),
                    // Bare `name(...)`: a free function.
                    (None, false) => cand.owner.is_none(),
                };
                if ok {
                    out.push((cfi, cki));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };

    // ---- D010: transitive hot-path allocation ----------------------
    // Depth-first walk from every hot fn; the first path to reach each
    // node is kept as the witness chain (deterministic: candidate lists
    // are name-sorted). Allocations in reached non-hot functions are
    // findings at the allocation site (D009 already polices hot fns
    // directly, and an alloc's own allow(D009) covers the direct case).
    let mut d010: BTreeMap<(usize, u32, String), Finding> = BTreeMap::new();
    for (fi, fs) in files.iter().enumerate() {
        if !crate::lints::is_sim_crate(&fs.crate_name) {
            continue;
        }
        for (ki, f) in fs.fns.iter().enumerate() {
            if !f.is_hot {
                continue;
            }
            let root = (fi, ki);
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut parent: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
            let mut queue: Vec<(usize, usize)> = vec![root];
            seen.insert(root);
            while let Some((ci, ck)) = queue.pop() {
                for next in resolve(ci, ck) {
                    // A cold marker declares the callee off the per-cycle
                    // path; the walk stops at (and never enters) it.
                    if files[next.0].fns[next.1].is_cold {
                        continue;
                    }
                    if seen.insert(next) {
                        parent.insert(next, (ci, ck));
                        queue.push(next);
                    }
                }
            }
            for &(ti, tk) in &seen {
                if (ti, tk) == root {
                    continue; // the hot fn's own allocs are D009's job
                }
                let target = &files[ti].fns[tk];
                if target.is_hot {
                    continue; // its allocs are its own D009 findings
                }
                if target.allocs.is_empty() {
                    continue;
                }
                // Witness chain root -> ... -> target, by fn name.
                let mut chain = vec![target.name.clone()];
                let mut cur = (ti, tk);
                while let Some(&p) = parent.get(&cur) {
                    chain.push(files[p.0].fns[p.1].name.clone());
                    cur = p;
                    if cur == root {
                        break;
                    }
                }
                chain.reverse();
                for site in &target.allocs {
                    let key = (ti, site.line, site.what.clone());
                    // Keep the first (deterministic: lowest file/fn order)
                    // hot root as the reported witness.
                    d010.entry(key).or_insert_with(|| Finding {
                        path: files[ti].path.clone(),
                        line: site.line,
                        code: "D010",
                        message: format!(
                            "heap allocation `{}` in `{}` is reachable from hot path `{}` (via {})",
                            site.what,
                            target.name,
                            f.name,
                            chain.join(" -> "),
                        ),
                        hint: hint_for("D010"),
                    });
                }
            }
        }
    }
    findings.extend(d010.into_values());

    // ---- D012: unchecked counter subtraction -----------------------
    let counter_fields: BTreeSet<&str> =
        files.iter().flat_map(|fs| fs.counter_fields.iter().map(String::as_str)).collect();
    for fs in files {
        for op in &fs.counter_ops {
            if counter_fields.contains(op.field.as_str()) {
                findings.push(Finding {
                    path: fs.path.clone(),
                    line: op.line,
                    code: "D012",
                    message: format!(
                        "unchecked `{}` on sim-state counter field `{}`",
                        op.op, op.field
                    ),
                    hint: hint_for("D012"),
                });
            }
        }
    }

    // ---- D013: silently discarded Result ---------------------------
    // A discard site fires when its callee resolves to at least one
    // workspace fn and *every* workspace fn it can resolve to returns
    // Result (ambiguity across fallible/infallible same-name fns stays
    // quiet to avoid false positives).
    for fs in files {
        if fs.kind != crate::lints::FileKind::Lib {
            continue;
        }
        for d in &fs.discards {
            let Some(cands) = by_name.get(d.callee.as_str()) else { continue };
            let matching: Vec<_> = cands
                .iter()
                .filter(|&&(cfi, cki)| {
                    let cand = &files[cfi].fns[cki];
                    match &d.qualifier {
                        Some(q) if q == "Self" => true,
                        Some(q) if q.starts_with("asd_") => {
                            files[cfi].crate_name == q["asd_".len()..]
                        }
                        Some(q) => cand.owner.as_deref() == Some(q.as_str()),
                        None => true,
                    }
                })
                .collect();
            if !matching.is_empty()
                && matching.iter().all(|&&(cfi, cki)| files[cfi].fns[cki].returns_result)
            {
                let how = match d.kind {
                    DiscardKind::LetUnderscore => "let _ =",
                    DiscardKind::OkDropped => ".ok() dropped",
                };
                findings.push(Finding {
                    path: fs.path.clone(),
                    line: d.line,
                    code: "D013",
                    message: format!(
                        "`Result` of fallible `{}` silently discarded ({how})",
                        d.callee
                    ),
                    hint: hint_for("D013"),
                });
            }
        }
    }

    // ---- D014: exported sim types without docs ---------------------
    for fs in files {
        for ty in &fs.types {
            if !ty.documented {
                findings.push(Finding {
                    path: fs.path.clone(),
                    line: ty.line,
                    code: "D014",
                    message: format!("exported sim type `{}` has no doc comment", ty.name),
                    hint: hint_for("D014"),
                });
            }
        }
    }

    // ---- Suppression + directive hygiene (D000) --------------------
    let known_codes: BTreeSet<&str> = CATALOG.iter().map(|l| l.code).collect();
    let mut out: Vec<Finding> = Vec::new();
    // allows_used[(file, allow index)] = suppressed at least one finding.
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in findings {
        let mut suppressed = false;
        for (fi, fs) in files.iter().enumerate() {
            if fs.path != f.path {
                continue;
            }
            for (ai, a) in fs.allows.iter().enumerate() {
                if a.well_formed
                    && (a.line == f.line || a.line + 1 == f.line)
                    && a.codes.iter().any(|c| c == f.code)
                {
                    suppressed = true;
                    used.insert((fi, ai));
                }
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for (fi, fs) in files.iter().enumerate() {
        for (ai, a) in fs.allows.iter().enumerate() {
            if !a.well_formed {
                out.push(Finding {
                    path: fs.path.clone(),
                    line: a.line,
                    code: "D000",
                    message: "malformed asd-lint suppression directive".to_string(),
                    hint: hint_for("D000"),
                });
                continue;
            }
            if let Some(unknown) = a.codes.iter().find(|c| !known_codes.contains(c.as_str())) {
                out.push(Finding {
                    path: fs.path.clone(),
                    line: a.line,
                    code: "D000",
                    message: format!("suppression names unknown lint code `{unknown}`"),
                    hint: hint_for("D000"),
                });
                continue;
            }
            if !used.contains(&(fi, ai)) {
                out.push(Finding {
                    path: fs.path.clone(),
                    line: a.line,
                    code: "D000",
                    message: format!(
                        "stale suppression: no {} finding on this or the next line",
                        a.codes.join("/")
                    ),
                    hint: hint_for("D000"),
                });
            }
        }
    }

    out.sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    out.dedup();
    out
}
