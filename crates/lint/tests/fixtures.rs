//! Fixture corpus for the AST engine.
//!
//! Each `tests/fixtures/<crate>__<case>.rs` is analyzed as if it lived at
//! `crates/<crate>/src/<case>.rs` (the crate prefix drives rule scoping:
//! `types__*` skips the dispatch rule, non-`mem` files get layering, and
//! so on), and its findings are compared line-for-line against the paired
//! `<crate>__<case>.expected` file.
//!
//! A fixture may span crates (for the cross-crate `hot-inline` rule): a
//! line `//@ crate <name>` starts a section analyzed as
//! `crates/<name>/src/<case>.rs`. Each section is analyzed with the other
//! sections' lines blanked, so reported lines are the fixture's own.
//!
//! Expected-file format: one `<line>:<col> <rule>` per finding, in report
//! order (rule findings first, then `stale-allow`/`bad-allow` annotation
//! errors). Blank lines and lines starting with `#` are comments. An empty
//! (comment-only) file asserts the fixture is clean.
//!
//! To regenerate after an intentional engine change:
//! `ITPX_BLESS=1 cargo test -p itpx-lint --test fixtures` — then diff the
//! rewritten `.expected` files and review every change like source.
//!
//! The committed tree itself is checked too: it must analyze clean.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    // crates/lint/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the repo root")
        .to_path_buf()
}

/// `.rs` files under `dir`, recursively.
fn count_rs_files(dir: &Path) -> usize {
    fs::read_dir(dir)
        .expect("lint root exists")
        .map(|e| e.expect("readable entry").path())
        .map(|p| {
            if p.is_dir() {
                count_rs_files(&p)
            } else {
                usize::from(p.extension().is_some_and(|e| e == "rs"))
            }
        })
        .sum()
}

/// `line:col rule` lines for one fixture, in report order.
fn actual_lines(report: &itpx_lint::Report) -> Vec<String> {
    report
        .findings
        .iter()
        .chain(&report.annotation_errors)
        .map(|f| format!("{}:{} {}", f.line, f.col, f.rule))
        .collect()
}

fn expected_lines(raw: &str) -> Vec<String> {
    raw.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// The synthetic files one fixture stands for: one per crate section,
/// each with the other sections' lines blanked.
fn fixture_sources(krate: &str, case: &str, src: &str) -> Vec<(String, String)> {
    let mut owner = krate;
    let owners: Vec<&str> = src
        .lines()
        .map(|line| {
            if let Some(name) = line.trim().strip_prefix("//@ crate ") {
                owner = name.trim();
            }
            owner
        })
        .collect();
    let mut crates: Vec<&str> = Vec::new();
    for &c in &owners {
        if !crates.contains(&c) {
            crates.push(c);
        }
    }
    crates
        .into_iter()
        .map(|c| {
            let text: Vec<&str> = src
                .lines()
                .zip(&owners)
                .map(|(line, &o)| if o == c { line } else { "" })
                .collect();
            (format!("crates/{c}/src/{case}.rs"), text.join("\n"))
        })
        .collect()
}

#[test]
fn crate_deps_match_the_manifests() {
    for (krate, deps) in itpx_lint::hot::CRATE_DEPS {
        let manifest = repo_root().join(format!("crates/{krate}/Cargo.toml"));
        let text = fs::read_to_string(&manifest).expect("manifest reads");
        let mut section = "";
        let mut actual: Vec<&str> = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if section == "[dependencies]" {
                if let Some(dep) = line.strip_prefix("itpx-") {
                    actual.push(dep.split(['.', ' ', '=']).next().unwrap_or(dep));
                }
            }
        }
        let mut expected = deps.to_vec();
        actual.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            actual,
            expected,
            "CRATE_DEPS disagrees with {}",
            manifest.display()
        );
    }
}

#[test]
fn ast_engine_reports_a_clean_tree() {
    let report = itpx_lint::run(&repo_root()).expect("analysis runs");
    assert!(
        report.is_clean(),
        "the committed tree must analyze clean:\n{}",
        report
            .findings
            .iter()
            .chain(&report.annotation_errors)
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A scoping bug that silently dropped files or roots would also
    // "pass"; every `.rs` file under the roots the run walks must count.
    let roots = itpx_lint::LINTED_CRATES
        .iter()
        .map(|c| format!("crates/{c}/src"))
        .chain(
            itpx_lint::LAYERING_EXTRA_ROOTS
                .iter()
                .map(|r| r.to_string()),
        );
    let on_disk: usize = roots.map(|r| count_rs_files(&repo_root().join(r))).sum();
    assert!(
        report.files_scanned >= on_disk,
        "file set collapsed: {} scanned, {on_disk} under the roots",
        report.files_scanned
    );
    assert!(report.hot_fns >= 150, "hot-path call graph collapsed");
}

#[test]
fn fixtures_match_expected_findings() {
    let dir = fixture_dir();
    let bless = std::env::var_os("ITPX_BLESS").is_some();
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("tests/fixtures exists")
        .filter_map(|e| {
            let path = e.expect("fixture dir entry").path();
            (path.extension()? == "rs")
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    assert!(
        names.len() >= 20,
        "fixture corpus shrank to {}",
        names.len()
    );

    let mut failures = Vec::new();
    let mut rules_seen = BTreeSet::new();
    for name in &names {
        let src = fs::read_to_string(dir.join(format!("{name}.rs"))).expect("fixture reads");
        let (krate, case) = name
            .split_once("__")
            .unwrap_or_else(|| panic!("fixture `{name}` is not named <crate>__<case>"));
        let report = itpx_lint::analyze_sources(&fixture_sources(krate, case, &src))
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to parse: {e}"));
        let actual = actual_lines(&report);
        for f in report.findings.iter().chain(&report.annotation_errors) {
            rules_seen.insert(f.rule.clone());
        }

        let expected_path = dir.join(format!("{name}.expected"));
        if bless {
            let mut out = String::new();
            for line in &actual {
                out.push_str(line);
                out.push('\n');
            }
            fs::write(&expected_path, out).expect("expected file writes");
            continue;
        }
        let expected_raw = fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("fixture `{name}` has no .expected file"));
        let expected = expected_lines(&expected_raw);
        if actual != expected {
            failures.push(format!(
                "{name}:\n    expected: {expected:?}\n    actual:   {actual:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "fixtures disagree with their .expected files:\n  {}",
        failures.join("\n  ")
    );

    if !bless {
        // Every rule the engine knows must have at least one true-positive
        // fixture, and both annotation failure modes must be exercised.
        for rule in itpx_lint::ALL_RULES {
            assert!(rules_seen.contains(*rule), "no fixture exercises `{rule}`");
        }
        for rule in ["stale-allow", "bad-allow"] {
            assert!(rules_seen.contains(rule), "no fixture exercises `{rule}`");
        }
    }
}
