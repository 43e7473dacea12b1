//! `cargo xtask` — repository analysis tasks for the itpx workspace.
//!
//! Subcommands:
//!
//! * `analyze [--json <path>]` (default) — run all three passes below;
//!   non-zero exit if any of them finds a violation. `--json` also writes
//!   the lint report as JSON for CI trend tracking.
//! * `lint [--json <path>]` — the AST-based static analysis
//!   (`itpx-lint`) over the simulation crates: determinism rules plus the
//!   hot-path rules (`hot-alloc`, `hot-float`, `arith-width`) over the
//!   call graph rooted at the per-access entry points.
//! * `budget` — the hardware-budget audit (also writes
//!   `docs/hardware-budget.md`).
//! * `contracts` — the randomized policy contract drive.
//! * `difftest [--smoke|--full]` — differential + metamorphic harness:
//!   fuzzed traces through the optimized pipeline and the functional
//!   reference model must agree bit for bit (see docs/testing.md).
//!
//! See DESIGN.md ("Static analysis") for rule definitions and the
//! `// itpx-allow: <rule> <reason>` annotation grammar. Stale or
//! malformed annotations fail `analyze` exactly like findings do.

mod budget;
mod contracts;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels under the repo root")
        .to_path_buf()
}

fn run_lint(root: &Path, json_path: Option<&str>) -> Result<bool, String> {
    let report = itpx_lint::run(root)?;
    println!(
        "lint: analyzed {} files across crates/{{{}}}, {} bench cache-path file(s), \
         and {} (layering rule); {} hot function(s) on the per-access call graph",
        report.files_scanned,
        itpx_lint::LINTED_CRATES.join(","),
        itpx_lint::LINTED_CACHE_FILES.len(),
        itpx_lint::LAYERING_EXTRA_ROOTS.join(", "),
        report.hot_fns,
    );
    for f in &report.findings {
        println!("  violation: {f}");
    }
    for a in &report.annotation_errors {
        println!("  violation: {a}");
    }
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("lint: wrote JSON report to {path}");
    }
    if report.is_clean() {
        println!("lint: ok");
    } else {
        println!(
            "lint: {} violation(s) — fix them or annotate the line with \
             `// itpx-allow: <rule> <reason>`",
            report.findings.len() + report.annotation_errors.len()
        );
    }
    Ok(report.is_clean())
}

fn run_budget(root: &Path, write_report: bool) -> Result<bool, String> {
    let report = budget::run(root, write_report)?;
    println!("budget: audited {} policies", report.rows.len());
    for f in &report.failures {
        println!("  violation: {f}");
    }
    if write_report {
        println!("budget: wrote docs/hardware-budget.md");
    }
    if report.failures.is_empty() {
        println!("budget: ok (iTP ≤ 4 bits/entry, xPTP ≤ 1 bit/entry)");
    }
    Ok(report.failures.is_empty())
}

fn run_contracts() -> Result<bool, String> {
    let report = contracts::run();
    println!(
        "contracts: drove {} policy × geometry combinations",
        report.drives
    );
    for v in &report.violations {
        println!("  violation: {v}");
    }
    if report.violations.is_empty() {
        println!("contracts: ok");
    }
    Ok(report.violations.is_empty())
}

fn run_difftest(scale_arg: Option<&str>) -> Result<bool, String> {
    let scale = match scale_arg {
        None | Some("--smoke") => itpx_difftest::Scale::smoke(),
        Some("--full") => itpx_difftest::Scale::full(),
        Some(other) => {
            return Err(format!(
                "unknown difftest option `{other}` (expected --smoke or --full)"
            ))
        }
    };
    println!(
        "difftest: {} fuzzed trace(s) x {} instruction(s) per hierarchy preset",
        scale.traces, scale.instructions
    );
    let outcome = itpx_difftest::run(&scale);
    println!(
        "difftest: {} differential check(s), {} warm-path check(s), \
         {} metamorphic propert(y/ies), {} tier-boundary propert(y/ies)",
        outcome.differential_checks,
        outcome.warm_checks,
        outcome.metamorphic_checks,
        outcome.tier_checks
    );
    for f in &outcome.failures {
        println!("  divergence: {f}");
    }
    if outcome.passed() {
        println!("difftest: ok (optimized pipeline matches the reference model bit for bit)");
    } else {
        println!("difftest: {} failure(s)", outcome.failures.len());
    }
    Ok(outcome.passed())
}

/// Extracts `--json <path>` from the argument tail, if present.
fn json_arg(args: &[String]) -> Result<Option<&str>, String> {
    match args.iter().position(|a| a == "--json") {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(path) => Ok(Some(path)),
            None => Err("--json requires a path argument".to_string()),
        },
    }
}

const USAGE: &str =
    "usage: cargo xtask [analyze|lint [--json <path>]|budget|contracts|difftest [--smoke|--full]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("analyze");
    let root = repo_root();
    let outcome = match cmd {
        "analyze" => json_arg(&args[1..]).and_then(|json| {
            run_lint(&root, json)
                .and_then(|a| Ok(a & run_budget(&root, true)?))
                .and_then(|a| Ok(a & run_contracts()?))
        }),
        "lint" => json_arg(&args[1..]).and_then(|json| run_lint(&root, json)),
        "budget" => run_budget(&root, true),
        "contracts" => run_contracts(),
        "difftest" => run_difftest(args.get(1).map(|s| s.as_str())),
        "help" | "-h" | "--help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask error: {e}");
            ExitCode::from(2)
        }
    }
}
