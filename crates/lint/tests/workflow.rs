//! The CI workflows must parse as YAML.
//!
//! A plain (unquoted, non-block) scalar may not contain `": "`: YAML reads
//! it as a second mapping separator and rejects the whole file, so no job
//! of the workflow runs. Shell commands with JSON-looking patterns hit
//! this easily (`grep -q '"pass": true'`). Such values must be block
//! scalars (`run: |`) or quoted.

use std::fs;
use std::path::{Path, PathBuf};

fn workflow_dir() -> PathBuf {
    // crates/lint/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the repo root")
        .join(".github/workflows")
}

/// 1-based lines of `yaml` whose plain scalar value contains `": "`.
/// Block scalar bodies (`key: |` / `key: >` and the deeper-indented lines
/// after them) and comments are skipped; quoted and flow values are
/// accepted as they are.
fn plain_scalar_faults(yaml: &str) -> Vec<usize> {
    let mut faults = Vec::new();
    let mut block_indent: Option<usize> = None;
    for (i, line) in yaml.lines().enumerate() {
        let indent = line.len() - line.trim_start().len();
        let text = line.trim();
        if let Some(key_indent) = block_indent {
            if text.is_empty() || indent > key_indent {
                continue;
            }
            block_indent = None;
        }
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let entry = text.strip_prefix("- ").unwrap_or(text);
        let Some((_, value)) = entry.split_once(": ") else {
            continue;
        };
        let value = value.split(" #").next().unwrap_or(value).trim();
        if value.starts_with('|') || value.starts_with('>') {
            block_indent = Some(indent);
        } else if !value.starts_with(['\'', '"', '[', '{']) && value.contains(": ") {
            faults.push(i + 1);
        }
    }
    faults
}

#[test]
fn workflows_hold_no_mapping_separator_in_plain_scalars() {
    let mut checked = 0;
    for entry in fs::read_dir(workflow_dir()).expect(".github/workflows exists") {
        let path = entry.expect("readable entry").path();
        if !path.extension().is_some_and(|e| e == "yml" || e == "yaml") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("workflow reads");
        let faults = plain_scalar_faults(&text);
        assert!(
            faults.is_empty(),
            "{}: plain scalars containing \": \" on lines {faults:?}; make them block scalars (`run: |`)",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "no workflow file found");
}

#[test]
fn the_checker_flags_a_plain_run_with_a_json_pattern() {
    let broken = "steps:\n  - name: Gate landed\n    run: grep -q '^  \"horizon\": .*\"pass\": true' out.json\n";
    assert_eq!(plain_scalar_faults(broken), [3]);
    let fixed = "steps:\n  - name: Gate landed\n    run: |\n      grep -q '^  \"horizon\": .*\"pass\": true' out.json\n  - run: cargo test\n";
    assert!(plain_scalar_faults(fixed).is_empty());
    let quoted = "    run: \"grep -q 'a: b' f\"\n";
    assert!(plain_scalar_faults(quoted).is_empty());
}
