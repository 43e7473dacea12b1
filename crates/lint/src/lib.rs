//! `itpx-lint`: AST-based static analysis for the itpx workspace.
//!
//! `cargo xtask analyze` drives [`run`], which parses every linted source
//! file into a syntax model (lexer → token trees → items, in-tree for the
//! same reason the workspace carries `proptest-shim`/`criterion-shim`: no
//! registry access, so the parser is the offline analogue of `syn`),
//! resolves `#[cfg(test)]` scopes structurally, and applies:
//!
//! * the six determinism rules ported from the retired regex scanner
//!   (`std-time`, `entropy`, `map-iter`, `panicking-index`, `layering`,
//!   `dispatch`) plus the `nested-vec` data-layout rule — see [`rules`];
//! * the hot-path rules over the call graph rooted at the per-access
//!   entry points (`hot-alloc`, `hot-float`, `arith-width` on every hot
//!   function, `hot-inline` on every hot call that crosses a crate) —
//!   see [`hot`];
//! * the annotation pass: `// itpx-allow: <rule> <reason>` comments
//!   suppress findings in place, and unused or malformed annotations are
//!   themselves hard failures — see [`annotations`].
//!
//! The static pass is cross-checked dynamically by [`alloc_witness`]: a
//! counting `#[global_allocator]` that the `alloc_witness` integration
//! test wraps around 100k warm accesses per registered policy to prove
//! the zero-steady-state-allocation claim on real machine code, not just
//! on syntax.

pub mod annotations;
pub mod ast;
pub mod hot;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

/// Crate directories (under `crates/`) that receive the full rule set.
/// `bench`, `xtask`, and `lint` are excluded: none of them runs inside a
/// simulation.
pub const LINTED_CRATES: &[&str] = &["types", "policy", "core", "vm", "mem", "cpu", "trace"];

/// Bench files on the simulation-cache path: cache keys and persisted
/// results must be process-stable, so `std-time` and `entropy` extend
/// here.
pub const LINTED_CACHE_FILES: &[&str] = &[
    "crates/bench/src/simcache.rs",
    "crates/bench/src/campaign.rs",
    "crates/bench/src/store.rs",
];

/// The rules enforced on [`LINTED_CACHE_FILES`].
pub const CACHE_PATH_RULES: &[&str] = &["std-time", "entropy"];

/// Extra source roots scanned with only the `layering` rule.
pub const LAYERING_EXTRA_ROOTS: &[&str] = &["crates/bench/src"];

/// Every rule the engine knows (the valid names for `itpx-allow`).
pub const ALL_RULES: &[&str] = &[
    "std-time",
    "entropy",
    "map-iter",
    "panicking-index",
    "layering",
    "dispatch",
    "nested-vec",
    "hot-alloc",
    "hot-float",
    "arith-width",
    "hot-inline",
];

/// One finding with file position and explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier.
    pub rule: String,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending line, trimmed.
    pub excerpt: String,
    /// Why this is a finding.
    pub note: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {} — {}",
            self.path, self.line, self.col, self.rule, self.excerpt, self.note
        )
    }
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule findings that survived annotation filtering.
    pub findings: Vec<Finding>,
    /// Stale (`stale-allow`) and malformed (`bad-allow`) annotations.
    pub annotation_errors: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Number of functions the call graph marked hot.
    pub hot_fns: usize,
}

impl Report {
    /// `true` when the tree is clean: no findings, no annotation rot.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.annotation_errors.is_empty()
    }

    /// Renders the report as a JSON object (hand-rolled — the workspace
    /// carries no serde) for CI trend tracking.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn finding(f: &Finding) -> String {
            format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"excerpt\":\"{}\",\"note\":\"{}\"}}",
                esc(&f.rule),
                esc(&f.path),
                f.line,
                f.col,
                esc(&f.excerpt),
                esc(&f.note)
            )
        }
        let findings: Vec<String> = self.findings.iter().map(finding).collect();
        let errors: Vec<String> = self.annotation_errors.iter().map(finding).collect();
        format!(
            "{{\"files_scanned\":{},\"hot_fns\":{},\"findings\":[{}],\"annotation_errors\":[{}]}}\n",
            self.files_scanned,
            self.hot_fns,
            findings.join(","),
            errors.join(",")
        )
    }
}

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every rule; participates in the call graph.
    Full,
    /// `std-time` + `entropy` only (bench cache path).
    CachePath,
    /// `layering` only (bench harness).
    LayeringOnly,
}

/// Runs the analysis over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut inputs: Vec<(String, String, Scope)> = Vec::new();
    for krate in LINTED_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)
            .map_err(|e| format!("walking {}: {e}", dir.display()))?;
        files.sort();
        for file in files {
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            inputs.push((rel_path(root, &file), src, Scope::Full));
        }
    }
    for rel in LINTED_CACHE_FILES {
        let file = root.join(rel);
        let src =
            fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        inputs.push((rel.to_string(), src, Scope::CachePath));
    }
    for root_rel in LAYERING_EXTRA_ROOTS {
        let dir = root.join(root_rel);
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)
            .map_err(|e| format!("walking {}: {e}", dir.display()))?;
        files.sort();
        for file in files {
            let rel = rel_path(root, &file);
            if LINTED_CACHE_FILES.contains(&rel.as_str()) {
                continue; // already covered with the cache-path scope
            }
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            inputs.push((rel, src, Scope::LayeringOnly));
        }
    }
    analyze(&inputs)
}

/// Analyzes in-memory sources with full-rule scope — the fixture-corpus
/// entry point.
pub fn analyze_sources(files: &[(String, String)]) -> Result<Report, String> {
    let inputs: Vec<(String, String, Scope)> = files
        .iter()
        .map(|(p, s)| (p.clone(), s.clone(), Scope::Full))
        .collect();
    analyze(&inputs)
}

fn analyze(inputs: &[(String, String, Scope)]) -> Result<Report, String> {
    let mut asts = Vec::new();
    for (path, src, scope) in inputs {
        let ast = ast::parse_file(path, src)?;
        asts.push((ast, *scope));
    }
    // The hot-path graph covers the simulated machine. `crates/trace` is
    // deliberately outside it: the generator and analysis code run per
    // instruction too, but they model the *workload* (with seeded-Rng64
    // float dice and unbounded recording structures by design), not the
    // microarchitecture the zero-alloc/no-float budget applies to.
    let graph_files: Vec<(&ast::FileAst, bool)> = asts
        .iter()
        .map(|(a, s)| (a, *s == Scope::Full && !a.path.contains("crates/trace/")))
        .collect();
    let hot = hot::hot_set(&graph_files);
    let mut inline_findings: Vec<Vec<rules::RawFinding>> = vec![Vec::new(); asts.len()];
    for (fi, finding) in hot::scan_hot_inline(&graph_files, &hot) {
        inline_findings[fi].push(finding);
    }
    let mut report = Report {
        files_scanned: asts.len(),
        hot_fns: hot.len(),
        ..Report::default()
    };
    for (fi, (ast, scope)) in asts.iter().enumerate() {
        let (anns, bad) = annotations::collect(ast, ALL_RULES);
        let mut used = vec![false; anns.len()];
        let mut raw: Vec<rules::RawFinding> = Vec::new();
        let ts = rules::non_test_tokens(ast);
        match scope {
            Scope::Full => {
                raw.extend(rules::scan_std_time(&ts));
                raw.extend(rules::scan_entropy(&ts));
                if !ast.path.contains("crates/mem/") {
                    raw.extend(rules::scan_layering(&ts));
                }
                if ["crates/mem/", "crates/vm/", "crates/cpu/"]
                    .iter()
                    .any(|c| ast.path.contains(c))
                {
                    raw.extend(rules::scan_dispatch(&ts));
                }
                if ["crates/mem/", "crates/vm/", "crates/cpu/", "crates/policy/"]
                    .iter()
                    .any(|c| ast.path.contains(c))
                {
                    raw.extend(rules::scan_nested_vec(&ts));
                }
                raw.extend(rules::scan_map_iter(ast));
                for f in ast.fns.iter().filter(|f| !f.is_test) {
                    for c in rules::scan_panicking(f) {
                        if !ast.has_comment_near(c.line) {
                            raw.push(c);
                        }
                    }
                }
                for id in hot.iter().filter(|id| id.file == fi) {
                    raw.extend(hot::scan_hot_fn(ast, &ast.fns[id.idx]));
                }
                raw.append(&mut inline_findings[fi]);
            }
            Scope::CachePath => {
                raw.extend(rules::scan_std_time(&ts));
                raw.extend(rules::scan_entropy(&ts));
            }
            Scope::LayeringOnly => {
                raw.extend(rules::scan_layering(&ts));
            }
        }
        for c in raw {
            let mut suppressed = false;
            for (ai, ann) in anns.iter().enumerate() {
                if annotations::covers(ann, c.rule, c.line) {
                    used[ai] = true;
                    suppressed = true;
                    break;
                }
            }
            if !suppressed {
                report.findings.push(Finding {
                    rule: c.rule.to_string(),
                    path: ast.path.clone(),
                    line: c.line,
                    col: c.col,
                    excerpt: ast.excerpt(c.line),
                    note: c.note,
                });
            }
        }
        for (ai, ann) in anns.iter().enumerate() {
            if !used[ai] {
                report.annotation_errors.push(Finding {
                    rule: "stale-allow".to_string(),
                    path: ast.path.clone(),
                    line: ann.own_line,
                    col: 1,
                    excerpt: ast.excerpt(ann.own_line),
                    note: format!(
                        "annotation for `{}` suppressed nothing — fix the excuse or delete it",
                        ann.rule
                    ),
                });
            }
        }
        for b in bad {
            report.annotation_errors.push(Finding {
                rule: "bad-allow".to_string(),
                path: ast.path.clone(),
                line: b.line,
                col: 1,
                excerpt: ast.excerpt(b.line),
                note: b.why,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    report
        .annotation_errors
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The dynamic half of the hot-path gate: a counting global allocator.
///
/// The `alloc_witness` integration test declares
/// `#[global_allocator] static A: CountingAllocator = …`, warms every
/// registered policy through its engine, snapshots the counters with
/// [`CountingAllocator::snapshot`](alloc_witness::CountingAllocator::snapshot), drives 100k further accesses, and
/// asserts the counts did not move. The static analyzer claims the hot
/// path cannot allocate; this proves the claim on the machine code that
/// actually ran, macros, std internals, and all.
pub mod alloc_witness {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A `GlobalAlloc` that delegates to [`System`] and counts.
    pub struct CountingAllocator {
        allocs: AtomicU64,
        reallocs: AtomicU64,
        bytes: AtomicU64,
    }

    /// A point-in-time reading of the counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Snapshot {
        /// Number of `alloc`/`alloc_zeroed` calls so far.
        pub allocs: u64,
        /// Number of `realloc` calls so far.
        pub reallocs: u64,
        /// Total bytes requested so far.
        pub bytes: u64,
    }

    impl Snapshot {
        /// Allocation events between `self` and a later `after` reading.
        pub fn events_until(&self, after: Snapshot) -> u64 {
            (after.allocs - self.allocs) + (after.reallocs - self.reallocs)
        }
    }

    impl CountingAllocator {
        /// A zeroed counter set (const so it can back a static).
        pub const fn new() -> Self {
            Self {
                allocs: AtomicU64::new(0),
                reallocs: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }
        }

        /// Reads the counters.
        pub fn snapshot(&self) -> Snapshot {
            Snapshot {
                allocs: self.allocs.load(Ordering::Relaxed),
                reallocs: self.reallocs.load(Ordering::Relaxed),
                bytes: self.bytes.load(Ordering::Relaxed),
            }
        }
    }

    impl Default for CountingAllocator {
        fn default() -> Self {
            Self::new()
        }
    }

    // SAFETY: delegates every operation to `System` unchanged; the only
    // added behavior is relaxed counter increments, which allocate
    // nothing.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            self.reallocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_one(path: &str, src: &str) -> Report {
        analyze_sources(&[(path.to_string(), src.to_string())]).expect("analyzes")
    }

    #[test]
    fn clean_file_is_clean() {
        let r = analyze_one(
            "crates/mem/src/x.rs",
            "pub fn f(v: &[u32], i: usize) -> u32 { v[i] }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn annotation_suppresses_and_registers_use() {
        let src = "struct Cache { v: Vec<u64> }\n\
                   impl Cache {\n\
                       pub fn probe(&mut self) {\n\
                           self.v.push(1); // itpx-allow: hot-alloc grow-once, capacity proven in tests\n\
                       }\n\
                   }\n";
        let r = analyze_one("crates/mem/src/cache.rs", src);
        assert!(r.is_clean(), "{:?} / {:?}", r.findings, r.annotation_errors);
    }

    #[test]
    fn annotation_above_the_line_works() {
        let src = "struct Cache { v: Vec<u64> }\n\
                   impl Cache {\n\
                       pub fn probe(&mut self) {\n\
                           // itpx-allow: hot-alloc grow-once, capacity proven in tests\n\
                           self.v.push(1);\n\
                       }\n\
                   }\n";
        let r = analyze_one("crates/mem/src/cache.rs", src);
        assert!(r.is_clean(), "{:?} / {:?}", r.findings, r.annotation_errors);
    }

    #[test]
    fn fn_scope_annotation_covers_whole_body() {
        let src = "struct Stats { m: f64 }\n\
                   impl Stats {\n\
                       // itpx-allow: hot-float statistics accumulator, never feeds simulated state\n\
                       pub fn add(&mut self, x: f64) {\n\
                           self.m = self.m * 0.5 + x * 0.5;\n\
                       }\n\
                   }\n\
                   struct Cache {}\n\
                   impl Cache { pub fn probe(&mut self, s: &mut Stats, x: f64) { s.add(x); } }\n";
        let r = analyze_one("crates/mem/src/x.rs", src);
        assert!(r.is_clean(), "{:?} / {:?}", r.findings, r.annotation_errors);
    }

    #[test]
    fn hot_inline_allow_suppresses_the_cross_crate_finding() {
        let engine = "struct Engine {}\n\
                      impl Engine { pub fn step(&mut self, h: &mut Hierarchy) { h.instr_fetch(1); } }\n";
        let bare = "struct Hierarchy {}\n\
                    impl Hierarchy {\n\
                        pub fn instr_fetch(&mut self, pa: u64) {}\n\
                    }\n";
        let allowed = "struct Hierarchy {}\n\
                       impl Hierarchy {\n\
                           // itpx-allow: hot-inline large body, one call per miss\n\
                           pub fn instr_fetch(&mut self, pa: u64) {}\n\
                       }\n";
        let run = |mem: &str| {
            analyze_sources(&[
                ("crates/cpu/src/engine.rs".to_string(), engine.to_string()),
                ("crates/mem/src/hierarchy.rs".to_string(), mem.to_string()),
            ])
            .expect("analyzes")
        };
        let r = run(bare);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "hot-inline");
        assert_eq!(r.findings[0].path, "crates/mem/src/hierarchy.rs");
        let r = run(allowed);
        assert!(r.is_clean(), "{:?} / {:?}", r.findings, r.annotation_errors);
    }

    #[test]
    fn stale_annotation_is_reported() {
        let src = "// itpx-allow: hot-alloc nothing here allocates\n\
                   pub fn f() -> u32 { 7 }\n";
        let r = analyze_one("crates/mem/src/x.rs", src);
        assert!(!r.is_clean());
        assert_eq!(r.annotation_errors.len(), 1);
        assert_eq!(r.annotation_errors[0].rule, "stale-allow");
    }

    #[test]
    fn unknown_rule_annotation_is_reported() {
        let src = "pub fn f() -> u32 { 7 } // itpx-allow: hot-allok typo\n";
        let r = analyze_one("crates/mem/src/x.rs", src);
        assert_eq!(r.annotation_errors.len(), 1);
        assert_eq!(r.annotation_errors[0].rule, "bad-allow");
    }

    #[test]
    fn missing_reason_is_reported() {
        let src = "pub fn f() -> u32 { 7 } // itpx-allow: hot-alloc\n";
        let r = analyze_one("crates/mem/src/x.rs", src);
        assert_eq!(r.annotation_errors.len(), 1);
        assert_eq!(r.annotation_errors[0].rule, "bad-allow");
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let r = analyze_one(
            "crates/vm/src/x.rs",
            "fn f(o: Option<u32>) { o.unwrap(); }\n",
        );
        assert_eq!(r.findings.len(), 1);
        let json = r.to_json();
        assert!(json.contains("\"findings\":[{"));
        assert!(json.contains("\"rule\":\"panicking-index\""));
        assert!(json.contains("\"files_scanned\":1"));
    }

    #[test]
    fn parse_error_is_a_hard_error() {
        let r = analyze_sources(&[(
            "crates/vm/src/x.rs".to_string(),
            "fn f() { let x = (; }\n".to_string(),
        )]);
        assert!(r.is_err());
    }

    #[test]
    fn counting_allocator_counts() {
        // Not installed as the global allocator here (the integration test
        // does that); exercise the GlobalAlloc impl directly.
        use std::alloc::{GlobalAlloc, Layout};
        let a = alloc_witness::CountingAllocator::new();
        let before = a.snapshot();
        let layout = Layout::from_size_align(64, 8).expect("valid layout");
        // SAFETY: matching alloc/dealloc with a valid layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        let after = a.snapshot();
        assert_eq!(before.events_until(after), 1);
        assert_eq!(after.bytes - before.bytes, 64);
    }
}
