//! Hot-path analysis: a call-graph walk from the per-access entry points,
//! the three rules enforced on every function it reaches, and the
//! cross-crate inlining rule enforced on its edges.
//!
//! The ROADMAP's target — *no allocation in steady state, per-access calls
//! that inline* — is only meaningful on the code that actually runs per
//! access. The graph roots at the entry points the simulators drive on
//! every reference:
//!
//! * `Hierarchy::{instr_fetch, data_access, pte_access, access_chain}`
//! * `Cache::{probe, fill}`
//! * `Tlb::{lookup, fill, fill_and_complete, mshr_alloc, merge}`
//! * `PageWalker::walk`, `PageTable::translate`
//! * `System::translate`, `Engine::step`
//! * `System::{warm_fetch, warm_data}` — a fast-forward's per-instruction
//!   warm path
//! * every `Policy` trait method body (`on_fill`, `on_hit`, `victim`,
//!   `on_evict`) — the engine enums dispatch straight into these, so they
//!   stand in for the `PolicyEngine` match arms the macro generates.
//!
//! Edges are resolved by name: `T::m(…)` binds to methods of `T`,
//! `recv.m(…)` to every workspace function named `m`, and `f(…)` to every
//! function named `f`. That over-approximates (two unrelated `len`s merge)
//! but never under-approximates within the parsed set, which is the safe
//! direction for a gate. Calls into std resolve to nothing and are instead
//! covered by the pattern rules below.
//!
//! Rules on hot functions:
//!
//! * `hot-alloc` — steady-state allocation: allocator constructors
//!   (`Box::new`, `vec!`, `format!`, …), allocating conversions
//!   (`.collect()`, `.to_vec()`, `.clone()`, …), and growth calls
//!   (`.push(…)`, `.insert(…)`, …) whose receiver resolves to a std
//!   collection type through the file's fields, params, and `let`s.
//! * `hot-float` — float literals, `as f32/f64` casts, and `f32::`/`f64::`
//!   paths: float state on an access path invites platform-dependent
//!   rounding into simulated decisions.
//! * `arith-width` — truncating `as` casts to sub-64-bit integers,
//!   `<<` with non-literal operands, and `+` on operands known to be
//!   sub-64-bit: the silent wrap/truncate cases address and cycle math
//!   must not hit.
//!
//! Rule on hot edges:
//!
//! * `hot-inline` — a non-test, non-generic hot function that a hot
//!   function of another crate calls must carry `#[inline]`: a build
//!   without LTO cannot inline it across the crate boundary otherwise.
//!   Name-resolved edges count only where the call can cross: the callee
//!   is exported and the caller's crate depends on the callee's. The rule
//!   follows direct calls only; see [`scan_hot_inline`].

use crate::ast::{FileAst, FnDef};
use crate::lexer::{Delim, TokKind, Token};
use crate::rules::{ty_base, RawFinding};
use std::collections::{BTreeMap, BTreeSet};

/// Typed entry points: `(self type, method)`.
const TYPED_ROOTS: &[(&str, &str)] = &[
    ("Hierarchy", "instr_fetch"),
    ("Hierarchy", "data_access"),
    ("Hierarchy", "pte_access"),
    ("Hierarchy", "access_chain"),
    ("Cache", "probe"),
    ("Cache", "fill"),
    ("Tlb", "lookup"),
    ("Tlb", "fill"),
    ("Tlb", "fill_and_complete"),
    ("Tlb", "mshr_alloc"),
    ("Tlb", "merge"),
    ("PageWalker", "walk"),
    ("PageTable", "translate"),
    ("System", "translate"),
    ("System", "warm_fetch"),
    ("System", "warm_data"),
    ("Engine", "step"),
];

/// Per-access trait methods: every implementation is a root.
const POLICY_ROOTS: &[&str] = &["on_fill", "on_hit", "victim", "on_evict"];

/// One function in the cross-file table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into the analyzed file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub idx: usize,
}

/// The cross-file function table: every non-test function of the graph
/// files, by name and by `(self type, name)`.
struct Index<'a> {
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    by_typed: BTreeMap<&'a str, BTreeMap<&'a str, Vec<FnId>>>,
}

impl<'a> Index<'a> {
    fn build(files: &[(&'a FileAst, bool)]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_typed: BTreeMap<&str, BTreeMap<&str, Vec<FnId>>> = BTreeMap::new();
        for (fi, (ast, in_graph)) in files.iter().enumerate() {
            if !in_graph {
                continue;
            }
            for (gi, f) in ast.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = FnId { file: fi, idx: gi };
                by_name.entry(&f.name).or_default().push(id);
                if let Some(ty) = &f.self_ty {
                    let methods = by_typed.entry(ty.as_str()).or_default();
                    methods.entry(&f.name).or_default().push(id);
                }
            }
        }
        Self { by_name, by_typed }
    }

    /// The methods named `name` of type `ty`.
    fn typed(&self, ty: &str, name: &str) -> &[FnId] {
        self.by_typed
            .get(ty)
            .and_then(|methods| methods.get(name))
            .map_or(&[], Vec::as_slice)
    }

    /// The functions a call may bind to.
    fn targets(&self, callee: &Callee) -> &[FnId] {
        match callee {
            Callee::Typed(ty, name) => self.typed(ty, name),
            Callee::Named(name) => self.by_name.get(name.as_str()).map_or(&[], Vec::as_slice),
        }
    }
}

/// Computes the set of hot functions over the analyzed files (only files
/// with `in_graph` set participate — the simulator crates).
pub fn hot_set(files: &[(&FileAst, bool)]) -> BTreeSet<FnId> {
    let index = Index::build(files);
    let mut hot: BTreeSet<FnId> = BTreeSet::new();
    let mut queue: Vec<FnId> = Vec::new();
    let push = |id: FnId, hot: &mut BTreeSet<FnId>, queue: &mut Vec<FnId>| {
        if hot.insert(id) {
            queue.push(id);
        }
    };
    for &(ty, name) in TYPED_ROOTS {
        for &id in index.typed(ty, name) {
            push(id, &mut hot, &mut queue);
        }
    }
    for (fi, (ast, in_graph)) in files.iter().enumerate() {
        if !in_graph {
            continue;
        }
        for (gi, f) in ast.fns.iter().enumerate() {
            if !f.is_test
                && f.trait_name.as_deref() == Some("Policy")
                && POLICY_ROOTS.contains(&f.name.as_str())
            {
                push(FnId { file: fi, idx: gi }, &mut hot, &mut queue);
            }
        }
    }
    while let Some(id) = queue.pop() {
        let f = &files[id.file].0.fns[id.idx];
        for callee in callees(f) {
            for &c in index.targets(&callee) {
                push(c, &mut hot, &mut queue);
            }
        }
    }
    hot
}

/// The workspace crates each graph crate depends on (the `itpx-*` entries
/// of its `Cargo.toml`). A call can only cross into a crate that the
/// caller's crate depends on; `tests/fixtures.rs` checks the table
/// against the manifests.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("types", &[]),
    ("policy", &["types"]),
    ("core", &["types", "policy"]),
    ("vm", &["types", "policy"]),
    ("mem", &["types", "policy"]),
    ("cpu", &["types", "policy", "core", "vm", "mem", "trace"]),
    ("trace", &["types"]),
];

/// `true` when code in crate `from` can call into crate `to`, another
/// crate.
fn crosses(from: Option<&str>, to: Option<&str>) -> bool {
    CRATE_DEPS
        .iter()
        .any(|(c, deps)| Some(*c) == from && deps.iter().any(|d| Some(*d) == to))
}

/// The crate a repo-relative path belongs to: the `crates/<name>/`
/// segment.
fn crate_of(path: &str) -> Option<&str> {
    let rest = &path[path.find("crates/")? + "crates/".len()..];
    rest.split('/').next()
}

/// `hot-inline`: every non-generic hot function that a hot function of
/// another crate calls must carry `#[inline]` (or `#[inline(always)]`).
/// Without it a build without LTO keeps the call out of line at the crate
/// boundary. Name-resolved edges are kept only where the call can really
/// cross: the callee is exported (plain `pub`, or a trait method) and the
/// caller's crate depends on the callee's ([`CRATE_DEPS`]). Only direct
/// calls count: the body of an `#[inline]` or generic function is compiled
/// into its callers' crates, so its own callees are called from there too,
/// which this rule does not follow (DESIGN.md, "Inlining across crates",
/// gives the symbol diff that does). Returns `(file index, finding)`
/// pairs, one per callee, at its `fn` keyword.
pub fn scan_hot_inline(
    files: &[(&FileAst, bool)],
    hot: &BTreeSet<FnId>,
) -> Vec<(usize, RawFinding)> {
    let index = Index::build(files);
    let mut first_caller: BTreeMap<FnId, FnId> = BTreeMap::new();
    for &caller in hot {
        let ast = files[caller.file].0;
        let krate = crate_of(&ast.path);
        for callee in callees(&ast.fns[caller.idx]) {
            for &id in index.targets(&callee) {
                let target = files[id.file].0;
                let f = &target.fns[id.idx];
                let inlined = f
                    .attrs
                    .iter()
                    .any(|a| a == "inline" || a == "inline ( always )");
                if f.is_exported
                    && !f.is_generic
                    && !inlined
                    && crosses(krate, crate_of(&target.path))
                {
                    first_caller.entry(id).or_insert(caller);
                }
            }
        }
    }
    first_caller
        .into_iter()
        .map(|(id, caller)| {
            let f = &files[id.file].0.fns[id.idx];
            let from = &files[caller.file].0;
            let caller_fn = &from.fns[caller.idx];
            let caller_name = match &caller_fn.self_ty {
                Some(ty) => format!("{ty}::{}", caller_fn.name),
                None => caller_fn.name.clone(),
            };
            let note = format!(
                "called per access from `{caller_name}` in crates/{}/; add `#[inline]` so the call can inline across the crate boundary without LTO",
                crate_of(&from.path).unwrap_or("?")
            );
            let finding = RawFinding {
                rule: "hot-inline",
                line: f.span.line,
                col: f.span.col,
                note,
            };
            (id.file, finding)
        })
        .collect()
}

enum Callee {
    /// `Type::method(…)`
    Typed(String, String),
    /// `recv.method(…)` or `free_fn(…)`
    Named(String),
}

/// Extracts call targets from a function body by token shape.
fn callees(f: &FnDef) -> Vec<Callee> {
    let mut ts = Vec::new();
    crate::ast::linearize(&f.body, &mut ts);
    let mut out = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        ts.get(i)
            .and_then(|t: &Token| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    };
    let punct = |i: usize, s: &str| ts.get(i).is_some_and(|t| t.is_punct(s));
    let open = |i: usize| {
        ts.get(i)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
    };
    for i in 0..ts.len() {
        // `Type::method(`
        if let (Some(ty), true, Some(m), true) =
            (ident(i), punct(i + 1, "::"), ident(i + 2), open(i + 3))
        {
            if ty.chars().next().is_some_and(|c| c.is_uppercase()) {
                let ty = if ty == "Self" {
                    f.self_ty.clone().unwrap_or_else(|| ty.to_string())
                } else {
                    ty.to_string()
                };
                out.push(Callee::Typed(ty, m.to_string()));
            }
            continue;
        }
        // `.method(`
        if punct(i, ".") && open(i + 2) {
            if let Some(m) = ident(i + 1) {
                out.push(Callee::Named(m.to_string()));
            }
            continue;
        }
        // bare `call(` — not a macro, not a path segment, not a method.
        if let Some(name) = ident(i) {
            if open(i + 1)
                && !is_call_keyword(name)
                && !(i > 0 && (punct(i - 1, ".") || punct(i - 1, "::") || punct(i - 1, "!")))
            {
                out.push(Callee::Named(name.to_string()));
            }
        }
    }
    out
}

fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "as"
            | "in"
            | "fn"
            | "let"
            | "move"
            | "else"
            | "unsafe"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

/// Allocator constructors flagged wherever they appear in a hot body.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "from"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "with_capacity"),
];

/// Allocating conversions/duplications flagged on any receiver.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "clone",
    "reserve",
    "reserve_exact",
    "shrink_to_fit",
];

/// Growth calls flagged only when the receiver resolves to a std
/// collection (workspace receivers are covered by the call graph walking
/// into the callee's own body).
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "entry",
    "append",
    "push_str",
];

/// Std collection type names that own heap storage.
const STD_COLLECTIONS: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "BinaryHeap",
];

/// Integer types narrower than the address/cycle width.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// The per-function type environment: field, param, and `let` types by
/// identifier, used to resolve growth-call receivers and `+` operand
/// widths.
pub struct TypeEnv {
    map: BTreeMap<String, String>,
}

impl TypeEnv {
    /// Builds the environment for `f` in `ast`: all struct fields in the
    /// file, the function's params, and its type-ascribed `let`s.
    pub fn build(ast: &FileAst, f: &FnDef) -> Self {
        let mut map = BTreeMap::new();
        for field in &ast.fields {
            map.insert(field.name.clone(), field.ty.clone());
        }
        for (name, ty) in &f.params {
            map.insert(name.clone(), ty.clone());
        }
        let mut ts = Vec::new();
        crate::ast::linearize(&f.body, &mut ts);
        let mut i = 0usize;
        while i < ts.len() {
            if ts[i].is_ident("let") {
                let mut j = i + 1;
                if ts.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = ts.get(j).filter(|t| t.kind == TokKind::Ident) {
                    if ts.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                        // Type runs until `=` or `;` at depth 0.
                        let mut k = j + 2;
                        let mut ty = String::new();
                        let mut depth = 0i32;
                        while let Some(t) = ts.get(k) {
                            match t.text.as_str() {
                                "<" => depth += 1,
                                ">" => depth -= 1,
                                "=" | ";" if depth <= 0 => break,
                                _ => {}
                            }
                            if !ty.is_empty() {
                                ty.push(' ');
                            }
                            ty.push_str(&t.text);
                            k += 1;
                        }
                        map.insert(name.text.clone(), ty);
                    }
                }
            }
            i += 1;
        }
        Self { map }
    }

    /// Flattened type of `name`, if known.
    pub fn lookup(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(|s| s.as_str())
    }

    /// `true` when `name` is known to be a sub-64-bit integer.
    pub fn is_narrow(&self, name: &str) -> bool {
        self.lookup(name)
            .and_then(ty_base)
            .is_some_and(|b| NARROW_INTS.contains(&b))
    }

    /// Resolves a receiver type through `layers` levels of indexing
    /// (`Vec<BTreeMap<…>>` indexed once → `BTreeMap<…>`), returning the
    /// base type name.
    pub fn collection_base(&self, name: &str, layers: usize) -> Option<String> {
        let mut ty = self.lookup(name)?.to_string();
        for _ in 0..layers {
            ty = inner_of(&ty)?;
        }
        ty_base(&ty).map(|s| s.to_string())
    }
}

/// The first generic argument of a flattened type (`Vec < BTreeMap < a ,
/// b > >` → `BTreeMap < a , b >`).
fn inner_of(ty: &str) -> Option<String> {
    let words: Vec<&str> = ty.split_whitespace().collect();
    let open = words.iter().position(|w| *w == "<")?;
    let mut depth = 1i32;
    let mut end = words.len();
    for (i, w) in words.iter().enumerate().skip(open + 1) {
        match *w {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
    }
    Some(words[open + 1..end].join(" "))
}

/// Runs the three hot-path rules over one hot function.
pub fn scan_hot_fn(ast: &FileAst, f: &FnDef) -> Vec<RawFinding> {
    let env = TypeEnv::build(ast, f);
    let mut ts = Vec::new();
    crate::ast::linearize(&f.body, &mut ts);
    let mut out = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        ts.get(i)
            .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    };
    let punct = |i: usize, s: &str| ts.get(i).is_some_and(|t: &Token| t.is_punct(s));
    let open = |i: usize| {
        ts.get(i)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
    };
    let hot = format!("reachable from the per-access roots via `{}`", f.name);
    for i in 0..ts.len() {
        let t = &ts[i];
        // ---- hot-float ----
        if t.kind == TokKind::Float {
            out.push(RawFinding::at(
                "hot-float",
                t,
                format!("float literal; {hot}"),
            ));
        }
        if t.is_ident("as") {
            if let Some(ty) = ident(i + 1) {
                if ty == "f32" || ty == "f64" {
                    out.push(RawFinding::at("hot-float", t, format!("float cast; {hot}")));
                } else if NARROW_INTS.contains(&ty) && !width_cast_exempt(&ts, i, ty, &env) {
                    out.push(RawFinding::at(
                        "arith-width",
                        t,
                        format!("truncating cast to {ty}; mask explicitly or annotate; {hot}"),
                    ));
                }
            }
        }
        if (t.is_ident("f32") || t.is_ident("f64")) && punct(i + 1, "::") {
            out.push(RawFinding::at(
                "hot-float",
                t,
                format!("float intrinsic path; {hot}"),
            ));
        }
        // ---- hot-alloc: constructors and macros ----
        if t.kind == TokKind::Ident && punct(i + 1, "::") {
            if let Some(m) = ident(i + 2) {
                if ALLOC_CTORS.contains(&(t.text.as_str(), m)) && open(i + 3) {
                    out.push(RawFinding::at(
                        "hot-alloc",
                        t,
                        format!("{}::{} allocates; {hot}", t.text, m),
                    ));
                }
            }
        }
        if (t.is_ident("vec") || t.is_ident("format")) && punct(i + 1, "!") {
            out.push(RawFinding::at(
                "hot-alloc",
                t,
                format!("{}! allocates; {hot}", t.text),
            ));
        }
        // ---- hot-alloc: methods ----
        if punct(i, ".") && open(i + 2) {
            if let Some(m) = ident(i + 1) {
                if ALLOC_METHODS.contains(&m) {
                    out.push(RawFinding::at(
                        "hot-alloc",
                        &ts[i + 1],
                        format!(".{m}() allocates; {hot}"),
                    ));
                } else if GROW_METHODS.contains(&m) {
                    if let Some(base) = receiver_collection(&ts, i, &env) {
                        out.push(RawFinding::at(
                            "hot-alloc",
                            &ts[i + 1],
                            format!(".{m}() grows a {base}; {hot}"),
                        ));
                    }
                }
            }
        }
        // ---- arith-width: shifts and narrow addition ----
        if t.is_punct("<<") || t.is_punct("<<=") {
            let prev_lit = i > 0 && ts[i - 1].kind == TokKind::Int;
            // A literal or SCREAMING_CASE-const shift amount is a fixed,
            // reviewable distance; only a runtime-varying one can wander
            // past the operand width.
            let next_fixed = ts.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Int || (n.kind == TokKind::Ident && is_const_ident(&n.text))
            });
            if !prev_lit && !next_fixed {
                out.push(RawFinding::at(
                    "arith-width",
                    t,
                    format!("unchecked shift with non-literal operands; {hot}"),
                ));
            }
        }
        if t.is_punct("+") {
            let prev_narrow =
                i > 0 && ts[i - 1].kind == TokKind::Ident && env.is_narrow(&ts[i - 1].text);
            let next_narrow = ts
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && env.is_narrow(&n.text));
            if prev_narrow || next_narrow {
                out.push(RawFinding::at(
                    "arith-width",
                    t,
                    format!(
                        "unchecked `+` on a sub-64-bit operand; use wrapping/saturating; {hot}"
                    ),
                ));
            }
        }
    }
    out
}

/// Bit width of a narrow integer type name.
fn int_bits(ty: &str) -> Option<u32> {
    match ty {
        "u8" | "i8" => Some(8),
        "u16" | "i16" => Some(16),
        "u32" | "i32" => Some(32),
        "u64" | "i64" | "usize" | "isize" => Some(64),
        _ => None,
    }
}

/// `true` for SCREAMING_CASE constant names.
fn is_const_ident(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Walks back from `end` (exclusive) over one `(…)`/`[…]` group; returns
/// the index of its opening delimiter, or `None`.
fn matching_open(ts: &[Token], end: usize, delim: Delim) -> Option<usize> {
    let mut depth = 1i32;
    let mut j = end;
    while j > 0 && depth > 0 {
        j -= 1;
        if ts[j].kind == TokKind::Close(delim) {
            depth += 1;
        } else if ts[j].kind == TokKind::Open(delim) {
            depth -= 1;
        }
    }
    (depth == 0).then_some(j)
}

/// A truncating cast is exempt when the scanner can see the value fits:
///
/// * the operand is a literal (`3 as u8`);
/// * the value is masked — an `&` or `%` just before the `as`
///   (`(x & 0xfff) as u16`) or just after the cast (`(x as u16) & MASK`);
/// * the operand is a parenthesized constant expression (literals and
///   `SCREAMING_CASE` consts only: `((1 << RDP_BITS) - 1) as u16`);
/// * the operand is a call to an explicitly-modular helper
///   (`now.wrapping_sub(t) as i32`);
/// * the operand's type resolves through the type environment to an
///   integer no wider than the target (`level as u32` with `level: u8`),
///   including through index chains (`self.tables[t][i] as i32` with
///   `tables: Vec<Vec<i8>>`).
fn width_cast_exempt(ts: &[Token], as_idx: usize, dst: &str, env: &TypeEnv) -> bool {
    if as_idx == 0 {
        return true;
    }
    let prev = &ts[as_idx - 1];
    if matches!(prev.kind, TokKind::Int | TokKind::Float) {
        return true;
    }
    // Mask just before the cast.
    let lo = as_idx.saturating_sub(6);
    if ts[lo..as_idx]
        .iter()
        .any(|t| t.is_punct("&") || t.is_punct("%"))
    {
        return true;
    }
    // Mask applied to the cast result: `(x as u16) & MASK`.
    let hi = (as_idx + 5).min(ts.len());
    if ts[as_idx + 2..hi]
        .iter()
        .any(|t| t.is_punct("&") || t.is_punct("%"))
    {
        return true;
    }
    if prev.kind == TokKind::Close(Delim::Paren) {
        if let Some(open) = matching_open(ts, as_idx - 1, Delim::Paren) {
            // Constant expression: only literals, consts, and operators.
            let const_expr = ts[open + 1..as_idx - 1].iter().all(|t| match t.kind {
                TokKind::Ident => is_const_ident(&t.text),
                TokKind::Int => true,
                TokKind::Float | TokKind::Str | TokKind::Char | TokKind::Lifetime => false,
                _ => true,
            });
            if const_expr {
                return true;
            }
            // Explicitly-modular callee: `x.wrapping_sub(y) as i32`.
            if open > 0 && ts[open - 1].kind == TokKind::Ident {
                let callee = &ts[open - 1].text;
                if callee.starts_with("wrapping_")
                    || callee.starts_with("saturating_")
                    || callee.starts_with("checked_")
                    || callee.starts_with("rotate_")
                {
                    return true;
                }
            }
        }
        return false;
    }
    // Typed operand: plain ident, `recv.field`, or an index chain.
    let dst_bits = int_bits(dst).unwrap_or(0);
    let mut i = as_idx;
    let mut layers = 0usize;
    while i > 0 && ts[i - 1].kind == TokKind::Close(Delim::Bracket) {
        match matching_open(ts, i - 1, Delim::Bracket) {
            Some(open) => {
                layers += 1;
                i = open;
            }
            None => return false,
        }
    }
    if i > 0 && ts[i - 1].kind == TokKind::Ident {
        if let Some(src) = env.collection_base(&ts[i - 1].text, layers) {
            if int_bits(&src).is_some_and(|b| b <= dst_bits) {
                return true;
            }
        }
    }
    false
}

/// Resolves the receiver of `.method(` at `dot` to a std collection base
/// type, if the chain is `name.…`, `self.field.…`, or either indexed.
fn receiver_collection(ts: &[Token], dot: usize, env: &TypeEnv) -> Option<String> {
    let mut i = dot;
    let mut layers = 0usize;
    // Step back over `[…]` index groups.
    while i > 0 && ts[i - 1].kind == TokKind::Close(Delim::Bracket) {
        let mut depth = 1i32;
        let mut j = i - 1;
        while j > 0 && depth > 0 {
            j -= 1;
            match ts[j].kind {
                TokKind::Close(Delim::Bracket) => depth += 1,
                TokKind::Open(Delim::Bracket) => depth -= 1,
                _ => {}
            }
        }
        layers += 1;
        i = j;
    }
    if i == 0 || ts[i - 1].kind != TokKind::Ident {
        return None;
    }
    let name = &ts[i - 1].text;
    let base = env.collection_base(name, layers)?;
    STD_COLLECTIONS.contains(&base.as_str()).then_some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;

    fn hot_findings(src: &str) -> Vec<&'static str> {
        let ast = parse_file("crates/mem/src/x.rs", src).expect("parses");
        let files = vec![(&ast, true)];
        let hot = hot_set(&files);
        let mut out = Vec::new();
        for id in hot {
            for f in scan_hot_fn(&ast, &ast.fns[id.idx]) {
                out.push(f.rule);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn alloc_in_root_is_flagged() {
        let src = "struct Cache { v: Vec<u64> }\n\
                   impl Cache { pub fn probe(&mut self) { self.v.push(1); } }";
        assert_eq!(hot_findings(src), ["hot-alloc"]);
    }

    #[test]
    fn alloc_behind_a_call_is_flagged() {
        let src = "struct Cache { v: Vec<u64> }\n\
                   impl Cache {\n\
                       pub fn probe(&mut self) { self.grow(); }\n\
                       fn grow(&mut self) { self.v.push(1); }\n\
                   }";
        assert_eq!(hot_findings(src), ["hot-alloc"]);
    }

    #[test]
    fn cold_alloc_is_not_flagged() {
        let src = "struct Cache { v: Vec<u64> }\n\
                   impl Cache {\n\
                       pub fn probe(&mut self) {}\n\
                       pub fn report(&self) -> Vec<u64> { self.v.clone() }\n\
                   }";
        assert!(hot_findings(src).is_empty());
    }

    #[test]
    fn collect_and_boxes_are_flagged() {
        let src = "struct Tlb { }\n\
                   impl Tlb { pub fn lookup(&mut self) { let v: Vec<u64> = (0..4).collect(); let b = Box::new(v); } }";
        assert_eq!(hot_findings(src), ["hot-alloc", "hot-alloc"]);
    }

    #[test]
    fn btreemap_insert_through_index_is_flagged() {
        let src = "struct Mock { samples: Vec<BTreeMap<u64, u32>> }\n\
                   impl Policy for Mock { fn on_fill(&mut self, s: usize) { self.samples[s].insert(1, 2); } }";
        assert_eq!(hot_findings(src), ["hot-alloc"]);
    }

    #[test]
    fn float_in_hot_path_is_flagged() {
        let src = "struct PageWalker {}\n\
                   impl PageWalker { pub fn walk(&mut self, t: u64) { let x = t as f64 * 0.5; } }";
        assert_eq!(hot_findings(src), ["hot-float", "hot-float"]);
    }

    #[test]
    fn narrow_cast_is_flagged_masked_is_not() {
        let flagged = "struct Cache {}\n\
                       impl Cache { pub fn probe(&mut self, x: u64) { let s = x as u16; } }";
        assert_eq!(hot_findings(flagged), ["arith-width"]);
        let masked = "struct Cache {}\n\
                      impl Cache { pub fn probe(&mut self, x: u64) { let s = (x & 0xfff) as u16; } }";
        assert!(hot_findings(masked).is_empty());
    }

    #[test]
    fn shift_with_literal_is_fine_nonliteral_is_not() {
        let fine = "struct Cache { valid: u64 }\n\
                    impl Cache { pub fn probe(&mut self, way: u32) { self.valid |= 1 << way; } }";
        assert!(hot_findings(fine).is_empty());
        let bad = "struct Cache {}\n\
                   impl Cache { pub fn probe(&mut self, b: u64, s: u64) -> u64 { b << s } }";
        assert_eq!(hot_findings(bad), ["arith-width"]);
    }

    #[test]
    fn narrow_add_is_flagged_saturating_is_not() {
        let bad = "struct E { confidence: u8 }\n\
                   impl E { pub fn probe(&mut self) { self.confidence = self.confidence + 1; } }";
        // `probe` on a non-Cache type is still a typed root by name only if
        // the self type matches — `E::probe` is not a root, so force one:
        let src = "struct Cache { confidence: u8 }\n\
                   impl Cache { pub fn probe(&mut self) { self.confidence = self.confidence + 1; } }";
        let _ = bad;
        assert_eq!(hot_findings(src), ["arith-width"]);
        let good = "struct Cache { confidence: u8 }\n\
                    impl Cache { pub fn probe(&mut self) { self.confidence = self.confidence.saturating_add(1).min(3); } }";
        assert!(hot_findings(good).is_empty());
    }

    /// Names of the functions `hot-inline` flags over several files.
    fn inline_findings(files: &[(&str, &str)]) -> Vec<String> {
        let asts: Vec<FileAst> = files
            .iter()
            .map(|(path, src)| parse_file(path, src).expect("parses"))
            .collect();
        let graph: Vec<(&FileAst, bool)> = asts.iter().map(|a| (a, true)).collect();
        let hot = hot_set(&graph);
        scan_hot_inline(&graph, &hot)
            .into_iter()
            .map(|(fi, f)| {
                let callee = asts[fi].fns.iter().find(|g| g.span.line == f.line);
                callee.expect("finding sits on a fn").name.clone()
            })
            .collect()
    }

    const ENGINE: (&str, &str) = (
        "crates/cpu/src/engine.rs",
        "struct Engine {}\n\
         impl Engine { pub fn step(&mut self, h: &mut Hierarchy) { h.instr_fetch(1); } }",
    );

    #[test]
    fn cross_crate_call_without_inline_is_flagged() {
        let mem = "struct Hierarchy {}\n\
                   impl Hierarchy { pub fn instr_fetch(&mut self, pa: u64) {} }";
        assert_eq!(
            inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", mem)]),
            ["instr_fetch"]
        );
        let inlined = "struct Hierarchy {}\n\
                       impl Hierarchy { #[inline] pub fn instr_fetch(&mut self, pa: u64) {} }";
        assert!(inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", inlined)]).is_empty());
    }

    #[test]
    fn generic_callees_are_not_flagged() {
        let mem = "struct Hierarchy<P> { p: P }\n\
                   impl<P: Copy> Hierarchy<P> { pub fn instr_fetch(&mut self, pa: u64) {} }";
        assert!(inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", mem)]).is_empty());
        let mem = "pub fn instr_fetch<T: Into<u64>>(pa: T) {}";
        assert!(inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", mem)]).is_empty());
    }

    #[test]
    fn same_crate_callers_are_not_flagged() {
        let cpu = "pub fn instr_fetch(pa: u64) {}";
        assert!(inline_findings(&[ENGINE, ("crates/cpu/src/fetch.rs", cpu)]).is_empty());
    }

    #[test]
    fn test_only_callees_are_not_flagged() {
        let mem = "#[cfg(test)]\n\
                   mod tests { pub fn instr_fetch(pa: u64) {} }";
        assert!(inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", mem)]).is_empty());
    }

    #[test]
    fn calls_that_cannot_cross_are_not_flagged() {
        // A private function is not nameable from cpu, and policy does
        // not depend on cpu: neither name match is a real edge.
        let mem = "fn instr_fetch(pa: u64) {}";
        assert!(inline_findings(&[ENGINE, ("crates/mem/src/hierarchy.rs", mem)]).is_empty());
        let policy = "struct Lru {}\n\
                      impl Policy<M> for Lru { fn on_hit(&mut self) { self.bump(); } }";
        let cpu = "pub fn bump() {}";
        assert!(inline_findings(&[
            ("crates/policy/src/lru.rs", policy),
            ("crates/cpu/src/bump.rs", cpu)
        ])
        .is_empty());
    }

    #[test]
    fn policy_impls_are_roots() {
        let src = "struct P {}\n\
                   impl Policy<CacheMeta> for P { fn victim(&mut self) -> usize { let v: Vec<u32> = Vec::with_capacity(4); v.len() } }";
        assert_eq!(hot_findings(src), ["hot-alloc"]);
    }
}
