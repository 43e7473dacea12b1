//! Token trees and the item-level syntax model.
//!
//! The lexer's flat token stream is first folded into *token trees*
//! (bracketed groups nest), then an item parser walks the trees and
//! recognizes the structure the rules need: modules (with structural
//! `#[cfg(test)]` resolution), functions (name, `impl` context, trait
//! context, signature, body), and struct fields (for receiver-type
//! resolution). Function bodies stay as token trees — the rules
//! pattern-match them structurally, which is exactly the level the
//! workspace's invariants live at (call expressions, index expressions,
//! casts, path segments), without needing full expression parsing.

use crate::lexer::{self, Comment, Delim, Span, TokKind, Token};

/// A token tree: a token, or a delimited group of nested trees.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A leaf token.
    Tok(Token),
    /// A `(…)` / `[…]` / `{…}` group.
    Group(Group),
}

impl Tree {
    /// The leaf token, if this tree is one.
    pub fn token(&self) -> Option<&Token> {
        match self {
            Tree::Tok(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this tree is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Tok(_) => None,
            Tree::Group(g) => Some(g),
        }
    }

    /// Span of the tree's first character.
    pub fn span(&self) -> Span {
        match self {
            Tree::Tok(t) => t.span,
            Tree::Group(g) => g.open,
        }
    }

    /// `true` for an identifier leaf with the given text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.token().is_some_and(|t| t.is_ident(s))
    }

    /// `true` for a punctuation leaf with the given text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.token().is_some_and(|t| t.is_punct(s))
    }
}

/// A delimited group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Delimiter kind.
    pub delim: Delim,
    /// Span of the opening delimiter.
    pub open: Span,
    /// Span of the closing delimiter.
    pub close: Span,
    /// Nested trees.
    pub trees: Vec<Tree>,
}

/// Folds a flat token stream into token trees.
pub fn build_trees(tokens: Vec<Token>) -> Result<Vec<Tree>, String> {
    let mut stack: Vec<(Delim, Span, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in tokens {
        match tok.kind {
            TokKind::Open(d) => {
                stack.push((d, tok.span, std::mem::take(&mut top)));
            }
            TokKind::Close(d) => {
                let Some((open_delim, open_span, parent)) = stack.pop() else {
                    return Err(format!(
                        "{}:{}: unbalanced closing delimiter `{}`",
                        tok.span.line, tok.span.col, tok.text
                    ));
                };
                if open_delim != d {
                    return Err(format!(
                        "{}:{}: mismatched delimiter (opened at {}:{})",
                        tok.span.line, tok.span.col, open_span.line, open_span.col
                    ));
                }
                let group = Group {
                    delim: d,
                    open: open_span,
                    close: tok.span,
                    trees: std::mem::replace(&mut top, parent),
                };
                top.push(Tree::Group(group));
            }
            _ => top.push(Tree::Tok(tok)),
        }
    }
    if let Some((_, open_span, _)) = stack.pop() {
        return Err(format!(
            "{}:{}: unclosed delimiter",
            open_span.line, open_span.col
        ));
    }
    Ok(top)
}

/// One function definition (free, inherent, trait-impl, or trait default).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `impl` self-type name (last path segment), when inside an impl.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for Type` methods, or the trait's own
    /// name for default methods in `trait … { }` blocks.
    pub trait_name: Option<String>,
    /// `true` when the function or an enclosing module/item is gated on
    /// `#[cfg(test)]`, or the function carries `#[test]`.
    pub is_test: bool,
    /// Span of the `fn` keyword.
    pub span: Span,
    /// Line of the body's closing brace (the `fn` line for bodyless
    /// declarations).
    pub body_end_line: u32,
    /// Parameter list `(name, flattened type text)` — `self` receivers are
    /// omitted.
    pub params: Vec<(String, String)>,
    /// Body token trees; empty for bodyless trait declarations.
    pub body: Vec<Tree>,
    /// Raw attribute texts (`cfg(test)`, `inline`, `allow(dead_code)`, …).
    pub attrs: Vec<String>,
    /// `true` when the function is compiled per use rather than once: it
    /// has type or const parameters, takes an `impl Trait` argument, sits
    /// in an `impl` with type or const parameters, or is a trait's default
    /// method.
    pub is_generic: bool,
    /// `true` when code in another crate can name the function: it is
    /// declared plain `pub` (not `pub(crate)` or `pub(super)`), or it is a
    /// trait method.
    pub is_exported: bool,
}

/// One struct field: `owner.name: ty` (type text flattened).
#[derive(Debug, Clone)]
pub struct StructField {
    /// Owning struct's name.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Flattened type text, e.g. `Vec < BTreeMap < u64 , SampleEntry > >`.
    pub ty: String,
}

/// The parsed model of one source file.
#[derive(Debug)]
pub struct FileAst {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// Every function in the file, in source order.
    pub fns: Vec<FnDef>,
    /// Every named struct field in the file.
    pub fields: Vec<StructField>,
    /// The comment stream.
    pub comments: Vec<Comment>,
    /// Source lines (for excerpts in findings).
    pub lines: Vec<String>,
    /// The full flat token stream (for file-scope rules that must also see
    /// `use` imports, struct fields, and const initializers).
    pub tokens: Vec<Token>,
    /// Inclusive line ranges of `#[cfg(test)]`-gated items.
    pub test_ranges: Vec<(u32, u32)>,
    /// `true` for files under a `tests/` directory: the whole file is test
    /// code.
    pub file_is_test: bool,
}

impl FileAst {
    /// Line `line` (1-based), trimmed, for finding excerpts.
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// `true` when a comment exists on `line` or the line above — the
    /// `panicking-index` rule's "justifying comment" exemption.
    pub fn has_comment_near(&self, line: u32) -> bool {
        self.comments
            .iter()
            .any(|c| c.span.line == line || c.end_line == line || c.end_line + 1 == line)
    }

    /// `true` when `line` falls inside a `#[cfg(test)]`-gated item (or the
    /// whole file is test code).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.file_is_test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }
}

/// Parses one file into its syntax model. Any lex or tree error is
/// returned as a hard error: the engine refuses to vouch for files it
/// cannot parse.
pub fn parse_file(path: &str, src: &str) -> Result<FileAst, String> {
    let (tokens, comments) = lexer::lex(src).map_err(|e| format!("{path}:{e}"))?;
    let trees = build_trees(tokens.clone()).map_err(|e| format!("{path}:{e}"))?;
    let file_is_test = path.contains("/tests/");
    let mut ast = FileAst {
        path: path.to_string(),
        fns: Vec::new(),
        fields: Vec::new(),
        comments,
        lines: src.lines().map(|l| l.to_string()).collect(),
        tokens,
        test_ranges: Vec::new(),
        file_is_test,
    };
    parse_items(&trees, &ItemCtx::new(file_is_test), &mut ast);
    Ok(ast)
}

/// Item-walk context: the enclosing module/impl/trait state.
#[derive(Debug, Clone)]
struct ItemCtx {
    in_test: bool,
    self_ty: Option<String>,
    trait_name: Option<String>,
    /// The enclosing `impl` has type or const parameters.
    generic: bool,
}

impl ItemCtx {
    fn new(in_test: bool) -> Self {
        Self {
            in_test,
            self_ty: None,
            trait_name: None,
            generic: false,
        }
    }
}

/// `true` when an attribute gates its item to test builds: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]` — but not `#[cfg(not(test))]`.
fn attr_is_test(attr: &str) -> bool {
    if attr == "test" {
        return true;
    }
    attr.starts_with("cfg") && attr.contains("test") && !attr.contains("not")
}

/// Flattens a token-tree run into a canonical space-separated string
/// (used for attribute and type texts).
fn flatten(trees: &[Tree]) -> String {
    let mut out = String::new();
    for t in trees {
        if !out.is_empty() {
            out.push(' ');
        }
        match t {
            Tree::Tok(tok) => out.push_str(&tok.text),
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ("(", ")"),
                    Delim::Bracket => ("[", "]"),
                    Delim::Brace => ("{", "}"),
                };
                out.push_str(open);
                let inner = flatten(&g.trees);
                if !inner.is_empty() {
                    out.push(' ');
                    out.push_str(&inner);
                    out.push(' ');
                }
                out.push_str(close);
            }
        }
    }
    out
}

/// Skips a generics region starting at `<` (index `i` points at the `<`).
/// Returns the index just past the matching `>`. Merged shift tokens
/// (`<<`, `>>`) count twice.
fn skip_generics(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < trees.len() {
        if let Some(t) = trees[i].token() {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "->" => {}
                _ => {}
            }
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// `true` when the generics region `trees[lo..hi]` declares a type or
/// const parameter; lifetime-only generics compile once.
fn declares_type_params(trees: &[Tree], lo: usize, hi: usize) -> bool {
    trees[lo..hi].iter().any(|t| match t {
        Tree::Tok(tok) => tok.kind == TokKind::Ident,
        Tree::Group(_) => true,
    })
}

/// `true` when the `fn` keyword at `fn_idx` follows a plain `pub`,
/// skipping the qualifiers ([`is_fn_qualifier`]) between them.
fn declared_pub(trees: &[Tree], fn_idx: usize) -> bool {
    trees[..fn_idx]
        .iter()
        .rev()
        .find(|t| !is_fn_qualifier(t))
        .and_then(Tree::token)
        .is_some_and(|t| t.is_ident("pub"))
}

/// `const`, `async`, `unsafe`, `extern` or an ABI string such as `"C"`:
/// the qualifiers that may stand between a visibility and `fn`.
fn is_fn_qualifier(t: &Tree) -> bool {
    t.token().is_some_and(|t| {
        t.kind == TokKind::Str
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| t.is_ident(q))
    })
}

/// Recognizes items in a tree run, recursing into module/impl/trait
/// bodies and collecting functions and struct fields.
fn parse_items(trees: &[Tree], ctx: &ItemCtx, ast: &mut FileAst) {
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        // Attribute: `#` `[ … ]` (or inner `#` `!` `[ … ]`, ignored).
        if trees[i].is_punct("#") {
            if let Some(g) = trees.get(i + 1).and_then(|t| t.group()) {
                if g.delim == Delim::Bracket {
                    pending_attrs.push(flatten(&g.trees));
                    i += 2;
                    continue;
                }
            }
            if trees.get(i + 1).is_some_and(|t| t.is_punct("!")) {
                i += 3; // `#` `!` `[…]`
                continue;
            }
            i += 1;
            continue;
        }
        let Some(tok) = trees[i].token() else {
            i += 1;
            pending_attrs.clear();
            continue;
        };
        if tok.kind != TokKind::Ident {
            i += 1;
            // `;`, `=`, … end an item: drop attributes that bound nothing.
            pending_attrs.clear();
            continue;
        }
        match tok.text.as_str() {
            "mod" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_test = ctx.in_test || attrs.iter().any(|a| attr_is_test(a));
                let mod_line = tok.span.line;
                // `mod name { … }` or `mod name;`
                let mut j = i + 1;
                while j < trees.len() {
                    if let Some(g) = trees[j].group() {
                        if g.delim == Delim::Brace {
                            if is_test && !ctx.in_test {
                                ast.test_ranges.push((mod_line, g.close.line));
                            }
                            parse_items(&g.trees, &ItemCtx::new(is_test), ast);
                            break;
                        }
                    }
                    if trees[j].is_punct(";") {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            "fn" => {
                let attrs = std::mem::take(&mut pending_attrs);
                i = parse_fn(trees, i, ctx, attrs, ast);
            }
            "impl" => {
                pending_attrs.clear();
                i = parse_impl(trees, i, ctx, ast);
            }
            "trait" => {
                pending_attrs.clear();
                i = parse_trait(trees, i, ctx, ast);
            }
            "struct" => {
                pending_attrs.clear();
                i = parse_struct(trees, i, ast);
            }
            "enum" | "union" => {
                pending_attrs.clear();
                // Skip to the variant/body group or `;`.
                let mut j = i + 1;
                while j < trees.len() {
                    if trees[j].group().is_some_and(|g| g.delim == Delim::Brace)
                        || trees[j].is_punct(";")
                    {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            "macro_rules" => {
                pending_attrs.clear();
                // `macro_rules ! name { … }` — definitions are not
                // expanded; rules cannot see through them (DESIGN.md).
                let mut j = i + 1;
                while j < trees.len() {
                    if trees[j].group().is_some_and(|g| g.delim == Delim::Brace) {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            "use" | "extern" | "type" | "static" | "const" => {
                // `const`/`extern` qualifiers (`const unsafe fn`,
                // `extern "C" fn`, …) carry into the fn branch with the
                // attributes.
                let mut j = i + 1;
                if matches!(tok.text.as_str(), "const" | "extern") {
                    while trees.get(j).is_some_and(is_fn_qualifier) {
                        j += 1;
                    }
                    if trees.get(j).is_some_and(|t| t.is_ident("fn")) {
                        i = j;
                        continue;
                    }
                }
                pending_attrs.clear();
                // An `extern "ABI" { … }` block is one brace group; its
                // bodyless declarations hold nothing to lint.
                if tok.text == "extern"
                    && trees
                        .get(j)
                        .is_some_and(|t| t.group().is_some_and(|g| g.delim == Delim::Brace))
                {
                    i = j + 1;
                    continue;
                }
                // Everything else skips to `;` (initializers of
                // consts/statics are compile-time evaluated — no
                // steady-state behavior).
                while j < trees.len() && !trees[j].is_punct(";") {
                    j += 1;
                }
                i = j + 1;
            }
            _ => {
                // Modifiers (`pub`, `unsafe`, `async`, `default`) keep
                // pending attributes alive for the item they decorate.
                let keeps_attrs =
                    matches!(tok.text.as_str(), "pub" | "unsafe" | "async" | "default");
                if !keeps_attrs {
                    pending_attrs.clear();
                }
                // `pub ( crate )` visibility group.
                if tok.text == "pub"
                    && trees
                        .get(i + 1)
                        .is_some_and(|t| t.group().is_some_and(|g| g.delim == Delim::Paren))
                {
                    i += 2;
                    continue;
                }
                i += 1;
            }
        }
    }
}

/// Parses `fn name <generics>? ( params ) -> ret? where…? { body }`.
/// Returns the index just past the function.
fn parse_fn(
    trees: &[Tree],
    fn_idx: usize,
    ctx: &ItemCtx,
    attrs: Vec<String>,
    ast: &mut FileAst,
) -> usize {
    let span = trees[fn_idx].span();
    let Some(name_tok) = trees.get(fn_idx + 1).and_then(|t| t.token()) else {
        return fn_idx + 1;
    };
    let name = name_tok.text.clone();
    let mut i = fn_idx + 2;
    // Generics.
    let mut is_generic = ctx.generic || (ctx.trait_name.is_some() && ctx.self_ty.is_none());
    if trees.get(i).is_some_and(|t| t.is_punct("<")) {
        let end = skip_generics(trees, i);
        is_generic |= declares_type_params(trees, i, end);
        i = end;
    }
    // Parameter group.
    let mut params = Vec::new();
    if let Some(g) = trees.get(i).and_then(|t| t.group()) {
        if g.delim == Delim::Paren {
            params = parse_params(&g.trees);
            is_generic |= params
                .iter()
                .any(|(_, ty)| ty.split(' ').any(|w| w == "impl"));
            i += 1;
        }
    }
    // Skip to body `{ … }` or declaration-ending `;`.
    let mut body = Vec::new();
    let mut end_line = span.line;
    while i < trees.len() {
        if let Some(g) = trees[i].group() {
            if g.delim == Delim::Brace {
                body = g.trees.clone();
                end_line = g.close.line;
                i += 1;
                break;
            }
        }
        if trees[i].is_punct(";") {
            i += 1;
            break;
        }
        i += 1;
    }
    let is_test = ctx.in_test || attrs.iter().any(|a| attr_is_test(a));
    if is_test && !ctx.in_test {
        ast.test_ranges.push((span.line, end_line));
    }
    let is_exported = ctx.trait_name.is_some() || declared_pub(trees, fn_idx);
    ast.fns.push(FnDef {
        name,
        self_ty: ctx.self_ty.clone(),
        trait_name: ctx.trait_name.clone(),
        is_test,
        span,
        body_end_line: end_line,
        params,
        body,
        attrs,
        is_generic,
        is_exported,
    });
    i
}

/// Extracts `(name, type text)` pairs from a parameter group's trees.
fn parse_params(trees: &[Tree]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    // Split on top-level commas (angle-bracket depth tracked).
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut segments: Vec<&[Tree]> = Vec::new();
    for (i, t) in trees.iter().enumerate() {
        if let Some(tok) = t.token() {
            match tok.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "," if depth <= 0 => {
                    segments.push(&trees[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    if start < trees.len() {
        segments.push(&trees[start..]);
    }
    for seg in segments {
        // `name : Type` — find the top-level `:` (not `::`).
        let colon = seg.iter().position(|t| t.is_punct(":"));
        let Some(c) = colon else { continue };
        if c == 0 {
            continue;
        }
        let Some(name_tok) = seg[c - 1].token() else {
            continue;
        };
        if name_tok.kind != TokKind::Ident || name_tok.text == "self" {
            continue;
        }
        out.push((name_tok.text.clone(), flatten(&seg[c + 1..])));
    }
    out
}

/// Parses `impl <generics>? [Trait for] Type { items }`. Returns the index
/// just past the impl block.
fn parse_impl(trees: &[Tree], impl_idx: usize, ctx: &ItemCtx, ast: &mut FileAst) -> usize {
    let mut i = impl_idx + 1;
    let mut generic = false;
    if trees.get(i).is_some_and(|t| t.is_punct("<")) {
        let end = skip_generics(trees, i);
        generic = declares_type_params(trees, i, end);
        i = end;
    }
    // Collect header idents (angle regions masked) until the brace body.
    let mut header: Vec<String> = Vec::new();
    let mut depth = 0i32;
    let mut body: Option<&Group> = None;
    while i < trees.len() {
        match &trees[i] {
            Tree::Group(g) if g.delim == Delim::Brace && depth <= 0 => {
                body = Some(g);
                i += 1;
                break;
            }
            Tree::Tok(tok) => {
                match tok.text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ if tok.kind == TokKind::Ident && depth <= 0 => {
                        header.push(tok.text.clone());
                    }
                    _ => {}
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // `impl Trait for Type` → trait = last ident before `for`,
    // type = last ident after; `impl Type` → type = last ident.
    let (trait_name, self_ty) = match header.iter().position(|s| s == "for") {
        Some(p) => (
            header[..p].iter().rev().find(|s| !is_keyword(s)).cloned(),
            header[p + 1..]
                .iter()
                .rev()
                .find(|s| !is_keyword(s))
                .cloned(),
        ),
        None => (None, header.iter().rev().find(|s| !is_keyword(s)).cloned()),
    };
    if let Some(g) = body {
        let sub = ItemCtx {
            in_test: ctx.in_test,
            self_ty,
            trait_name,
            generic,
        };
        parse_items(&g.trees, &sub, ast);
    }
    i
}

/// Parses `trait Name … { items }` (default method bodies are linted).
fn parse_trait(trees: &[Tree], trait_idx: usize, ctx: &ItemCtx, ast: &mut FileAst) -> usize {
    let name = trees
        .get(trait_idx + 1)
        .and_then(|t| t.token())
        .map(|t| t.text.clone());
    let mut i = trait_idx + 1;
    let mut depth = 0i32;
    while i < trees.len() {
        match &trees[i] {
            Tree::Group(g) if g.delim == Delim::Brace && depth <= 0 => {
                let sub = ItemCtx {
                    trait_name: name,
                    ..ItemCtx::new(ctx.in_test)
                };
                parse_items(&g.trees, &sub, ast);
                return i + 1;
            }
            Tree::Tok(tok) => {
                match tok.text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    ";" if depth <= 0 => return i + 1,
                    _ => {}
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parses `struct Name { fields }` (tuple/unit structs carry no named
/// fields and are skipped).
fn parse_struct(trees: &[Tree], struct_idx: usize, ast: &mut FileAst) -> usize {
    let Some(name) = trees
        .get(struct_idx + 1)
        .and_then(|t| t.token())
        .map(|t| t.text.clone())
    else {
        return struct_idx + 1;
    };
    let mut i = struct_idx + 2;
    if trees.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_generics(trees, i);
    }
    while i < trees.len() {
        if let Some(g) = trees[i].group() {
            match g.delim {
                Delim::Brace => {
                    collect_fields(&g.trees, &name, ast);
                    return i + 1;
                }
                Delim::Paren => return i + 1, // tuple struct
                Delim::Bracket => {}
            }
        }
        if trees[i].is_punct(";") {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Collects `name: Type` fields from a struct body (attributes and
/// visibility skipped; types flattened).
fn collect_fields(trees: &[Tree], owner: &str, ast: &mut FileAst) {
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < trees.len() {
        // Skip field attributes.
        if trees[i].is_punct("#") {
            i += 2;
            continue;
        }
        let is_colon = trees[i].is_punct(":") && depth <= 0;
        if let Some(tok) = trees[i].token() {
            match tok.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
        }
        if is_colon && i > 0 {
            if let Some(name_tok) = trees[i - 1].token() {
                if name_tok.kind == TokKind::Ident {
                    // Type runs to the next top-level comma.
                    let mut j = i + 1;
                    let mut d = 0i32;
                    while j < trees.len() {
                        if let Some(t) = trees[j].token() {
                            match t.text.as_str() {
                                "<" => d += 1,
                                "<<" => d += 2,
                                ">" => d -= 1,
                                ">>" => d -= 2,
                                "," if d <= 0 => break,
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    ast.fields.push(StructField {
                        owner: owner.to_string(),
                        name: name_tok.text.clone(),
                        ty: flatten(&trees[i + 1..j]),
                    });
                    i = j + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "pub"
            | "unsafe"
            | "impl"
            | "for"
            | "where"
            | "dyn"
            | "mut"
            | "ref"
            | "const"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "as"
            | "in"
    )
}

/// Flattens a body's trees into a linear token list with group boundary
/// markers — the form most rule scans consume. Group opens/closes are
/// re-materialized as punct-like tokens so patterns can see structure.
pub fn linearize(trees: &[Tree], out: &mut Vec<Token>) {
    for t in trees {
        match t {
            Tree::Tok(tok) => out.push(tok.clone()),
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ("(", ")"),
                    Delim::Bracket => ("[", "]"),
                    Delim::Brace => ("{", "}"),
                };
                out.push(Token {
                    kind: TokKind::Open(g.delim),
                    text: open.to_string(),
                    span: g.open,
                });
                linearize(&g.trees, out);
                out.push(Token {
                    kind: TokKind::Close(g.delim),
                    text: close.to_string(),
                    span: g.close,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileAst {
        parse_file("crates/mem/src/x.rs", src).expect("parses")
    }

    #[test]
    fn free_fn_is_found() {
        let ast = parse("pub fn foo(a: u64, b: &mut Vec<u8>) -> u64 { a }\n");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "foo");
        assert_eq!(ast.fns[0].params[0], ("a".into(), "u64".into()));
        assert!(ast.fns[0].params[1].1.contains("Vec"));
        assert!(!ast.fns[0].is_test);
    }

    #[test]
    fn impl_context_and_trait() {
        let ast = parse(
            "struct Cache { sets: usize }\n\
             impl Cache { fn probe(&mut self) {} }\n\
             impl Policy<CacheMeta> for Cache { fn victim(&mut self) -> usize { 0 } }\n",
        );
        let probe = ast.fns.iter().find(|f| f.name == "probe").unwrap();
        assert_eq!(probe.self_ty.as_deref(), Some("Cache"));
        assert_eq!(probe.trait_name, None);
        let victim = ast.fns.iter().find(|f| f.name == "victim").unwrap();
        assert_eq!(victim.self_ty.as_deref(), Some("Cache"));
        assert_eq!(victim.trait_name.as_deref(), Some("Policy"));
    }

    #[test]
    fn cfg_test_modules_mark_fns_test() {
        let ast = parse(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n",
        );
        assert!(!ast.fns.iter().find(|f| f.name == "prod").unwrap().is_test);
        assert!(ast.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(ast.fns.iter().find(|f| f.name == "t").unwrap().is_test);
    }

    #[test]
    fn single_line_cfg_test_mod_is_resolved() {
        // The legacy regex required `#[cfg(test)]` on its own line; the
        // structural parser does not care about formatting.
        let ast = parse("#[cfg(test)] mod tests { fn t() { bad(); } }\n");
        assert!(ast.fns[0].is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let ast = parse("#[cfg(not(test))] fn prod() {}\n");
        assert!(!ast.fns[0].is_test);
    }

    #[test]
    fn struct_fields_are_collected() {
        let ast = parse(
            "pub struct Tlb {\n    pub cfg: TlbConfig,\n    entries: Box<[Entry]>,\n    \
             samples: Vec<BTreeMap<u64, SampleEntry>>,\n}\n",
        );
        assert_eq!(ast.fields.len(), 3);
        let s = ast.fields.iter().find(|f| f.name == "samples").unwrap();
        assert_eq!(s.owner, "Tlb");
        assert!(s.ty.starts_with("Vec"));
        assert!(s.ty.contains("BTreeMap"));
    }

    #[test]
    fn test_attr_survives_pub_and_async() {
        let ast = parse("#[cfg(test)]\npub async fn helper() {}\n");
        assert!(ast.fns[0].is_test);
    }

    #[test]
    fn qualified_fns_all_parse() {
        let ast = parse(
            "pub const unsafe fn a() {}\n\
             const async fn b() {}\n\
             pub extern \"C\" fn c() {}\n\
             pub unsafe extern \"C\" fn d() {}\n\
             pub(crate) const unsafe extern \"C\" fn e() {}\n",
        );
        let parsed: Vec<(&str, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_exported))
            .collect();
        assert_eq!(
            parsed,
            [
                ("a", true),
                ("b", false),
                ("c", true),
                ("d", true),
                ("e", false)
            ]
        );
    }

    #[test]
    fn items_after_an_extern_block_survive() {
        let ast = parse(
            "extern \"C\" {\n    fn ext(x: u64) -> u64;\n    static FLAG: u8;\n}\n\
             #[inline]\n\
             pub fn after(a: u64) -> u64 { a }\n\
             unsafe extern \"C\" { fn ext2(); }\n\
             struct S { f: u64 }\n\
             extern crate alloc;\n\
             fn last() {}\n",
        );
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["after", "last"]);
        assert_eq!(ast.fns[0].attrs, ["inline"]);
        assert_eq!(ast.fields.len(), 1);
    }

    #[test]
    fn nested_generics_do_not_break_parsing() {
        let ast = parse("fn f(m: &mut Vec<Vec<u64>>) -> Option<Box<dyn Policy<M>>> { None }\n");
        assert_eq!(ast.fns.len(), 1);
        assert!(ast.fns[0].params[0].1.contains("Vec"));
    }

    #[test]
    fn trait_default_methods_get_trait_context() {
        let ast = parse("trait Policy<M> { fn on_evict(&mut self, s: usize) { let _ = s; } }\n");
        assert_eq!(ast.fns[0].trait_name.as_deref(), Some("Policy"));
    }

    #[test]
    fn generic_fns_are_told_apart() {
        let ast = parse(
            "fn plain(x: u64) {}\n\
             fn lifetimes<'a>(x: &'a u64) {}\n\
             fn typed<T: Copy>(x: T) {}\n\
             fn sized<const N: usize>() {}\n\
             fn opaque(x: impl Iterator<Item = u64>) {}\n\
             impl<M> Policy<M> for Lru { fn victim(&mut self) -> usize { 0 } }\n\
             impl<'a> View<'a> { fn get(&self) -> u64 { 0 } }\n\
             trait Walk { fn step(&mut self) {} }\n",
        );
        let generic: Vec<(&str, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_generic))
            .collect();
        assert_eq!(
            generic,
            [
                ("plain", false),
                ("lifetimes", false),
                ("typed", true),
                ("sized", true),
                ("opaque", true),
                ("victim", true),
                ("get", false),
                ("step", true),
            ]
        );
    }

    #[test]
    fn exported_fns_are_told_apart() {
        let ast = parse(
            "pub fn a() {}\n\
             pub const fn b() {}\n\
             pub(crate) fn c() {}\n\
             fn d() {}\n\
             impl Policy<M> for X { fn e(&self) {} }\n",
        );
        let exported: Vec<bool> = ast.fns.iter().map(|f| f.is_exported).collect();
        assert_eq!(exported, [true, true, false, false, true]);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let ast = parse("macro_rules! m { ($x:ident) => { fn generated() {} }; }\nfn real() {}\n");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "real");
    }

    #[test]
    fn files_under_tests_dirs_are_test_scoped() {
        let ast = parse_file("crates/mem/tests/x.rs", "fn t() {}\n").unwrap();
        assert!(ast.fns[0].is_test);
    }
}
