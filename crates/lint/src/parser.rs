//! A recursive-descent item parser over the token stream from
//! [`crate::lexer`].
//!
//! The per-file rule C1 never needs to know *where* a token lives; the
//! workspace rules (U1/D3/S1/L2/O1) do. This parser
//! recovers exactly the structure they need — no more: every `fn` item
//! with its name, qualified name (`Type::method` for inherent/trait
//! methods), visibility, typed parameter list and body token range, with
//! `impl`/`trait`/`mod` nesting resolved. Expressions stay as raw token
//! ranges; the analyses that care (unit provenance, call extraction) walk
//! them directly.
//!
//! The parser is loss-tolerant by design: anything it does not
//! understand is skipped token-by-token, so macro-heavy or exotic syntax
//! degrades to "no items found here" rather than a parse failure. That
//! is the right failure mode for a linter that must never block a build
//! on its own limitations.

use crate::lexer::Token;
use std::ops::Range;

/// One parameter of a function item (excluding any `self` receiver).
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// The binding name (`_` when the pattern is not a plain binding).
    pub name: String,
    /// The parameter's type as space-joined token text (e.g. `u64`,
    /// `& mut Vec < u8 >`).
    pub ty: String,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `Type::name` for methods (inherent, trait decl or trait impl),
    /// `mod_path::name` for free functions in named modules, else `name`.
    pub qual: String,
    /// Declared with any `pub` form (`pub`, `pub(crate)`, ...).
    pub is_pub: bool,
    /// Declared inside an `impl` or `trait` block.
    pub is_method: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameters, excluding `self`.
    pub params: Vec<Param>,
    /// Token range of the body *between* the braces (empty for
    /// declarations like trait methods without a default body).
    pub body: Range<usize>,
    /// Token range covering the whole item body including braces; used to
    /// exclude nested items from the enclosing function's walk.
    pub span: Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
}

/// The items parsed out of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items in source order, including nested ones.
    pub fns: Vec<FnItem>,
}

/// Keywords that can appear between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "default"];

struct Ctx<'a> {
    tokens: &'a [Token],
    /// Current `impl`/`trait` self-type name, if any.
    self_ty: Option<String>,
    /// Current module path segments (`mod` nesting).
    mods: Vec<String>,
}

/// Parses the item structure of one lexed file.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut ctx = Ctx {
        tokens,
        self_ty: None,
        mods: Vec::new(),
    };
    parse_items(&mut ctx, 0..tokens.len(), &mut out);
    out
}

/// Finds the index just past the `}` matching the `{` at `open`.
pub fn brace_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Skips a balanced `< ... >` generic list starting at `i` (which must be
/// `<`). Returns the index past the closing `>`. Tolerates `->` and shift
/// operators inside by counting raw angle tokens, which is good enough
/// for item signatures (expressions never appear in the positions this
/// is called from).
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            // Const generics can nest brackets; skip them wholesale.
            let close = match t.text.as_str() {
                "(" => ')',
                "[" => ']',
                _ => '}',
            };
            let mut d = 0i32;
            while j < tokens.len() {
                if tokens[j].text.len() == 1 {
                    let c = tokens[j].text.chars().next().unwrap_or(' ');
                    if c == t.text.chars().next().unwrap_or(' ') {
                        d += 1;
                    } else if c == close {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                }
                j += 1;
            }
        } else if t.is_punct(';') {
            return j; // runaway: bail before eating the item
        }
        j += 1;
    }
    j
}

fn parse_items(ctx: &mut Ctx<'_>, range: Range<usize>, out: &mut ParsedFile) {
    let tokens = ctx.tokens;
    let mut i = range.start;
    while i < range.end {
        let t = &tokens[i];
        if t.is_ident("fn") {
            // `fn` in type position (`fn(u32) -> u32`) has no name ident.
            if tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == crate::lexer::TokKind::Ident)
            {
                i = parse_fn(ctx, i, range.end, out);
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            i = parse_impl_or_trait(ctx, i, range.end, out);
            continue;
        }
        if t.is_ident("mod") {
            // `mod name { ... }` recurses with the module pushed;
            // `mod name;` is just a declaration.
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == crate::lexer::TokKind::Ident
                    && tokens.get(i + 2).is_some_and(|b| b.is_punct('{'))
                {
                    let end = brace_end(tokens, i + 2);
                    ctx.mods.push(name_tok.text.clone());
                    parse_items(ctx, i + 3..end.saturating_sub(1), out);
                    ctx.mods.pop();
                    i = end;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("macro_rules") {
            // Skip `macro_rules! name { ... }` wholesale: its body is
            // pattern soup, not items.
            let mut j = i + 1;
            while j < range.end && !tokens[j].is_punct('{') {
                j += 1;
            }
            i = if j < range.end {
                brace_end(tokens, j)
            } else {
                range.end
            };
            continue;
        }
        i += 1;
    }
}

/// Parses an `impl`/`trait` block header and recurses into its body with
/// the self-type set.
///
/// For `trait Name[: Bounds]` the self-type is the first ident after the
/// keyword; for `impl [Trait for] Type` it is the last path ident before
/// the body (the ident after `for` when present), with generic argument
/// lists and the `where` clause skipped.
fn parse_impl_or_trait(ctx: &mut Ctx<'_>, at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let tokens = ctx.tokens;
    let is_trait = tokens[at].is_ident("trait");
    let mut i = at + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_generics(tokens, i);
    }
    let mut self_ty: Option<String> = None;
    let mut settled = false;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('{') {
            let body_end = brace_end(tokens, i);
            let saved = ctx.self_ty.take();
            ctx.self_ty = self_ty;
            parse_items(ctx, i + 1..body_end.saturating_sub(1), out);
            ctx.self_ty = saved;
            return body_end;
        }
        if t.is_punct(';') {
            return i + 1;
        }
        if t.is_ident("for") && !is_trait {
            self_ty = None;
            settled = false;
            i += 1;
            continue;
        }
        if t.is_ident("where") || (is_trait && t.is_punct(':')) {
            // Bounds follow: the self-type is settled.
            settled = true;
            i += 1;
            continue;
        }
        if t.is_punct('<') {
            i = skip_generics(tokens, i);
            continue;
        }
        if !settled
            && t.kind == crate::lexer::TokKind::Ident
            && !t.is_ident("dyn")
            && !t.is_ident("mut")
            && !t.is_ident("const")
            && !t.is_ident("unsafe")
        {
            // A trait takes its first ident (the name); an impl keeps the
            // rightmost path segment (`a::b::Type` ends on `Type`).
            self_ty = Some(t.text.clone());
            if is_trait {
                settled = true;
            }
        }
        i += 1;
    }
    end
}

/// Parses one `fn` item starting at the `fn` keyword; returns the index
/// to resume scanning from.
fn parse_fn(ctx: &mut Ctx<'_>, at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let tokens = ctx.tokens;
    let name = match tokens.get(at + 1) {
        Some(t) if t.kind == crate::lexer::TokKind::Ident => t.text.clone(),
        _ => return at + 1,
    };
    let is_pub = vis_before(tokens, at);
    let mut i = at + 2;
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_generics(tokens, i);
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct('(')) {
        return at + 1;
    }
    // Parameter list.
    let (arg_ranges, close) = match crate::rules::split_args(tokens, i) {
        Some(pair) => pair,
        None => return at + 1,
    };
    let mut has_self = false;
    let mut params = Vec::new();
    for r in &arg_ranges {
        let toks = &tokens[r.clone()];
        if toks.iter().any(|t| t.is_ident("self")) && !toks.iter().any(|t| t.is_punct(':')) {
            has_self = true;
            continue;
        }
        if let Some(p) = parse_param(toks) {
            params.push(p);
        }
    }
    // Skip return type / where clause to the body or `;`.
    let mut j = close + 1;
    while j < end {
        let t = &tokens[j];
        if t.is_punct('{') {
            break;
        }
        if t.is_punct(';') {
            // Declaration without a body (trait method, extern).
            push_fn(
                ctx,
                out,
                name,
                is_pub,
                has_self,
                params,
                at,
                j + 1..j + 1,
                at..j + 1,
            );
            return j + 1;
        }
        if t.is_punct('<') {
            j = skip_generics(tokens, j);
            continue;
        }
        j += 1;
    }
    if j >= end {
        return at + 1;
    }
    let body_end = brace_end(tokens, j);
    push_fn(
        ctx,
        out,
        name,
        is_pub,
        has_self,
        params,
        at,
        j + 1..body_end.saturating_sub(1),
        at..body_end,
    );
    // Recurse into the body for nested items (inner fns, impls in fns).
    parse_items(ctx, j + 1..body_end.saturating_sub(1), out);
    body_end
}

#[allow(clippy::too_many_arguments)]
fn push_fn(
    ctx: &Ctx<'_>,
    out: &mut ParsedFile,
    name: String,
    is_pub: bool,
    has_self: bool,
    params: Vec<Param>,
    at: usize,
    body: Range<usize>,
    span: Range<usize>,
) {
    let qual = match &ctx.self_ty {
        Some(ty) => format!("{ty}::{name}"),
        None if ctx.mods.is_empty() => name.clone(),
        None => format!("{}::{}", ctx.mods.join("::"), name),
    };
    out.fns.push(FnItem {
        qual,
        is_pub,
        is_method: ctx.self_ty.is_some(),
        has_self,
        params,
        body,
        span,
        line: ctx.tokens[at].line,
        col: ctx.tokens[at].col,
        name,
    });
}

/// Parses one `pattern: Type` parameter. The name is the last ident
/// before the top-level `:` (covers `mut x: T` and plain `x: T`);
/// destructuring patterns yield `_`.
fn parse_param(toks: &[Token]) -> Option<Param> {
    let colon = toks.iter().position(|t| t.is_punct(':'))?;
    let pattern = &toks[..colon];
    let name = match pattern.last() {
        Some(t) if t.kind == crate::lexer::TokKind::Ident && !t.is_ident("mut") => {
            if pattern
                .iter()
                .any(|p| p.is_punct('(') || p.is_punct('{') || p.is_punct('['))
            {
                "_".to_string()
            } else {
                t.text.clone()
            }
        }
        _ => "_".to_string(),
    };
    let ty = toks[colon + 1..]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    Some(Param { name, ty })
}

/// Looks back from the `fn` keyword for a visibility marker, skipping
/// qualifier keywords (`const`, `unsafe`, `async`, `extern "C"`) and a
/// `pub(...)` restriction list.
fn vis_before(tokens: &[Token], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.kind == crate::lexer::TokKind::Str {
            continue; // the ABI string of `extern "C"`
        }
        if FN_QUALIFIERS.iter().any(|q| t.is_ident(q)) {
            continue;
        }
        if t.is_punct(')') {
            // Possibly the tail of `pub(crate)`: walk back to its `(`.
            let mut depth = 0i32;
            loop {
                let t2 = &tokens[j];
                if t2.is_punct(')') {
                    depth += 1;
                } else if t2.is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            continue;
        }
        return t.is_ident("pub");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).tokens)
    }

    #[test]
    fn free_and_method_fns_are_qualified() {
        let p = parse_src(
            "pub fn free(a: u64) -> u64 { a }\n\
             struct S;\n\
             impl S { pub fn m(&self, x: u8) {} fn p(&mut self) {} }\n\
             impl Display for S { fn fmt(&self, f: &mut Formatter<'_>) -> Result { Ok(()) } }\n",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["free", "S::m", "S::p", "S::fmt"]);
        assert!(p.fns[0].is_pub && !p.fns[0].is_method);
        assert!(p.fns[1].is_pub && p.fns[1].is_method && p.fns[1].has_self);
        assert!(!p.fns[2].is_pub);
        assert_eq!(
            p.fns[1].params,
            vec![Param {
                name: "x".into(),
                ty: "u8".into()
            }]
        );
    }

    #[test]
    fn mod_nesting_and_nested_fns() {
        let p = parse_src("mod outer { pub mod inner { pub fn f() { fn g() {} g(); } } }\n");
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["outer::inner::f", "outer::inner::g"]);
    }

    #[test]
    fn trait_decls_and_default_bodies() {
        let p = parse_src("trait T { fn decl(&self, n: usize); fn dflt(&self) -> u32 { 7 } }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qual, "T::decl");
        assert!(p.fns[0].body.is_empty());
        assert_eq!(p.fns[1].qual, "T::dflt");
        assert!(!p.fns[1].body.is_empty());
    }

    #[test]
    fn pub_crate_and_qualifier_soup() {
        let p = parse_src(
            "pub(crate) const unsafe fn a() {}\n\
             pub extern \"C\" fn b() {}\n\
             const fn c() {}\n",
        );
        assert!(p.fns[0].is_pub);
        assert!(p.fns[1].is_pub);
        assert!(!p.fns[2].is_pub);
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_the_body() {
        let p = parse_src(
            "pub fn g<T: Into<u64>>(v: Vec<T>) -> Option<u64> where T: Copy { v.len().try_into().ok() }\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "g");
        assert_eq!(p.fns[0].params.len(), 1);
        assert_eq!(p.fns[0].params[0].ty, "Vec < T >");
        assert!(!p.fns[0].body.is_empty());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse_src("struct S { cb: fn(u32) -> u32 }\nfn real() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn destructured_params_become_underscore() {
        let p = parse_src("fn f((a, b): (u32, u32), mut c: u8) {}");
        assert_eq!(p.fns[0].params.len(), 2);
        assert_eq!(p.fns[0].params[0].name, "_");
        assert_eq!(p.fns[0].params[1].name, "c");
    }
}
