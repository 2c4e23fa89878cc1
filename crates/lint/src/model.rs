//! The workspace model: symbol table and call graph over every crate.
//!
//! [`Workspace::build`] lexes and parses a set of files (in practice all
//! `crates/*/src/**/*.rs`) into one flat function table, then extracts
//! call sites and panic sites from every body. Name resolution is
//! deliberately conservative in the over-approximating direction:
//!
//! * `recv.method(...)` links to **every** workspace method named
//!   `method` (receiver types are unknowable at token level);
//! * `Type::method(...)` links to the methods of `impl Type` blocks; if
//!   the qualifier instead names a module or a workspace crate
//!   (`parallel::sweep`, `ldis_mem::stable_id`), it links to the free
//!   functions of that module/crate;
//! * `free(...)` links to same-file functions first, then same-crate free
//!   functions, then (covering `use other_crate::free`) every free
//!   function of that name in the workspace.
//!
//! Unresolved names (std, core, alloc) are assumed panic-free; their
//! panicking forms (`unwrap`, `expect`, indexing) are clippy's to catch
//! at the call site. Over-approximation can produce spurious
//! reachability, never missed reachability, which is the right polarity
//! for the panic-under-lock check.

use crate::lexer::{self, Token};
use crate::parser::{self, FnItem};
use crate::rules::AllowIndex;
use std::collections::BTreeMap;
use std::ops::Range;

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// One source file in the model.
pub struct ModelFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The crate directory name (`crates/<name>/...`), or the first path
    /// segment for out-of-crate files.
    pub krate: String,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Source lines (owned; the model outlives the source strings).
    pub lines: Vec<String>,
    /// Waiver-comment index.
    pub allows: AllowIndex,
    /// `#[cfg(test)]` line ranges.
    pub test_regions: Vec<(u32, u32)>,
}

impl ModelFile {
    /// The source line `line` (1-based), for snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Is `line` inside a `#[cfg(test)]` region?
    pub fn in_tests(&self, line: u32) -> bool {
        lexer::in_regions(&self.test_regions, line)
    }
}

/// One function in the workspace table.
pub struct FnInfo {
    /// File the function lives in.
    pub file: usize,
    /// Parsed item (name, qual, params, body range, position).
    pub item: FnItem,
    /// Declared inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// `recv.name(...)`
    Method(String),
    /// `Qual::name(...)`
    Path(String, String),
    /// `name(...)`
    Bare(String),
}

impl Callee {
    /// The callee's bare name.
    pub fn name(&self) -> &str {
        match self {
            Callee::Method(n) | Callee::Bare(n) => n,
            Callee::Path(_, n) => n,
        }
    }
}

/// One call site inside a function body.
pub struct CallSite {
    /// How the callee is named.
    pub callee: Callee,
    /// Resolved workspace targets (empty for std/external calls).
    pub targets: Vec<FnId>,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Token index of the callee name (for argument inspection).
    pub tok: usize,
}

/// One panic site (`.unwrap()`, `.expect(`, `panic!`-family) inside a
/// function body.
pub struct PanicSite {
    /// What panics, as written (`.unwrap()`, `panic!`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// The parsed workspace: files, functions, and per-function call/panic
/// sites.
pub struct Workspace {
    /// All files, in the order given to [`Workspace::build`].
    pub files: Vec<ModelFile>,
    /// All functions across all files.
    pub fns: Vec<FnInfo>,
    /// Call sites per function (indexed by [`FnId`]).
    pub calls: Vec<Vec<CallSite>>,
    /// Panic sites per function (indexed by [`FnId`]).
    pub panics: Vec<Vec<PanicSite>>,
    by_method: BTreeMap<String, Vec<FnId>>,
    by_qual: BTreeMap<String, Vec<FnId>>,
    by_free: BTreeMap<String, Vec<FnId>>,
}

/// The crate directory name for a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or_else(|| rel.split('/').next().unwrap_or(rel))
        .to_string()
}

/// Maps a crate *package* alias to its directory name: `ldis_mem` →
/// `mem`, `ldis_distill` → `core` (the one package whose name and
/// directory differ). Returns the input unchanged when no alias matches.
fn unalias_crate(name: &str) -> &str {
    match name {
        "ldis_distill" => "core",
        _ => name.strip_prefix("ldis_").unwrap_or(name),
    }
}

impl Workspace {
    /// Lexes, parses and cross-links `files` (pairs of workspace-relative
    /// path and source text).
    pub fn build(files: &[(String, String)]) -> Workspace {
        let mut model_files = Vec::with_capacity(files.len());
        let mut fns: Vec<FnInfo> = Vec::new();
        for (idx, (path, src)) in files.iter().enumerate() {
            let lexed = lexer::lex(src);
            let parsed = parser::parse(&lexed.tokens);
            let test_regions = lexer::test_regions(&lexed.tokens);
            for item in parsed.fns {
                let in_test = lexer::in_regions(&test_regions, item.line);
                fns.push(FnInfo {
                    file: idx,
                    item,
                    in_test,
                });
            }
            model_files.push(ModelFile {
                path: path.clone(),
                krate: crate_of(path),
                allows: AllowIndex::build(&lexed.comments),
                test_regions,
                lines: src.lines().map(str::to_string).collect(),
                tokens: lexed.tokens,
            });
        }

        let mut by_method: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            if f.item.is_method {
                by_method.entry(f.item.name.clone()).or_default().push(id);
                by_qual.entry(f.item.qual.clone()).or_default().push(id);
            } else {
                by_free.entry(f.item.name.clone()).or_default().push(id);
            }
        }

        let mut ws = Workspace {
            files: model_files,
            fns,
            calls: Vec::new(),
            panics: Vec::new(),
            by_method,
            by_qual,
            by_free,
        };
        for id in 0..ws.fns.len() {
            let (calls, panics) = ws.extract_sites(id);
            ws.calls.push(calls);
            ws.panics.push(panics);
        }
        ws
    }

    /// The token ranges of `fn_id`'s body that belong to *it*, excluding
    /// nested fn items (their sites are attributed to themselves).
    fn own_ranges(&self, fn_id: FnId) -> Vec<Range<usize>> {
        let f = &self.fns[fn_id];
        let body = f.item.body.clone();
        let mut holes: Vec<Range<usize>> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(other, o)| {
                *other != fn_id
                    && o.file == f.file
                    && o.item.span.start >= body.start
                    && o.item.span.end <= body.end
            })
            .map(|(_, o)| o.item.span.clone())
            .collect();
        holes.sort_by_key(|r| r.start);
        let mut ranges = Vec::new();
        let mut cursor = body.start;
        for h in holes {
            if h.start > cursor {
                ranges.push(cursor..h.start);
            }
            cursor = cursor.max(h.end);
        }
        if cursor < body.end {
            ranges.push(cursor..body.end);
        }
        ranges
    }

    fn extract_sites(&self, fn_id: FnId) -> (Vec<CallSite>, Vec<PanicSite>) {
        let f = &self.fns[fn_id];
        let file = &self.files[f.file];
        let toks = &file.tokens;
        let mut calls = Vec::new();
        let mut panics = Vec::new();
        for range in self.own_ranges(fn_id) {
            for i in range.clone() {
                let t = &toks[i];
                if t.kind != lexer::TokKind::Ident {
                    continue;
                }
                // Panic macros.
                if PANIC_MACROS.iter().any(|m| t.is_ident(m))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    panics.push(PanicSite {
                        what: format!("{}!", t.text),
                        line: t.line,
                        col: t.col,
                    });
                    continue;
                }
                // `.unwrap()` / `.expect(`.
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    panics.push(PanicSite {
                        what: format!(".{}()", t.text),
                        line: t.line,
                        col: t.col,
                    });
                    continue;
                }
                // Call sites: `ident (`.
                if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    continue;
                }
                if CALL_KEYWORDS.iter().any(|k| t.is_ident(k)) {
                    continue;
                }
                let callee = if i > 0 && toks[i - 1].is_punct('.') {
                    Callee::Method(t.text.clone())
                } else if i > 1 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    match toks.get(i.wrapping_sub(3)) {
                        Some(q) if q.kind == lexer::TokKind::Ident => {
                            Callee::Path(q.text.clone(), t.text.clone())
                        }
                        _ => Callee::Bare(t.text.clone()),
                    }
                } else {
                    Callee::Bare(t.text.clone())
                };
                let targets = self.resolve(&callee, f.file);
                calls.push(CallSite {
                    callee,
                    targets,
                    line: t.line,
                    col: t.col,
                    tok: i,
                });
            }
        }
        (calls, panics)
    }

    /// Resolves a callee name to workspace functions (see module docs for
    /// the strategy). The result is sorted and deduplicated.
    pub fn resolve(&self, callee: &Callee, from_file: usize) -> Vec<FnId> {
        let mut out: Vec<FnId> = match callee {
            Callee::Method(name) => self.by_method.get(name).cloned().unwrap_or_default(),
            Callee::Path(qual, name) => {
                if let Some(ids) = self.by_qual.get(&format!("{qual}::{name}")) {
                    ids.clone()
                } else {
                    // Module- or crate-qualified free function: keep free
                    // fns whose file lives in the module/crate the
                    // qualifier names.
                    let target_crate = unalias_crate(qual);
                    let qual_marker_mod = format!("/{qual}.rs");
                    let qual_marker_dir = format!("/{qual}/");
                    self.by_free
                        .get(name)
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&id| {
                            let file = &self.files[self.fns[id].file];
                            file.krate == target_crate
                                || file.path.ends_with(&qual_marker_mod)
                                || file.path.contains(&qual_marker_dir)
                                || (qual == "self" || qual == "crate")
                                    && file.krate == self.files[from_file].krate
                        })
                        .collect()
                }
            }
            Callee::Bare(name) => {
                let Some(all) = self.by_free.get(name) else {
                    return Vec::new();
                };
                let same_file: Vec<FnId> = all
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].file == from_file)
                    .collect();
                if !same_file.is_empty() {
                    same_file
                } else {
                    let krate = &self.files[from_file].krate;
                    let same_crate: Vec<FnId> = all
                        .iter()
                        .copied()
                        .filter(|&id| &self.files[self.fns[id].file].krate == krate)
                        .collect();
                    if same_crate.is_empty() {
                        all.clone() // `use other::free` — over-approximate
                    } else {
                        same_crate
                    }
                }
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A short human-readable label for a function: `qual (path:line)`.
    pub fn label(&self, id: FnId) -> String {
        let f = &self.fns[id];
        format!(
            "{} ({}:{})",
            f.item.qual, self.files[f.file].path, f.item.line
        )
    }

    /// Renders the call graph as stable text, one block per function in
    /// (path, line) order — the format pinned by the snapshot test.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<FnId> = (0..self.fns.len()).collect();
        order.sort_by_key(|&id| {
            let f = &self.fns[id];
            (self.files[f.file].path.clone(), f.item.line, f.item.col)
        });
        let mut s = String::new();
        for id in order {
            let f = &self.fns[id];
            let vis = if f.item.is_pub { "pub " } else { "" };
            let test = if f.in_test { " [test]" } else { "" };
            let _ = writeln!(s, "{vis}fn {}{test}", self.label(id));
            for p in &self.panics[id] {
                let _ = writeln!(s, "  ! {} @{}:{}", p.what, p.line, p.col);
            }
            for c in &self.calls[id] {
                if c.targets.is_empty() {
                    continue; // std/external: not part of the graph
                }
                let mut names: Vec<String> = c.targets.iter().map(|&t| self.label(t)).collect();
                names.sort();
                let _ = writeln!(
                    s,
                    "  -> {} @{}:{} => {}",
                    c.callee.name(),
                    c.line,
                    c.col,
                    names.join(", ")
                );
            }
        }
        s
    }
}

/// Macros whose expansion aborts the simulation.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "move", "loop", "else", "await", "box",
    "dyn", "impl", "fn", "where", "mut", "ref", "use", "pub", "crate", "super", "self", "Self",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        Workspace::build(&owned)
    }

    #[test]
    fn bare_calls_resolve_same_file_first() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\npub fn entry() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let entry = w.fns.iter().position(|f| f.item.name == "entry").unwrap();
        assert_eq!(w.calls[entry].len(), 1);
        assert_eq!(w.calls[entry][0].targets.len(), 1);
        let target = w.calls[entry][0].targets[0];
        assert_eq!(w.files[w.fns[target].file].path, "crates/a/src/lib.rs");
    }

    #[test]
    fn method_calls_over_approximate_across_types() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { pub fn go(&self) {} }\n\
             impl B { pub fn go(&self) {} }\n\
             pub fn entry(a: &A) { a.go(); }\n",
        )]);
        let entry = w.fns.iter().position(|f| f.item.name == "entry").unwrap();
        assert_eq!(w.calls[entry][0].targets.len(), 2, "both go() impls link");
    }

    #[test]
    fn path_calls_resolve_methods_and_crate_frees() {
        let w = ws(&[
            (
                "crates/mem/src/rng.rs",
                "pub struct SimRng;\nimpl SimRng { pub fn derive(&self) {} }\npub fn stable_id() {}\n",
            ),
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { SimRng::derive(); ldis_mem::stable_id(); std::mem::take(); }\n",
            ),
        ]);
        let entry = w.fns.iter().position(|f| f.item.name == "entry").unwrap();
        let resolved: Vec<usize> = w.calls[entry].iter().map(|c| c.targets.len()).collect();
        assert_eq!(
            resolved,
            [1, 1, 0],
            "derive, stable_id resolve; std::mem::take does not"
        );
    }

    #[test]
    fn panic_sites_are_collected_per_fn() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn ok() -> u8 { 1 }\n\
             fn bad(v: Option<u8>) -> u8 { v.unwrap() }\n\
             fn worse() { panic!(\"x\"); }\n",
        )]);
        let by_name = |n: &str| w.fns.iter().position(|f| f.item.name == n).unwrap();
        assert!(w.panics[by_name("ok")].is_empty());
        assert_eq!(w.panics[by_name("bad")].len(), 1);
        assert_eq!(w.panics[by_name("bad")][0].what, ".unwrap()");
        assert_eq!(w.panics[by_name("worse")][0].what, "panic!");
    }

    #[test]
    fn nested_fn_sites_are_not_attributed_to_the_parent() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn outer() { fn inner(v: Option<u8>) -> u8 { v.unwrap() } inner(None); }\n",
        )]);
        let outer = w.fns.iter().position(|f| f.item.name == "outer").unwrap();
        let inner = w.fns.iter().position(|f| f.item.name == "inner").unwrap();
        assert!(w.panics[outer].is_empty());
        assert_eq!(w.panics[inner].len(), 1);
        assert_eq!(w.calls[outer].len(), 1, "outer calls inner");
        assert_eq!(w.calls[outer][0].targets, vec![inner]);
    }

    #[test]
    fn render_is_stable_and_labelled() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn helper(v: Option<u8>) -> u8 { v.unwrap() }\npub fn entry() { helper(None); }\n",
        )]);
        let text = w.render();
        assert!(text.contains("fn helper (crates/a/src/lib.rs:1)"));
        assert!(text.contains("! .unwrap() @1:"));
        assert!(text.contains("pub fn entry (crates/a/src/lib.rs:2)"));
        assert!(text.contains("-> helper @2:"));
    }
}
