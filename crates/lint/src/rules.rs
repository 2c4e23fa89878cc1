//! The per-file rules: config invariants (C1) and waiver hygiene (W1),
//! plus the waiver index every rule consults.
//!
//! Both work on the token stream from [`crate::lexer`]. Findings can be
//! waived inline with `// ldis: allow(RULE, "why")` on the offending
//! line or the line above.

use crate::lexer::{self, Comment, Token};
use crate::report::Finding;
use std::collections::BTreeMap;

/// A lintable rule. Every rule fails the run; there is no warn tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Config literals in examples and golden snapshots must describe
    /// possible geometries and the paper's PSEL rails.
    C1,
    /// Unit safety: byte addresses, word indices, line addresses and set
    /// indices must not mix without an explicit conversion.
    U1,
    /// Float determinism: no floating-point accumulation that merges
    /// parallel-sweep cell results outside the canonical-order merge.
    D3,
    /// Waiver hygiene: every `// ldis: allow(RULE, "why")` must name an
    /// ldis-lint rule and carry a non-empty justification string.
    W1,
    /// Seed provenance (flow-sensitive): `SimRng` streams must be
    /// constructed from seeds derived off the root seed
    /// (`derive`/`derive_seed_chain`/`stable_id`/`fork`), salt literals
    /// must not collide across derive call sites, and a derived RNG must
    /// not be reused after a parallel region captured it.
    S1,
    /// Lock discipline: the workspace lock-acquisition-order graph must
    /// be acyclic, no lock may be re-acquired while held, and no
    /// panic-capable call may run under a held lock.
    L2,
    /// Counter arithmetic: unchecked `+`/`*`/`<<` on `u64`/`u32` stats
    /// counters and `LineGeometry` address math must be
    /// `checked_`/`saturating_`/explicitly wrapping, or carry a
    /// justified waiver.
    O1,
}

impl Rule {
    /// The rule's identifier as it appears in diagnostics and waivers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::C1 => "C1",
            Rule::U1 => "U1",
            Rule::D3 => "D3",
            Rule::W1 => "W1",
            Rule::S1 => "S1",
            Rule::L2 => "L2",
            Rule::O1 => "O1",
        }
    }

    /// Every rule, in diagnostic order — drives the static SARIF rule
    /// metadata so tooling sees the full vocabulary even on clean runs.
    pub const ALL: &'static [Rule] = &[
        Rule::C1,
        Rule::U1,
        Rule::D3,
        Rule::W1,
        Rule::S1,
        Rule::L2,
        Rule::O1,
    ];

    /// One-line description for SARIF rule metadata.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::C1 => "config literals must describe possible geometries",
            Rule::U1 => "no unit mixing between address/index domains",
            Rule::D3 => "no order-sensitive float accumulation across sweep cells",
            Rule::W1 => "every waiver names a rule and carries a non-empty justification",
            Rule::S1 => "RNG streams derive from the root seed without collisions",
            Rule::L2 => "lock order acyclic, no re-entry, no panic under lock",
            Rule::O1 => "counter arithmetic overflow-checked or justified",
        }
    }
}

/// Index of `// ldis: allow(RULE, "why")` comments by line.
///
/// The waiver grammar is uniform across every rule, and the
/// justification string is mandatory: a waiver whose `"why"` is missing
/// or blank, or whose rule ldis-lint does not have, waives nothing and
/// is itself reported (rule `W1`).
pub struct AllowIndex {
    by_line: BTreeMap<u32, Vec<String>>,
    /// Malformed waivers: (line, what is wrong with them).
    malformed: Vec<(u32, String)>,
}

impl AllowIndex {
    /// Builds the index from a file's comments. A block comment indexes at
    /// its starting line.
    pub fn build(comments: &[Comment]) -> Self {
        let mut by_line: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        let mut malformed = Vec::new();
        for c in comments {
            let mut rest = c.text.as_str();
            while let Some(at) = rest.find("ldis: allow(") {
                rest = &rest[at + "ldis: allow(".len()..];
                let rule: String = rest
                    .chars()
                    .take_while(|ch| ch.is_ascii_alphanumeric())
                    .collect();
                // Rule ids carry a digit; `allow(RULE, "why")` in prose
                // describes the grammar rather than waiving anything.
                if !rule.chars().any(|ch| ch.is_ascii_digit()) {
                    continue;
                }
                // A justification is `, "non-blank"` after the rule.
                let tail = rest[rule.len()..].trim_start();
                let justified = tail
                    .strip_prefix(',')
                    .map(str::trim_start)
                    .and_then(|t| t.strip_prefix('"'))
                    .and_then(|t| t.split('"').next())
                    .is_some_and(|why| !why.trim().is_empty());
                if !Rule::ALL.iter().any(|r| r.id() == rule) {
                    malformed.push((
                        c.line,
                        format!("waiver `ldis: allow({rule}, ...)` names no ldis-lint rule; remove it (generic checks run in clippy: use `#[expect(clippy::..., reason = \"why\")]`)"),
                    ));
                } else if justified {
                    by_line.entry(c.line).or_default().push(rule);
                } else {
                    malformed.push((
                        c.line,
                        format!("waiver `ldis: allow({rule}, ...)` has no justification string; write `// ldis: allow({rule}, \"why\")`"),
                    ));
                }
            }
        }
        AllowIndex { by_line, malformed }
    }

    /// Does a *justified* allow comment on this line or the line above
    /// waive `rule`?
    pub fn allows(&self, rule: Rule, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.by_line
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule.id()))
        })
    }

    /// Malformed waivers: (line, what is wrong with them).
    pub fn malformed(&self) -> &[(u32, String)] {
        &self.malformed
    }
}

/// Everything a rule needs about one source file.
pub struct FileContext<'a> {
    /// Workspace-relative path (`/` separators).
    pub path: &'a str,
    /// Source lines, for snippets.
    pub lines: Vec<&'a str>,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Allow-comment index.
    pub allows: AllowIndex,
}

impl<'a> FileContext<'a> {
    /// Lexes `src` and prepares the indexes.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let lexed = lexer::lex(src);
        FileContext {
            path,
            lines: src.lines().collect(),
            allows: AllowIndex::build(&lexed.comments),
            tokens: lexed.tokens,
        }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or_else(String::new, |l| (*l).to_string())
    }

    fn finding(&self, rule: Rule, tok: &Token, message: String) -> Finding {
        Finding {
            rule: rule.id(),
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
        }
    }
}

/// Runs the per-file rules over one Rust source file: C1 when `rules`
/// selects it, and waiver hygiene (W1) always.
pub fn scan_rust(ctx: &FileContext<'_>, rules: &[Rule]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if rules.contains(&Rule::C1) {
        c1(ctx, &mut findings);
    }
    // Waiver hygiene applies to every linted file regardless of which
    // rules its path selects: a malformed waiver is dead weight that
    // silently stops waiving the day justifications become load-bearing.
    for (line, message) in ctx.allows.malformed() {
        findings.push(Finding {
            rule: Rule::W1.id(),
            path: ctx.path.to_string(),
            line: *line,
            col: 1,
            message: message.clone(),
            snippet: ctx.snippet(*line),
        });
    }
    findings
}

// --- C1: config invariants ----------------------------------------------

/// The paper's PSEL hysteresis rails (Section 5.5): disable below 64,
/// enable above 192 on an 8-bit counter.
const PSEL_RAILS: (i128, i128) = (64, 192);
const DEFAULT_REVERTER: [(&str, i128); 4] = [
    ("leader_sets", 32),
    ("disable_below", 64),
    ("enable_above", 192),
    ("psel_max", 255),
];

fn c1(ctx: &FileContext<'_>, findings: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if ctx.allows.allows(Rule::C1, toks[i].line) {
            continue;
        }
        if path_call_at(toks, i, "LineGeometry", "new") {
            if let Some((args, _)) = split_args(toks, i + 4) {
                check_geometry_literal(ctx, &toks[i], &args, findings);
            }
        } else if path_call_at(toks, i, "CacheConfig", "new") {
            if let Some((args, _)) = split_args(toks, i + 4) {
                check_cache_config(ctx, &toks[i], &args, findings);
            }
        } else if path_call_at(toks, i, "DistillConfig", "new") {
            if let Some((args, _)) = split_args(toks, i + 4) {
                check_distill_config(ctx, &toks[i], &args, findings);
            }
        } else if toks[i].is_ident("ReverterConfig")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('{'))
        {
            check_reverter_literal(ctx, i, findings);
        }
    }
}

/// Matches `Type :: method (` starting at `i` (the type identifier).
fn path_call_at(toks: &[Token], i: usize, ty: &str, method: &str) -> bool {
    toks[i].is_ident(ty)
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(method))
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Splits the argument list of the call whose `(` is at `open` into
/// top-level comma-separated token ranges. Returns the ranges and the
/// index of the closing `)`.
pub(crate) fn split_args(
    toks: &[Token],
    open: usize,
) -> Option<(Vec<std::ops::Range<usize>>, usize)> {
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                if i > start {
                    args.push(start..i);
                }
                return Some((args, i));
            }
        } else if depth == 1 && t.is_punct(',') {
            args.push(start..i);
            start = i + 1;
        }
        i += 1;
    }
    None
}

/// Evaluates an integer constant expression over `+ - * / % << >> & | ^`
/// and parentheses. Returns `None` when the expression references
/// variables or anything else non-literal.
pub fn const_eval(toks: &[Token]) -> Option<i128> {
    let mut pos = 0usize;
    let v = eval_bin(toks, &mut pos, 0)?;
    (pos == toks.len()).then_some(v)
}

/// Binary operators from loosest to tightest, mirroring Rust precedence.
const BIN_LEVELS: &[&[&str]] = &[
    &["|"],
    &["^"],
    &["&"],
    &["<<", ">>"],
    &["+", "-"],
    &["*", "/", "%"],
];

fn eval_bin(toks: &[Token], pos: &mut usize, level: usize) -> Option<i128> {
    if level == BIN_LEVELS.len() {
        return eval_atom(toks, pos);
    }
    let mut lhs = eval_bin(toks, pos, level + 1)?;
    loop {
        let Some(op) = match_op(toks, *pos, BIN_LEVELS[level]) else {
            return Some(lhs);
        };
        *pos += op.len(); // one token per character
        let rhs = eval_bin(toks, pos, level + 1)?;
        lhs = match op {
            "|" => lhs | rhs,
            "^" => lhs ^ rhs,
            "&" => lhs & rhs,
            "<<" => lhs.checked_shl(u32::try_from(rhs).ok()?)?,
            ">>" => lhs.checked_shr(u32::try_from(rhs).ok()?)?,
            "+" => lhs.checked_add(rhs)?,
            "-" => lhs.checked_sub(rhs)?,
            "*" => lhs.checked_mul(rhs)?,
            "/" => lhs.checked_div(rhs)?,
            "%" => lhs.checked_rem(rhs)?,
            _ => return None,
        };
    }
}

/// Matches a (possibly multi-character) operator at `pos`; operators are
/// lexed one `Punct` per character.
fn match_op<'a>(toks: &[Token], pos: usize, ops: &[&'a str]) -> Option<&'a str> {
    ops.iter().copied().find(|op| {
        op.chars()
            .enumerate()
            .all(|(k, c)| toks.get(pos + k).is_some_and(|t| t.is_punct(c)))
    })
}

fn eval_atom(toks: &[Token], pos: &mut usize) -> Option<i128> {
    let t = toks.get(*pos)?;
    if t.is_punct('(') {
        *pos += 1;
        let v = eval_bin(toks, pos, 0)?;
        if !toks.get(*pos)?.is_punct(')') {
            return None;
        }
        *pos += 1;
        return Some(v);
    }
    if t.is_punct('-') {
        *pos += 1;
        return Some(-eval_atom(toks, pos)?);
    }
    if t.kind != lexer::TokKind::Int {
        return None;
    }
    *pos += 1;
    parse_int(&t.text)
}

/// Parses a Rust integer literal: underscores, radix prefixes, suffixes.
pub fn parse_int(text: &str) -> Option<i128> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(rest) = clean.strip_prefix("0x") {
        (rest, 16)
    } else if let Some(rest) = clean.strip_prefix("0o") {
        (rest, 8)
    } else if let Some(rest) = clean.strip_prefix("0b") {
        (rest, 2)
    } else {
        (clean.as_str(), 10)
    };
    // Strip a type suffix (u8/u16/.../i128/usize/isize).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    i128::from_str_radix(&digits[..end], radix).ok()
}

/// Geometry of one cache line, when statically resolvable.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    line_bytes: i128,
    word_bytes: i128,
}

impl Geometry {
    const DEFAULT: Geometry = Geometry {
        line_bytes: 64,
        word_bytes: 8,
    };
}

/// Resolves a geometry argument: `LineGeometry::default()`,
/// `Default::default()` or `LineGeometry::new(lit, lit)`.
fn resolve_geometry(toks: &[Token]) -> Option<Geometry> {
    if toks.is_empty() {
        return None;
    }
    if path_call_at(toks, 0, "LineGeometry", "default")
        || path_call_at(toks, 0, "Default", "default")
    {
        return Some(Geometry::DEFAULT);
    }
    if path_call_at(toks, 0, "LineGeometry", "new") {
        let (args, _) = split_args(toks, 4)?;
        if args.len() == 2 {
            return Some(Geometry {
                line_bytes: const_eval(&toks[args[0].clone()])?,
                word_bytes: const_eval(&toks[args[1].clone()])?,
            });
        }
    }
    None
}

fn geometry_violation(g: Geometry) -> Option<String> {
    if g.line_bytes <= 0 || !i128_pow2(g.line_bytes) {
        return Some(format!("line size {} is not a power of two", g.line_bytes));
    }
    if g.word_bytes <= 0 || !i128_pow2(g.word_bytes) {
        return Some(format!("word size {} is not a power of two", g.word_bytes));
    }
    if g.word_bytes >= g.line_bytes {
        return Some(format!(
            "word size {} does not subdivide line size {}",
            g.word_bytes, g.line_bytes
        ));
    }
    let words = g.line_bytes / g.word_bytes;
    if !(2..=16).contains(&words) {
        return Some(format!("a line must hold 2..=16 words, got {words}"));
    }
    None
}

fn i128_pow2(v: i128) -> bool {
    v > 0 && v & (v - 1) == 0
}

fn check_geometry_literal(
    ctx: &FileContext<'_>,
    at: &Token,
    args: &[std::ops::Range<usize>],
    findings: &mut Vec<Finding>,
) {
    if args.len() != 2 {
        return;
    }
    let (Some(line_bytes), Some(word_bytes)) = (
        const_eval(&ctx.tokens[args[0].clone()]),
        const_eval(&ctx.tokens[args[1].clone()]),
    ) else {
        return;
    };
    if let Some(why) = geometry_violation(Geometry {
        line_bytes,
        word_bytes,
    }) {
        findings.push(ctx.finding(Rule::C1, at, format!("impossible line geometry: {why}")));
    }
}

/// Shared set-count check: `size / (line_bytes * ways)` must be a
/// positive power of two.
fn check_sets(
    ctx: &FileContext<'_>,
    at: &Token,
    what: &str,
    size: i128,
    ways: i128,
    geometry: Option<Geometry>,
    findings: &mut Vec<Finding>,
) {
    if ways <= 0 {
        findings.push(ctx.finding(Rule::C1, at, format!("impossible {what}: {ways} ways")));
        return;
    }
    let Some(g) = geometry else { return };
    if geometry_violation(g).is_some() {
        return; // already reported at the geometry literal
    }
    let line_capacity = g.line_bytes * ways;
    let sets = size / line_capacity;
    if sets < 1 || sets * line_capacity != size || !i128_pow2(sets) {
        findings.push(ctx.finding(
            Rule::C1,
            at,
            format!(
                "impossible {what}: {size} B / ({} B lines × {ways} ways) must give a power-of-two set count, got {sets}",
                g.line_bytes
            ),
        ));
    }
}

fn check_cache_config(
    ctx: &FileContext<'_>,
    at: &Token,
    args: &[std::ops::Range<usize>],
    findings: &mut Vec<Finding>,
) {
    if args.len() != 3 {
        return;
    }
    let (Some(size), Some(ways)) = (
        const_eval(&ctx.tokens[args[0].clone()]),
        const_eval(&ctx.tokens[args[1].clone()]),
    ) else {
        return;
    };
    let geometry = resolve_geometry(&ctx.tokens[args[2].clone()]);
    check_sets(ctx, at, "cache geometry", size, ways, geometry, findings);
}

fn check_distill_config(
    ctx: &FileContext<'_>,
    at: &Token,
    args: &[std::ops::Range<usize>],
    findings: &mut Vec<Finding>,
) {
    if args.len() != 4 {
        return;
    }
    let size = const_eval(&ctx.tokens[args[0].clone()]);
    let total = const_eval(&ctx.tokens[args[1].clone()]);
    let woc = const_eval(&ctx.tokens[args[2].clone()]);
    if let (Some(total), Some(woc)) = (total, woc) {
        // The LOC/WOC split must partition the associativity: at least
        // one WOC way and at least one LOC way (LOC ways = total - WOC).
        if !(1..total).contains(&woc) {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!(
                    "impossible LOC/WOC split: {woc} WOC ways of {total} total (need 1 ≤ WOC < total so LOC+WOC = associativity)"
                ),
            ));
        }
    }
    if let (Some(size), Some(total)) = (size, total) {
        let geometry = resolve_geometry(&ctx.tokens[args[3].clone()]);
        check_sets(
            ctx,
            at,
            "distill-cache geometry",
            size,
            total,
            geometry,
            findings,
        );
    }
}

fn check_reverter_literal(ctx: &FileContext<'_>, i: usize, findings: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let at = &toks[i];
    // Parse `ReverterConfig { field: expr, ..rest }` up to the matching
    // brace; nested braces end the literal-field scan conservatively.
    let Some((fields, has_rest)) = parse_struct_fields(toks, i + 1) else {
        return;
    };
    let mut values: BTreeMap<&str, Option<i128>> = BTreeMap::new();
    for (name, default) in DEFAULT_REVERTER {
        values.insert(name, has_rest.then_some(default));
    }
    for (name, range) in &fields {
        if let Some(slot) = values.get_mut(name.as_str()) {
            *slot = const_eval(&toks[range.clone()]);
        }
    }
    let get = |name: &str| values.get(name).copied().flatten();
    if let Some(leaders) = get("leader_sets") {
        if !i128_pow2(leaders) {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!("reverter leader_sets must be a positive power of two, got {leaders}"),
            ));
        }
    }
    let disable = get("disable_below");
    let enable = get("enable_above");
    let max = get("psel_max");
    if let (Some(d), Some(e)) = (disable, enable) {
        if d >= e {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!(
                    "reverter hysteresis inverted: disable_below {d} must be < enable_above {e}"
                ),
            ));
        }
    }
    if let (Some(e), Some(m)) = (enable, max) {
        if e > m {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!("reverter enable_above {e} exceeds psel_max {m}"),
            ));
        }
    }
    // The paper's rails: deviating thresholds are usually a typo; a
    // deliberate threshold sweep carries an allow comment.
    if let Some(d) = disable {
        if d != PSEL_RAILS.0 {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!(
                    "disable_below {d} is off the paper's 64/192 hysteresis rails (waive deliberate sweeps with `// ldis: allow(C1, \"why\")`)"
                ),
            ));
        }
    }
    if let Some(e) = enable {
        if e != PSEL_RAILS.1 {
            findings.push(ctx.finding(
                Rule::C1,
                at,
                format!(
                    "enable_above {e} is off the paper's 64/192 hysteresis rails (waive deliberate sweeps with `// ldis: allow(C1, \"why\")`)"
                ),
            ));
        }
    }
}

/// A struct-literal field: its name and the token range of its value.
type StructField = (String, std::ops::Range<usize>);

/// Parses `{ name: expr, name: expr, ..rest }` starting at the `{`.
/// Returns the named fields with their value token ranges, plus whether a
/// `..rest` tail was present. Bails out (`None`) on nested braces inside
/// field values — those are not literal configs.
fn parse_struct_fields(toks: &[Token], open: usize) -> Option<(Vec<StructField>, bool)> {
    if !toks.get(open)?.is_punct('{') {
        return None;
    }
    let mut fields = Vec::new();
    let mut has_rest = false;
    let mut i = open + 1;
    loop {
        let t = toks.get(i)?;
        if t.is_punct('}') {
            return Some((fields, has_rest));
        }
        if t.is_punct('.') && toks.get(i + 1)?.is_punct('.') {
            has_rest = true;
            // Skip the rest-expression to the closing brace.
            let mut depth = 0i32;
            while let Some(t2) = toks.get(i) {
                if t2.is_punct('(') {
                    depth += 1;
                } else if t2.is_punct(')') {
                    depth -= 1;
                } else if depth == 0 && t2.is_punct('}') {
                    return Some((fields, has_rest));
                }
                i += 1;
            }
            return None;
        }
        // `name : value` up to a top-level `,` or `}`.
        if t.kind != lexer::TokKind::Ident || !toks.get(i + 1)?.is_punct(':') {
            return None;
        }
        let name = t.text.clone();
        let start = i + 2;
        let mut depth = 0i32;
        let mut j = start;
        loop {
            let t2 = toks.get(j)?;
            if t2.is_punct('(') || t2.is_punct('[') || t2.is_punct('{') {
                if t2.is_punct('{') {
                    return None; // nested struct literal: not a literal config
                }
                depth += 1;
            } else if t2.is_punct(')') || t2.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && (t2.is_punct(',') || t2.is_punct('}')) {
                fields.push((name, start..j));
                i = if t2.is_punct(',') { j + 1 } else { j };
                break;
            }
            j += 1;
        }
    }
}

// --- C1 over golden snapshots -------------------------------------------

/// Validates one golden snapshot (`tests/golden/<stem>.json`).
pub fn scan_golden(path: &str, stem: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |line: u32, message: String| {
        findings.push(Finding {
            rule: Rule::C1.id(),
            path: path.to_string(),
            line,
            col: 1,
            message,
            snippet: src
                .lines()
                .nth(line.saturating_sub(1) as usize)
                .unwrap_or("")
                .to_string(),
        });
    };
    let doc = match crate::json::parse(src) {
        Ok(doc) => doc,
        Err(e) => {
            push(1, format!("golden snapshot is not valid JSON: {e}"));
            return findings;
        }
    };
    match doc.get("experiment").and_then(crate::json::Json::as_str) {
        None => push(1, "golden snapshot has no `experiment` field".into()),
        Some(name) if name != stem => push(
            1,
            format!("golden snapshot `experiment` is \"{name}\" but the file is named {stem}.json"),
        ),
        Some(_) => {}
    }
    if let Some(rows) = doc.get("rows") {
        match rows.as_arr() {
            None => push(1, "golden `rows` must be an array".into()),
            Some([]) => push(
                1,
                "golden `rows` is empty: the snapshot pins nothing".into(),
            ),
            Some(_) => {}
        }
    }
    if let Some(seed) = doc.get("seed") {
        let ok = seed
            .as_num()
            .is_some_and(|n| n.chars().all(|c| c.is_ascii_digit()));
        if !ok {
            push(1, "golden `seed` must be a non-negative integer".into());
        }
    }
    if let Some(accesses) = doc.get("accesses") {
        let ok = accesses
            .as_num()
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| n > 0);
        if !ok {
            push(1, "golden `accesses` must be a positive integer".into());
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str, rules: &[Rule]) -> Vec<Finding> {
        let ctx = FileContext::new(path, src);
        scan_rust(&ctx, rules)
    }

    #[test]
    fn w1_flags_waivers_without_justification() {
        // No justification at all, and a blank one: both are W1 findings,
        // and neither waives the C1 site it is attached to.
        let src = "let g = LineGeometry::new(64, 12); // ldis: allow(C1)\n\
                   let h = LineGeometry::new(64, 12); // ldis: allow(C1, \"  \")\n";
        let found = scan("x.rs", src, &[Rule::C1]);
        let w1: Vec<_> = found.iter().filter(|f| f.rule == "W1").collect();
        let c1: Vec<_> = found.iter().filter(|f| f.rule == "C1").collect();
        assert_eq!(w1.len(), 2, "both malformed waivers reported: {found:?}");
        assert_eq!(c1.len(), 2, "malformed waivers must not waive");
        assert!(w1[0].message.contains("no justification"));
    }

    #[test]
    fn w1_flags_waivers_for_rules_ldis_lint_does_not_have() {
        // Generic checks live in clippy now; an old-style waiver for one
        // of them is reported instead of silently doing nothing.
        let src =
            "fn f(v: Option<u8>) -> u8 { v.unwrap() } // ldis: allow(P1, \"checked above\")\n";
        let found = scan("x.rs", src, &[]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "W1");
        assert!(found[0].message.contains("names no ldis-lint rule"));
    }

    #[test]
    fn w1_accepts_justified_waivers_uniformly() {
        // The same grammar works for every rule, including the
        // workspace rules checked by `crate::analyze`.
        let src =
            "let g = LineGeometry::new(64, 12); // ldis: allow(C1, \"deliberate bad geometry\")\n\
                   s.hits += 1; // ldis: allow(O1, \"bounded by the access budget\")\n";
        let found = scan("x.rs", src, &[Rule::C1]);
        assert!(found.is_empty(), "justified waivers silence: {found:?}");
    }

    #[test]
    fn const_eval_handles_rust_literals() {
        let lexed = crate::lexer::lex("1 << 20");
        assert_eq!(const_eval(&lexed.tokens), Some(1 << 20));
        let lexed = crate::lexer::lex("16 * 4 * 64");
        assert_eq!(const_eval(&lexed.tokens), Some(4096));
        let lexed = crate::lexer::lex("0x1f_u32 + 1");
        assert_eq!(const_eval(&lexed.tokens), Some(32));
        let lexed = crate::lexer::lex("(768 << 10) / 64");
        assert_eq!(const_eval(&lexed.tokens), Some(12288));
        let lexed = crate::lexer::lex("size * 2");
        assert_eq!(const_eval(&lexed.tokens), None);
    }

    #[test]
    fn c1_rejects_impossible_geometry_and_splits() {
        let src = "fn main() {\n\
                   let g = LineGeometry::new(64, 12);\n\
                   let c = DistillConfig::new(1 << 20, 8, 8, LineGeometry::default());\n\
                   }\n";
        let found = scan("x.rs", src, &[Rule::C1]);
        assert_eq!(found.len(), 2);
        assert!(found[0].message.contains("power of two"));
        assert!(found[1].message.contains("LOC/WOC split"));
    }

    #[test]
    fn c1_accepts_paper_configs() {
        let src = "fn main() {\n\
                   let g = LineGeometry::new(64, 8);\n\
                   let c = DistillConfig::new(1 << 20, 8, 2, LineGeometry::default());\n\
                   let b = CacheConfig::new(1 << 20, 8, LineGeometry::default());\n\
                   let r = ReverterConfig { leader_sets: 8, ..ReverterConfig::default() };\n\
                   }\n";
        assert!(scan("x.rs", src, &[Rule::C1]).is_empty());
    }

    #[test]
    fn c1_checks_reverter_rails_and_ordering() {
        let src = "fn main() { let r = ReverterConfig { leader_sets: 33, disable_below: 200, enable_above: 100, psel_max: 255 }; }";
        let found = scan("x.rs", src, &[Rule::C1]);
        // 33 not pow2; 200 >= 100 inverted; both thresholds off the rails.
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn c1_skips_unresolvable_values() {
        let src = "fn f(ways: u32) { let c = DistillConfig::new(1 << 20, ways, woc, geom); }";
        assert!(scan("x.rs", src, &[Rule::C1]).is_empty());
    }

    #[test]
    fn golden_checks_fire() {
        let good = scan_golden(
            "tests/golden/demo.json",
            "demo",
            r#"{"experiment": "demo", "seed": 42, "accesses": 100, "rows": [{"x": 1}]}"#,
        );
        assert!(good.is_empty());
        let bad = scan_golden(
            "tests/golden/demo.json",
            "demo",
            r#"{"experiment": "other", "seed": -3, "accesses": 0, "rows": []}"#,
        );
        assert_eq!(bad.len(), 4);
        let broken = scan_golden("tests/golden/demo.json", "demo", "{");
        assert_eq!(broken.len(), 1);
        assert!(broken[0].message.contains("not valid JSON"));
    }
}
