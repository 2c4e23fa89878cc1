//! The workspace passes: U1 (unit safety), D3 (float determinism),
//! S1 (seed provenance), L2 (lock discipline) and O1 (counter
//! arithmetic), run over the workspace model built by [`crate::model`].
//!
//! * **U1** assigns *units* — byte address, 8 B word index, line
//!   address, set index — to integer-valued expressions from two
//!   provenance sources: `LineGeometry`/`CacheConfig` accessor chains
//!   (`geom.word_index(a).get()` is word-valued; `line.raw()` on a
//!   `LineAddr` is line-valued) and the workspace naming convention for
//!   integer parameters (`addr`, `line`, `word_idx`, `set_idx`). It
//!   flags cross-unit arithmetic, comparisons, raw indexing by a
//!   byte/line-valued integer, wrong-unit newtype construction, and
//!   call arguments whose unit contradicts every resolved callee.
//! * **D3** flags floating-point accumulation that merges parallel-sweep
//!   cell results outside the canonical-order merge: shared
//!   `Mutex<f64>`-style accumulators, and float `+=`/`sum::<f64>`
//!   reductions inside closures handed to a worker-pool entry point
//!   (`sweep`, `run_matrix`, `run_cells`, ...) or `spawn`.
//! * **S1** (flow-sensitive, over [`crate::cfg`] + [`crate::dataflow`])
//!   proves seed provenance: every `SimRng::new` argument must be
//!   derived from the root seed on *every* path (must-analysis), salt
//!   literals must not collide across derive call sites, and a derived
//!   RNG must not be used again once a parallel region captured it
//!   (may-analysis).
//! * **L2** proves lock discipline: the workspace lock-acquisition-order
//!   graph is acyclic, no lock is re-acquired while held, and nothing
//!   that can transitively reach a panic site runs under a held lock.
//! * **O1** requires counter arithmetic — `+`/`*`/`<<` on `u64`/`u32`
//!   stats-struct fields and `LineGeometry` address math — to be
//!   `checked_`/`saturating_`/explicitly wrapping or carry a waiver.

use crate::cfg::Cfg;
use crate::dataflow::{solve_forward, Analysis, GenKill};
use crate::lexer::{TokKind, Token};
use crate::model::{Callee, FnId, Workspace};
use crate::report::Finding;
use crate::rules::Rule;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Runs all workspace rules over `files` (pairs of workspace-relative
/// path and source text).
pub fn scan_model(files: &[(String, String)]) -> Vec<Finding> {
    let ws = Workspace::build(files);
    let mut findings = Vec::new();
    u1(&ws, &mut findings);
    d3(&ws, &mut findings);
    s1(&ws, &mut findings);
    l2(&ws, &mut findings);
    o1(&ws, &mut findings);
    findings
}

fn finding(
    ws: &Workspace,
    rule: Rule,
    file: usize,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule: rule.id(),
        path: ws.files[file].path.clone(),
        line,
        col,
        message,
        snippet: ws.files[file].snippet(line),
    }
}

// --- Panic sites (shared by L2) -------------------------------------------

/// Is this file's code held to the no-panic contract? Sim-crate sources
/// and experiments library sources — the scope of the crate-level
/// `clippy::panic`/`unwrap_used`/`expect_used` deny block.
fn in_panic_scope(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((krate, sub)) = rest.split_once('/') else {
        return false;
    };
    (crate::SIM_CRATES.contains(&krate) && sub.starts_with("src/"))
        || (krate == "experiments" && sub.starts_with("src/") && !sub.starts_with("src/bin/"))
}

/// Which functions contain a panic site outside test code?
fn live_panic_flags(ws: &Workspace) -> Vec<bool> {
    (0..ws.fns.len())
        .map(|id| {
            let f = &ws.fns[id];
            !f.in_test && in_panic_scope(&ws.files[f.file].path) && !ws.panics[id].is_empty()
        })
        .collect()
}

/// Transitive closure of [`live_panic_flags`] over the conservative call
/// graph: which functions can *reach* a live panic site?
fn reaches_panic_flags(ws: &Workspace, live: &[bool]) -> Vec<bool> {
    let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); ws.fns.len()];
    for (id, calls) in ws.calls.iter().enumerate() {
        for c in calls {
            for &t in &c.targets {
                callers[t].push(id);
            }
        }
    }
    let mut reach = live.to_vec();
    let mut queue: VecDeque<FnId> = (0..ws.fns.len()).filter(|&i| reach[i]).collect();
    while let Some(id) = queue.pop_front() {
        for &caller in &callers[id] {
            if !reach[caller] {
                reach[caller] = true;
                queue.push_back(caller);
            }
        }
    }
    reach
}

// --- U1: unit safety ------------------------------------------------------

/// The unit of an integer-valued expression.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Unit {
    /// A byte address in the simulated physical address space.
    Byte,
    /// A word index within a line (0..words_per_line).
    Word,
    /// A line address (byte address / line size).
    Line,
    /// A set index (line address masked to 0..num_sets).
    Set,
}

impl Unit {
    fn describe(self) -> &'static str {
        match self {
            Unit::Byte => "byte-address",
            Unit::Word => "word-index",
            Unit::Line => "line-address",
            Unit::Set => "set-index",
        }
    }
}

/// What the operand tracker knows about a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tracked {
    /// A unit-bearing newtype (`Addr`, `LineAddr`, `WordIndex`): safe by
    /// construction until `.raw()`/`.get()` unwraps it.
    Typed(Newtype),
    /// A bare integer carrying a unit.
    Int(Unit),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Newtype {
    Addr,
    LineAddr,
    WordIndex,
}

impl Newtype {
    fn unit(self) -> Unit {
        match self {
            Newtype::Addr => Unit::Byte,
            Newtype::LineAddr => Unit::Line,
            Newtype::WordIndex => Unit::Word,
        }
    }

    fn of_type_name(name: &str) -> Option<Newtype> {
        match name {
            "Addr" => Some(Newtype::Addr),
            "LineAddr" => Some(Newtype::LineAddr),
            "WordIndex" => Some(Newtype::WordIndex),
            _ => None,
        }
    }
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Unit implied by an identifier per the workspace naming convention.
/// Matches whole `_`-separated parts, so `offset` never matches `set`.
pub fn name_unit(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    let parts: Vec<&str> = lower.split('_').collect();
    let has = |p: &str| parts.contains(&p);
    if has("word") && (has("idx") || has("index") || has("i")) || lower == "widx" {
        return Some(Unit::Word);
    }
    if has("set") && (has("idx") || has("index")) {
        return Some(Unit::Set);
    }
    if has("line") {
        return Some(Unit::Line);
    }
    if has("addr") || has("address") || has("byte") {
        return Some(Unit::Byte);
    }
    None
}

/// Is U1 in force for this path? Sim-crate sources only: that is where
/// the address algebra lives; experiments code consumes reports, not
/// addresses.
fn in_unit_scope(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((krate, sub)) = rest.split_once('/') else {
        return false;
    };
    crate::SIM_CRATES.contains(&krate) && sub.starts_with("src/")
}

/// Per-function variable table: name → tracked provenance.
type VarMap = BTreeMap<String, Tracked>;

fn u1(ws: &Workspace, findings: &mut Vec<Finding>) {
    for id in 0..ws.fns.len() {
        let f = &ws.fns[id];
        let file = &ws.files[f.file];
        if !in_unit_scope(&file.path) || f.in_test {
            continue;
        }
        let toks = &file.tokens;
        let mut vars = VarMap::new();
        for p in &f.item.params {
            let ty_last = p.ty.rsplit(' ').next().unwrap_or(&p.ty);
            if let Some(nt) = Newtype::of_type_name(ty_last) {
                vars.insert(p.name.clone(), Tracked::Typed(nt));
            } else if INT_TYPES.contains(&ty_last) {
                if let Some(u) = name_unit(&p.name) {
                    vars.insert(p.name.clone(), Tracked::Int(u));
                }
            }
        }
        let body = f.item.body.clone();
        collect_lets(toks, body.clone(), &mut vars);
        check_body(ws, id, &vars, findings);
    }
}

/// Walks a body once, recording `let` bindings whose declared type or
/// initializer has known provenance. Shadowing keeps the latest binding;
/// that is the reaching definition for everything after it, which is the
/// only place the checks look.
fn collect_lets(toks: &[Token], body: Range<usize>, vars: &mut VarMap) {
    let mut i = body.start;
    while i < body.end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            i = j;
            continue;
        }
        let name = name_tok.text.clone();
        j += 1;
        // Optional `: Type`.
        let mut declared: Option<Tracked> = None;
        if toks.get(j).is_some_and(|t| t.is_punct(':')) {
            let ty_start = j + 1;
            let mut k = ty_start;
            while k < body.end && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                k += 1;
            }
            if let Some(last_ident) = toks[ty_start..k]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)
            {
                if let Some(nt) = Newtype::of_type_name(&last_ident.text) {
                    declared = Some(Tracked::Typed(nt));
                } else if INT_TYPES.contains(&last_ident.text.as_str()) {
                    declared = name_unit(&name).map(Tracked::Int);
                }
            }
            j = k;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('=')) {
            i = j;
            continue;
        }
        // Initializer runs to the `;` at depth 0; bail on `{` (block
        // initializers are not simple operands anyway).
        let init_start = j + 1;
        let mut depth = 0i32;
        let mut k = init_start;
        let mut end = None;
        while k < body.end {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') {
                break;
            } else if depth == 0 && t.is_punct(';') {
                end = Some(k);
                break;
            }
            k += 1;
        }
        if let Some(end) = end {
            let inferred = operand_unit(toks, init_start..end, vars);
            match declared.or(inferred) {
                Some(tr) => {
                    vars.insert(name, tr);
                }
                None => {
                    // Unknown provenance shadows any previous binding.
                    vars.remove(&name);
                }
            }
            i = end + 1;
        } else {
            if let Some(tr) = declared {
                vars.insert(name, tr);
            }
            i = k + 1;
        }
    }
}

/// Accessor methods that produce a known newtype regardless of receiver.
fn accessor_newtype(name: &str) -> Option<Newtype> {
    match name {
        "word_index" => Some(Newtype::WordIndex),
        "line_addr" => Some(Newtype::LineAddr),
        "line_base" | "word_base" => Some(Newtype::Addr),
        _ => None,
    }
}

/// The unit of a *simple operand*: an identifier or `Type::new(...)`
/// base followed by a method chain, with an optional trailing `as <int>`
/// cast. Anything else — literals, arithmetic, unknown methods — is
/// untracked (`None`), which keeps the rule quiet rather than clever.
fn operand_unit(toks: &[Token], range: Range<usize>, vars: &VarMap) -> Option<Tracked> {
    let mut end = range.end;
    // Strip `as <type ident>` suffixes (casts preserve units).
    while end >= range.start + 2
        && toks[end - 1].kind == TokKind::Ident
        && toks[end - 2].is_ident("as")
    {
        end -= 2;
    }
    if end <= range.start {
        return None;
    }
    let mut i = range.start;
    // Base: `ident`, `Type::new(...)` or `Type::default()`.
    let base_tok = &toks[i];
    if base_tok.kind != TokKind::Ident {
        return None;
    }
    let mut state: Option<Tracked>;
    if i + 1 < end && toks[i + 1].is_punct(':') {
        // `Type::method(...)` base.
        if i + 3 >= end || !toks[i + 2].is_punct(':') || toks[i + 3].kind != TokKind::Ident {
            return None;
        }
        let ty = Newtype::of_type_name(&base_tok.text);
        let method = &toks[i + 3].text;
        if i + 4 >= end || !toks[i + 4].is_punct('(') {
            return None;
        }
        let close = matching_close(toks, i + 4, end)?;
        state = match (ty, method.as_str()) {
            (Some(nt), "new") => Some(Tracked::Typed(nt)),
            _ => None,
        };
        state?;
        i = close + 1;
    } else {
        state = vars.get(&base_tok.text).copied();
        // An untracked base still matters when a chain follows: the chain
        // may establish provenance (`geom.word_index(a).get()`).
        i += 1;
    }
    // Method chain.
    while i < end {
        if !toks[i].is_punct('.') {
            return None; // not a simple operand
        }
        let name_tok = toks.get(i + 1)?;
        if name_tok.kind != TokKind::Ident {
            return None;
        }
        let method = name_tok.text.as_str();
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            // Field access: drop tracking but keep walking.
            state = None;
            i += 2;
            continue;
        }
        let close = matching_close(toks, i + 2, end)?;
        state = match method {
            m if accessor_newtype(m).is_some() => accessor_newtype(m).map(Tracked::Typed),
            "set_index" => Some(Tracked::Int(Unit::Set)),
            "raw" => match state {
                Some(Tracked::Typed(nt)) => Some(Tracked::Int(nt.unit())),
                _ => None,
            },
            "get" | "as_usize" => match state {
                Some(Tracked::Typed(Newtype::WordIndex)) => Some(Tracked::Int(Unit::Word)),
                Some(Tracked::Typed(_)) => None,
                other => other,
            },
            _ => None,
        };
        i = close + 1;
    }
    state
}

/// Index of the `)`/`]` matching the opener at `open`, bounded by `end`.
fn matching_close(toks: &[Token], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// The largest simple operand ending at token index `end` (exclusive).
fn operand_before(toks: &[Token], end: usize) -> Option<Range<usize>> {
    let mut i = end;
    // Optional cast: `... as u64` — the cast's type ident sits at end-1.
    while i >= 2 && toks[i - 1].kind == TokKind::Ident && toks[i - 2].is_ident("as") {
        i -= 2;
    }
    let mut start = i;
    loop {
        if start == 0 {
            break;
        }
        let t = &toks[start - 1];
        if t.is_punct(')') || t.is_punct(']') {
            // Walk back over the balanced group.
            let mut depth = 0i32;
            let mut k = start - 1;
            loop {
                let t2 = &toks[k];
                if t2.is_punct(')') || t2.is_punct(']') {
                    depth += 1;
                } else if t2.is_punct('(') || t2.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            start = k;
            continue;
        }
        if t.kind == TokKind::Ident {
            start -= 1;
            // Keep going over `.` / `::` chains.
            if start >= 1 && toks[start - 1].is_punct('.') {
                start -= 1;
                continue;
            }
            if start >= 2 && toks[start - 1].is_punct(':') && toks[start - 2].is_punct(':') {
                start -= 2;
                continue;
            }
            break;
        }
        break;
    }
    (start < end).then_some(start..end)
}

/// The largest simple operand starting at token index `start`.
fn operand_after(toks: &[Token], start: usize, limit: usize) -> Option<Range<usize>> {
    let mut i = start;
    if i >= limit || toks[i].kind != TokKind::Ident {
        return None;
    }
    i += 1;
    loop {
        if i + 1 < limit && toks[i].is_punct(':') && toks[i + 1].is_punct(':') {
            if i + 2 < limit && toks[i + 2].kind == TokKind::Ident {
                i += 3;
                continue;
            }
            return None;
        }
        if i < limit && (toks[i].is_punct('(') || toks[i].is_punct('[')) {
            let close = matching_close(toks, i, limit)?;
            i = close + 1;
            continue;
        }
        if i + 1 < limit && toks[i].is_punct('.') && toks[i + 1].kind == TokKind::Ident {
            i += 2;
            continue;
        }
        if i + 1 < limit && toks[i].is_ident("as") {
            // handled by caller? no: `x as u64` — consume the cast.
            i += 1;
            continue;
        }
        break;
    }
    Some(start..i)
}

/// Binary operators U1 checks for cross-unit mixing. `(text, tokens)`
/// where tokens is how many `Punct` tokens the operator spans.
fn binary_op_at(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let t = &toks[i];
    let next = toks.get(i + 1);
    let is = |c: char| t.is_punct(c);
    let next_is = |c: char| next.is_some_and(|n| n.is_punct(c));
    if is('+') {
        return Some(if next_is('=') { ("+=", 2) } else { ("+", 1) });
    }
    if is('-') {
        if next_is('>') {
            return None;
        }
        return Some(if next_is('=') { ("-=", 2) } else { ("-", 1) });
    }
    if is('=') && next_is('=') {
        return Some(("==", 2));
    }
    if is('!') && next_is('=') {
        return Some(("!=", 2));
    }
    if is('<') {
        if next_is('<') {
            return None; // shifts change units legitimately
        }
        return Some(if next_is('=') { ("<=", 2) } else { ("<", 1) });
    }
    if is('>') {
        if next_is('>') {
            return None;
        }
        return Some(if next_is('=') { (">=", 2) } else { (">", 1) });
    }
    None
}

fn check_body(ws: &Workspace, id: FnId, vars: &VarMap, findings: &mut Vec<Finding>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let toks = &file.tokens;
    let int_unit = |range: Range<usize>| -> Option<Unit> {
        match operand_unit(toks, range, vars) {
            Some(Tracked::Int(u)) => Some(u),
            _ => None,
        }
    };
    let body = f.item.body.clone();
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        let line = t.line;
        // 1. Cross-unit binary arithmetic / comparison.
        if t.kind == TokKind::Punct {
            if let Some((op, width)) = binary_op_at(toks, i) {
                // Binary use needs a left operand; unary minus and
                // pattern contexts have none.
                let binary = i > body.start
                    && (toks[i - 1].kind == TokKind::Ident
                        || toks[i - 1].is_punct(')')
                        || toks[i - 1].is_punct(']'));
                if binary {
                    let lhs = operand_before(toks, i).and_then(&int_unit);
                    let rhs = operand_after(toks, i + width, body.end).and_then(&int_unit);
                    if let (Some(a), Some(b)) = (lhs, rhs) {
                        if a != b && !file.allows.allows(Rule::U1, line) {
                            findings.push(finding(
                                ws,
                                Rule::U1,
                                f.file,
                                line,
                                t.col,
                                format!(
                                    "cross-unit `{op}`: {} value mixed with {} value without a geometry conversion",
                                    a.describe(),
                                    b.describe()
                                ),
                            ));
                        }
                    }
                    i += width;
                    continue;
                }
            }
            // 2. Raw indexing by a byte/line-valued integer.
            if t.is_punct('[') && i > body.start {
                let prev = &toks[i - 1];
                let indexes =
                    prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']');
                if indexes {
                    if let Some(close) = matching_close(toks, i, body.end) {
                        if let Some(u) = int_unit(i + 1..close) {
                            if matches!(u, Unit::Byte | Unit::Line)
                                && !file.allows.allows(Rule::U1, line)
                            {
                                findings.push(finding(
                                    ws,
                                    Rule::U1,
                                    f.file,
                                    line,
                                    t.col,
                                    format!(
                                        "indexing with a {} value; convert through the geometry (`word_index`/`set_index`) first",
                                        u.describe()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        // 3. Wrong-unit newtype construction: `Addr::new(line_valued)`.
        if t.kind == TokKind::Ident {
            if let Some(nt) = Newtype::of_type_name(&t.text) {
                if toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|x| x.is_ident("new"))
                    && toks.get(i + 4).is_some_and(|x| x.is_punct('('))
                {
                    if let Some(close) = matching_close(toks, i + 4, body.end) {
                        if let Some(u) = int_unit(i + 5..close) {
                            if u != nt.unit() && !file.allows.allows(Rule::U1, line) {
                                findings.push(finding(
                                    ws,
                                    Rule::U1,
                                    f.file,
                                    line,
                                    t.col,
                                    format!(
                                        "`{}::new` called with a {} value (expects a {} value); use the geometry conversion instead",
                                        t.text,
                                        u.describe(),
                                        nt.unit().describe()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    // 4. Call arguments whose unit contradicts every resolved callee.
    for call in &ws.calls[id] {
        let Some((args, _)) = crate::rules::split_args(toks, call.tok + 1) else {
            continue;
        };
        if call.targets.is_empty() || file.allows.allows(Rule::U1, call.line) {
            continue;
        }
        for (k, arg) in args.iter().enumerate() {
            let Some(arg_unit) = int_unit(arg.clone()) else {
                continue;
            };
            // The call graph over-approximates: a method call resolves to
            // every same-name method in the workspace. Only flag when the
            // argument's unit contradicts EVERY candidate that has a
            // parameter in this position — a candidate whose parameter
            // carries no unit is compatible and vetoes the finding.
            let mut expected: BTreeSet<Unit> = BTreeSet::new();
            let mut param_name = String::new();
            let mut any_candidate = false;
            let mut compatible = false;
            for &target in &call.targets {
                let tf = &ws.fns[target];
                // UFCS method calls pass the receiver as argument 0.
                let shift =
                    usize::from(matches!(call.callee, Callee::Path(..)) && tf.item.has_self);
                let Some(p) = k.checked_sub(shift).and_then(|pk| tf.item.params.get(pk)) else {
                    continue;
                };
                any_candidate = true;
                let ty_last = p.ty.rsplit(' ').next().unwrap_or(&p.ty);
                match name_unit(&p.name).filter(|_| INT_TYPES.contains(&ty_last)) {
                    Some(u) if u != arg_unit => {
                        expected.insert(u);
                        param_name = p.name.clone();
                    }
                    _ => compatible = true,
                }
            }
            if any_candidate && !compatible && !expected.is_empty() {
                let wanted: Vec<&str> = expected.iter().map(|u| u.describe()).collect();
                findings.push(finding(
                    ws,
                    Rule::U1,
                    f.file,
                    call.line,
                    call.col,
                    format!(
                        "`{}` expects a {} value for `{param_name}`, got a {} value",
                        call.callee.name(),
                        wanted.join("/"),
                        arg_unit.describe()
                    ),
                ));
            }
        }
    }
}

// --- D3: float determinism ------------------------------------------------

/// Entry points whose closures run on worker threads (or, for the
/// pool's completion hook, in completion order): accumulating floats
/// inside them merges cells in completion order. D3 applies to
/// experiments library sources and sim-crate sources.
const D3_PARALLEL_CALLS: &[&str] = &[
    "sweep",
    "sweep_with_threads",
    "try_sweep_with_threads",
    "run_pool",
    "for_each_benchmark",
    "run_matrix",
    "run_matrix_with_threads",
    "run_cells",
    "spawn",
];

fn d3(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (idx, file) in ws.files.iter().enumerate() {
        if !in_panic_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        // Float-typed let bindings, for the accumulation check.
        let float_vars = collect_float_vars(toks);
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || file.in_tests(t.line) {
                continue;
            }
            // Shared float accumulators: Mutex<f64>, RwLock<f32>,
            // Mutex::new(0.0).
            if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                && !file.allows.allows(Rule::D3, t.line)
            {
                let generic_float = toks.get(i + 1).is_some_and(|n| n.is_punct('<'))
                    && generic_contains_float(toks, i + 1);
                let ctor_float = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("new"))
                    && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
                    && matching_close(toks, i + 4, toks.len())
                        .is_some_and(|c| toks[i + 5..c].iter().any(is_floatish));
                if generic_float || ctor_float {
                    findings.push(finding(
                        ws,
                        Rule::D3,
                        idx,
                        t.line,
                        t.col,
                        format!(
                            "shared `{}` over a float merges parallel cell results in completion order; collect per-cell results and reduce after the canonical-order merge (`parallel::sweep`)",
                            t.text
                        ),
                    ));
                }
                continue;
            }
            // Float accumulation inside a worker closure.
            if D3_PARALLEL_CALLS.iter().any(|c| t.is_ident(c))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                let Some(close) = matching_close(toks, i + 1, toks.len()) else {
                    continue;
                };
                scan_closure_accumulation(ws, idx, i + 2..close, &float_vars, findings);
            }
        }
    }
}

fn is_floatish(t: &Token) -> bool {
    t.kind == TokKind::Float || t.is_ident("f64") || t.is_ident("f32")
}

fn generic_contains_float(toks: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[open..] {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return false;
        } else if is_floatish(t) {
            return true;
        }
    }
    false
}

/// Names of `let`-bound variables with float provenance (declared
/// `f64`/`f32` or initialized from a float literal).
fn collect_float_vars(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks[j].is_ident("mut") {
                j += 1;
            }
            if toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                // Look ahead to the end of the statement for float signs.
                let mut k = j + 1;
                let mut floaty = false;
                let mut depth = 0i32;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if t.is_punct('{') || (depth == 0 && t.is_punct(';')) {
                        break;
                    } else if is_floatish(t) {
                        floaty = true;
                    }
                    k += 1;
                }
                if floaty {
                    out.insert(name);
                }
            }
        }
        i += 1;
    }
    out
}

/// Flags float compound assignment and `sum::<f64>` reductions inside a
/// worker-closure token range.
fn scan_closure_accumulation(
    ws: &Workspace,
    file_idx: usize,
    range: Range<usize>,
    float_vars: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let file = &ws.files[file_idx];
    let toks = &file.tokens;
    // Only closures merge results in completion order; a plain
    // `sweep(&items, job)` where `job` is a named fn cannot capture an
    // accumulator. Require a `|` inside the args before flagging.
    if !toks[range.clone()].iter().any(|t| t.is_punct('|')) {
        return;
    }
    let mut i = range.start;
    while i < range.end {
        let t = &toks[i];
        // `lhs += rhs` (and -=, *=, /=) with float evidence on either side.
        if t.kind == TokKind::Punct
            && ["+", "-", "*", "/"].iter().any(|c| t.text == *c)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('='))
        {
            let lhs_float = operand_before(toks, i).is_some_and(|r| {
                toks[r.clone()].iter().any(|x| {
                    is_floatish(x)
                        || (x.kind == TokKind::Ident && float_vars.contains(&x.text))
                        || x.is_ident("lock")
                })
            });
            let rhs_float = {
                let mut k = i + 2;
                let mut found = false;
                let mut depth = 0i32;
                while k < range.end {
                    let x = &toks[k];
                    if x.is_punct('(') || x.is_punct('[') {
                        depth += 1;
                    } else if x.is_punct(')') || x.is_punct(']') {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && (x.is_punct(';') || x.is_punct(',')) {
                        break;
                    } else if is_floatish(x)
                        || (x.kind == TokKind::Ident && float_vars.contains(&x.text))
                    {
                        found = true;
                    }
                    k += 1;
                }
                found
            };
            if (lhs_float || rhs_float)
                && !file.in_tests(t.line)
                && !file.allows.allows(Rule::D3, t.line)
            {
                findings.push(finding(
                    ws,
                    Rule::D3,
                    file_idx,
                    t.line,
                    t.col,
                    format!(
                        "float `{}=` inside a parallel worker closure accumulates cells in completion order; return the value and reduce after the canonical-order merge",
                        t.text
                    ),
                ));
            }
            i += 2;
            continue;
        }
        // `.sum::<f64>()` / `.product::<f32>()` inside the closure.
        if (t.is_ident("sum") || t.is_ident("product"))
            && i > range.start
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && generic_contains_float(toks, i + 3)
            && !file.in_tests(t.line)
            && !file.allows.allows(Rule::D3, t.line)
        {
            findings.push(finding(
                ws,
                Rule::D3,
                file_idx,
                t.line,
                t.col,
                format!(
                    "float `.{}()` reduction inside a parallel worker closure; reduce after the canonical-order merge",
                    t.text
                ),
            ));
        }
        i += 1;
    }
}

// --- S1: seed provenance (flow-sensitive) ---------------------------------

/// Functions that mint a derived seed or RNG stream from the root seed.
const DERIVE_ORIGINS: &[&str] = &[
    "derive",
    "derive_seed",
    "derive_seed_chain",
    "stable_id",
    "fork",
];

/// Is S1 in force for this path? The determinism crates plus the
/// experiments library — minus `crates/mem/src/rng.rs`, which implements
/// the derive primitives themselves (its constructors ARE the origins).
fn in_seed_scope(path: &str) -> bool {
    path != "crates/mem/src/rng.rs" && in_panic_scope(path)
}

/// Does the identifier carry a `seed` component per the workspace naming
/// convention (whole `_`-separated parts, like [`name_unit`])?
fn has_seed_part(name: &str) -> bool {
    name.to_ascii_lowercase()
        .split('_')
        .any(|p| p == "seed" || p == "seeds")
}

/// Is the expression in `range` derived from the root seed, given the
/// set of variables known-derived on every path to this statement?
///
/// Derived means: it contains a call to a derive origin
/// (`derive`/`derive_seed`/`derive_seed_chain`/`stable_id`/`fork`), or
/// it is a *simple path* (idents, `.`/`::`/`&` only — no literals, no
/// arithmetic) naming a derived variable or a `seed`-named component.
/// `seed ^ 0x123`-style ad-hoc mixing is deliberately NOT derived: xor
/// folds distinct streams onto each other, which is the exact bug class
/// the salt-chain discipline exists to prevent.
fn expr_is_derived(toks: &[Token], range: Range<usize>, derived: &BTreeSet<String>) -> bool {
    for i in range.clone() {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && DERIVE_ORIGINS.iter().any(|d| t.is_ident(d))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
    }
    let mut qualifies = false;
    for t in &toks[range] {
        match t.kind {
            TokKind::Ident => {
                if derived.contains(&t.text) || has_seed_part(&t.text) {
                    qualifies = true;
                }
            }
            TokKind::Punct if t.is_punct('.') || t.is_punct(':') || t.is_punct('&') => {}
            _ => return false,
        }
    }
    qualifies
}

/// Splits a statement span into an assignment: `let [mut] name ... = rhs`
/// or `name = rhs`. Returns the bound name and the rhs token range.
fn assignment_parts(toks: &[Token], span: Range<usize>) -> Option<(String, Range<usize>)> {
    let mut i = span.start;
    if toks.get(i)?.is_ident("let") {
        i += 1;
        if toks.get(i)?.is_ident("mut") {
            i += 1;
        }
    }
    let name_tok = toks.get(i)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Find the `=` at depth 0 that is neither `==` nor part of a
    // compound/comparison operator.
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < span.end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('=') {
            let prev_compound = toks.get(j.wrapping_sub(1)).is_some_and(|p| {
                ["+", "-", "*", "/", "%", "^", "&", "|", "<", ">", "!", "="]
                    .iter()
                    .any(|c| p.text == *c && p.kind == TokKind::Punct)
            });
            let next_eq = toks.get(j + 1).is_some_and(|n| n.is_punct('='));
            if !prev_compound && !next_eq {
                return (j + 1 < span.end).then(|| (name, j + 1..span.end));
            }
        }
        j += 1;
    }
    None
}

/// The must-analysis fact: variables holding a derived seed/RNG on every
/// path. Transfer interprets one statement-level assignment per node.
struct SeedTaint<'a> {
    toks: &'a [Token],
    cfg: &'a Cfg,
    boundary: BTreeSet<String>,
}

impl Analysis for SeedTaint<'_> {
    type Fact = BTreeSet<String>;

    fn boundary(&self) -> Self::Fact {
        self.boundary.clone()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.intersection(b).cloned().collect() // must: derived on EVERY path
    }

    fn transfer(&self, node: usize, input: &Self::Fact) -> Self::Fact {
        let mut out = input.clone();
        let span = self.cfg.nodes[node].span.clone();
        if let Some((name, rhs)) = assignment_parts(self.toks, span) {
            if expr_is_derived(self.toks, rhs, &out) {
                out.insert(name);
            } else {
                out.remove(&name);
            }
        }
        out
    }
}

fn s1(ws: &Workspace, findings: &mut Vec<Finding>) {
    for id in 0..ws.fns.len() {
        let f = &ws.fns[id];
        let file = &ws.files[f.file];
        if !in_seed_scope(&file.path) || f.in_test {
            continue;
        }
        let toks = &file.tokens;
        let body = f.item.body.clone();
        // Cheap relevance gate before building a CFG.
        if !toks[body.clone()]
            .iter()
            .any(|t| t.is_ident("SimRng") || t.is_ident("fork"))
        {
            continue;
        }
        let graph = Cfg::build(toks, body);
        s1_non_derived_construction(ws, id, &graph, findings);
        s1_reuse_after_parallel(ws, id, &graph, findings);
    }
    s1_salt_collisions(ws, findings);
}

/// Flags `SimRng::new(arg)` where `arg` is not derived on every path.
fn s1_non_derived_construction(ws: &Workspace, id: FnId, graph: &Cfg, findings: &mut Vec<Finding>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let toks = &file.tokens;
    let sites: Vec<&crate::model::CallSite> = ws.calls[id]
        .iter()
        .filter(|c| matches!(&c.callee, Callee::Path(q, n) if q == "SimRng" && n == "new"))
        .collect();
    if sites.is_empty() {
        return;
    }
    let boundary: BTreeSet<String> = f
        .item
        .params
        .iter()
        .filter(|p| has_seed_part(&p.name))
        .map(|p| p.name.clone())
        .collect();
    let taint = SeedTaint {
        toks,
        cfg: graph,
        boundary,
    };
    let sol = solve_forward(graph, &taint);
    for site in sites {
        if file.in_tests(site.line) || file.allows.allows(Rule::S1, site.line) {
            continue;
        }
        let Some((args, _)) = crate::rules::split_args(toks, site.tok + 1) else {
            continue;
        };
        let Some(arg) = args.first() else { continue };
        // The input fact before the statement containing the call; an
        // unreachable or unmapped site produces no finding.
        let Some(fact) = graph.node_at(site.tok).and_then(|n| sol.input[n].clone()) else {
            continue;
        };
        if !expr_is_derived(toks, arg.clone(), &fact) {
            findings.push(finding(
                ws,
                Rule::S1,
                f.file,
                site.line,
                site.col,
                "`SimRng::new` seeded from a non-derived value; route it through `SimRng::derive`/`derive_seed_chain`/`stable_id` so the stream stays collision-free under the root seed".to_string(),
            ));
        }
    }
}

/// RHS shapes that produce an RNG value: `SimRng::...`, `.fork()`, or a
/// `.derive(...)` method call.
fn rhs_makes_rng(toks: &[Token], rhs: Range<usize>) -> bool {
    for i in rhs.clone() {
        let t = &toks[i];
        if t.is_ident("SimRng") {
            return true;
        }
        if (t.is_ident("fork") || t.is_ident("derive"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
    }
    false
}

/// Does this statement span hand `var` to a parallel-region closure
/// (a [`D3_PARALLEL_CALLS`] call whose args contain a `|` closure
/// mentioning `var`)?
fn captures_in_parallel(toks: &[Token], span: Range<usize>, var: &str) -> bool {
    for i in span.clone() {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && D3_PARALLEL_CALLS.iter().any(|c| t.is_ident(c))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matching_close(toks, i + 1, span.end) {
                let args = &toks[i + 2..close];
                if args.iter().any(|x| x.is_punct('|')) && args.iter().any(|x| x.is_ident(var)) {
                    return true;
                }
            }
        }
    }
    false
}

/// May-analysis: flags a derived RNG used again after a parallel region
/// captured it — the second use interleaves with the workers' stream,
/// making the result order-dependent.
fn s1_reuse_after_parallel(ws: &Workspace, id: FnId, graph: &Cfg, findings: &mut Vec<Finding>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let toks = &file.tokens;
    let mut rng_vars: BTreeSet<String> = BTreeSet::new();
    for node in &graph.nodes {
        if let Some((name, rhs)) = assignment_parts(toks, node.span.clone()) {
            if rhs_makes_rng(toks, rhs) {
                rng_vars.insert(name);
            }
        }
    }
    if rng_vars.is_empty() {
        return;
    }
    let n = graph.nodes.len();
    let mut gen = vec![BTreeSet::new(); n];
    for (nid, node) in graph.nodes.iter().enumerate() {
        for v in &rng_vars {
            if captures_in_parallel(toks, node.span.clone(), v) {
                gen[nid].insert(v.clone());
            }
        }
    }
    if gen.iter().all(BTreeSet::is_empty) {
        return;
    }
    let consumed = GenKill {
        must: false, // may: consumed on SOME path is already a hazard
        boundary: BTreeSet::new(),
        gen: gen.clone(),
        kill: vec![BTreeSet::new(); n],
    };
    let sol = solve_forward(graph, &consumed);
    for (nid, node) in graph.nodes.iter().enumerate() {
        let Some(before) = &sol.input[nid] else {
            continue;
        };
        for v in before {
            let Some(use_tok) = node.span.clone().find(|&i| toks[i].is_ident(v)) else {
                continue;
            };
            let t = &toks[use_tok];
            if file.in_tests(t.line) || file.allows.allows(Rule::S1, t.line) {
                continue;
            }
            let message = if gen[nid].contains(v) {
                format!(
                    "derived RNG `{v}` is captured by a second parallel region; fork a fresh stream per region so cell seeds stay collision-free"
                )
            } else {
                format!(
                    "derived RNG `{v}` is used again after a parallel region captured it; its stream interleaves with the workers' — derive a fresh RNG instead"
                )
            };
            findings.push(finding(ws, Rule::S1, f.file, t.line, t.col, message));
        }
    }
}

/// One statically-resolved component of a derive-salt tuple.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum SaltPart {
    Int(i128),
    Id(String),
}

impl SaltPart {
    fn describe(&self) -> String {
        match self {
            SaltPart::Int(v) => format!("{v:#x}"),
            SaltPart::Id(s) => format!("stable_id(\"{s}\")"),
        }
    }
}

/// Resolves one salt argument to constant components: an integer
/// constant expression, a `stable_id("...")` call, or a `&[...]` slice
/// of such. Returns `false` when anything is non-constant (the site
/// then does not participate in collision detection).
fn resolve_salt(toks: &[Token], range: Range<usize>, out: &mut Vec<SaltPart>) -> bool {
    let mut start = range.start;
    while toks.get(start).is_some_and(|t| t.is_punct('&')) {
        start += 1;
    }
    if start >= range.end {
        return false;
    }
    if toks[start].is_punct('[') {
        let Some(close) = matching_close(toks, start, range.end) else {
            return false;
        };
        // Split the slice elements at top-level commas.
        let mut depth = 0i32;
        let mut elem_start = start + 1;
        for i in start + 1..close {
            let t = &toks[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                if !resolve_salt(toks, elem_start..i, out) {
                    return false;
                }
                elem_start = i + 1;
            }
        }
        return elem_start >= close || resolve_salt(toks, elem_start..close, out);
    }
    if toks[start].is_ident("stable_id") && toks.get(start + 1).is_some_and(|t| t.is_punct('(')) {
        let inner: Vec<&Token> = toks[start + 2..range.end]
            .iter()
            .take_while(|t| !t.is_punct(')'))
            .collect();
        if let [lit] = inner[..] {
            if lit.kind == TokKind::Str {
                out.push(SaltPart::Id(lit.text.trim_matches('"').to_string()));
                return true;
            }
        }
        return false;
    }
    match crate::rules::const_eval(&toks[start..range.end]) {
        Some(v) => {
            out.push(SaltPart::Int(v));
            true
        }
        None => false,
    }
}

/// Flags two derive call sites whose (base expression, salt tuple) pairs
/// are identical: the derived streams collide.
fn s1_salt_collisions(ws: &Workspace, findings: &mut Vec<Finding>) {
    type Key = (String, String, Vec<SaltPart>);
    let mut groups: BTreeMap<Key, Vec<(usize, u32, u32)>> = BTreeMap::new();
    for id in 0..ws.fns.len() {
        let f = &ws.fns[id];
        let file = &ws.files[f.file];
        if f.in_test || !in_seed_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        for call in &ws.calls[id] {
            let name = call.callee.name();
            if !matches!(name, "derive" | "derive_seed" | "derive_seed_chain") {
                continue;
            }
            if file.in_tests(call.line) {
                continue;
            }
            let Some((args, _)) = crate::rules::split_args(toks, call.tok + 1) else {
                continue;
            };
            // The base-seed expression: the receiver for method calls,
            // the first argument for `SimRng::derive_seed*` forms.
            let (base, salt_args) = match &call.callee {
                Callee::Method(_) => {
                    let recv = call
                        .tok
                        .checked_sub(1)
                        .and_then(|dot| operand_before(toks, dot))
                        .map(|r| tok_text(toks, r))
                        .unwrap_or_default();
                    (recv, &args[..])
                }
                _ => {
                    let Some(first) = args.first() else { continue };
                    (tok_text(toks, first.clone()), &args[1..])
                }
            };
            let mut salts = Vec::new();
            if salt_args.is_empty()
                || !salt_args
                    .iter()
                    .all(|a| resolve_salt(toks, a.clone(), &mut salts))
            {
                continue;
            }
            groups
                .entry((name.to_string(), base, salts))
                .or_default()
                .push((f.file, call.line, call.col));
        }
    }
    for ((name, base, salts), mut sites) in groups {
        sites.sort_unstable();
        sites.dedup();
        if sites.len() < 2 {
            continue;
        }
        let (first_file, first_line, _) = sites[0];
        let salt_desc: Vec<String> = salts.iter().map(SaltPart::describe).collect();
        for &(fidx, line, col) in &sites[1..] {
            let file = &ws.files[fidx];
            if file.allows.allows(Rule::S1, line) {
                continue;
            }
            findings.push(finding(
                ws,
                Rule::S1,
                fidx,
                line,
                col,
                format!(
                    "`{name}` from base `{base}` with salt [{}] duplicates the derive at {}:{}; the two derived streams collide — pick a distinct salt",
                    salt_desc.join(", "),
                    ws.files[first_file].path,
                    first_line
                ),
            ));
        }
    }
}

/// The source text of a token range, single-space separated.
fn tok_text(toks: &[Token], range: Range<usize>) -> String {
    toks[range]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

// --- L2: lock discipline --------------------------------------------------

/// Macros whose expansion aborts the process (mirrors the model's list;
/// used for the direct panic-under-lock scan).
const L2_PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One `.lock()` acquisition site inside a function body.
struct LockSite {
    /// Token index of the `lock` identifier.
    tok: usize,
    line: u32,
    col: u32,
    /// Lock identity: the identifier the receiver chain ends in
    /// (`tasks.lock()` → `tasks`, `self.slots[i].lock()` → `slots`).
    name: String,
    /// `let <guard> = ...lock()...` binds the guard to a named variable,
    /// extending the hold to the end of the enclosing block.
    named_guard: bool,
}

/// Collects `.lock()` acquisition sites in `body`.
fn lock_sites(toks: &[Token], body: Range<usize>) -> Vec<LockSite> {
    let mut out = Vec::new();
    for i in body.clone() {
        let t = &toks[i];
        if !t.is_ident("lock")
            || i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        // Identity: the ident right before the final `.`, hopping back
        // over one `[...]`/`(...)` group if present.
        let mut k = i - 1; // the `.`
        let name = loop {
            if k == 0 {
                break "<lock>".to_string();
            }
            k -= 1;
            let p = &toks[k];
            if p.is_punct(']') || p.is_punct(')') {
                let mut depth = 0i32;
                while k > 0 {
                    let q = &toks[k];
                    if q.is_punct(']') || q.is_punct(')') {
                        depth += 1;
                    } else if q.is_punct('[') || q.is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k -= 1;
                }
                continue;
            }
            if p.kind == TokKind::Ident {
                break p.text.clone();
            }
            break "<lock>".to_string();
        };
        // Named guard: `let [mut] <name> = <receiver>.lock()`.
        let recv_start = operand_before(toks, i - 1).map_or(i - 1, |r| r.start);
        let named_guard = recv_start >= 3
            && toks[recv_start - 1].is_punct('=')
            && toks[recv_start - 2].kind == TokKind::Ident
            && !toks[recv_start - 2].is_ident("_")
            && (toks[recv_start - 3].is_ident("let")
                || (toks[recv_start - 3].is_ident("mut")
                    && recv_start >= 4
                    && toks[recv_start - 4].is_ident("let")));
        out.push(LockSite {
            tok: i,
            line: t.line,
            col: t.col,
            name,
            named_guard,
        });
    }
    out
}

/// The token index where the guard acquired at `site` is released: the
/// end of the enclosing block for named guards (RAII drop), the end of
/// the statement for temporaries, truncated at an explicit `drop(..)` of
/// any guard.
fn guard_extent(toks: &[Token], site: &LockSite, body_end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = site.tok;
    while i < body_end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i; // enclosing block closes: named guard drops
            }
        } else if depth == 0 && t.is_punct(';') && !site.named_guard {
            return i; // temporary guard: dropped at statement end
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            return i; // explicit early release (approximate: any drop)
        }
        i += 1;
    }
    body_end
}

fn l2(ws: &Workspace, findings: &mut Vec<Finding>) {
    let live = live_panic_flags(ws);
    let reaches = reaches_panic_flags(ws, &live);
    // The workspace lock-order graph: (held, acquired) → first site.
    let mut edges: BTreeMap<(String, String), (usize, u32, u32)> = BTreeMap::new();
    for id in 0..ws.fns.len() {
        let f = &ws.fns[id];
        let file = &ws.files[f.file];
        if f.in_test || !in_panic_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        let body = f.item.body.clone();
        let sites = lock_sites(toks, body.clone());
        if sites.is_empty() {
            continue;
        }
        for site in &sites {
            if file.in_tests(site.line) {
                continue;
            }
            let end = guard_extent(toks, site, body.end);
            // Nested acquisitions while this guard is held.
            for inner in &sites {
                if inner.tok <= site.tok || inner.tok >= end {
                    continue;
                }
                if inner.name == site.name {
                    if !file.allows.allows(Rule::L2, inner.line) {
                        findings.push(finding(
                            ws,
                            Rule::L2,
                            f.file,
                            inner.line,
                            inner.col,
                            format!(
                                "lock `{}` acquired again while already held (acquired at line {}); this self-deadlocks on every path reaching it",
                                inner.name, site.line
                            ),
                        ));
                    }
                } else {
                    edges
                        .entry((site.name.clone(), inner.name.clone()))
                        .or_insert((f.file, inner.line, inner.col));
                }
            }
            // Panic-capable calls while the guard is held poison the
            // mutex for every other worker.
            for call in &ws.calls[id] {
                if call.tok <= site.tok || call.tok >= end {
                    continue;
                }
                if file.allows.allows(Rule::L2, call.line) {
                    continue;
                }
                if call.targets.iter().any(|&t| reaches[t]) {
                    findings.push(finding(
                        ws,
                        Rule::L2,
                        f.file,
                        call.line,
                        call.col,
                        format!(
                            "call to `{}` can panic while lock `{}` is held (acquired at line {}); a panic here poisons the mutex for every other worker — narrow the guard or make the callee panic-free",
                            call.callee.name(),
                            site.name,
                            site.line
                        ),
                    ));
                }
            }
            // Direct panic macros under the guard.
            for i in site.tok + 1..end {
                let t = &toks[i];
                if t.kind == TokKind::Ident
                    && L2_PANIC_MACROS.iter().any(|m| t.is_ident(m))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    && !file.allows.allows(Rule::L2, t.line)
                {
                    findings.push(finding(
                        ws,
                        Rule::L2,
                        f.file,
                        t.line,
                        t.col,
                        format!(
                            "`{}!` while lock `{}` is held (acquired at line {}); a panic here poisons the mutex for every other worker",
                            t.text, site.name, site.line
                        ),
                    ));
                }
            }
        }
    }
    // Deadlock freedom: the acquisition-order graph must be acyclic.
    for cycle in lock_cycles(&edges) {
        let mut hops = Vec::new();
        for w in cycle.windows(2) {
            let (fidx, line, _) = edges[&(w[0].clone(), w[1].clone())];
            hops.push(format!(
                "`{}` while holding `{}` at {}:{}",
                w[1], w[0], ws.files[fidx].path, line
            ));
        }
        let (fidx, line, col) = edges[&(cycle[0].clone(), cycle[1].clone())];
        if ws.files[fidx].allows.allows(Rule::L2, line) {
            continue;
        }
        findings.push(finding(
            ws,
            Rule::L2,
            fidx,
            line,
            col,
            format!(
                "lock-order cycle {}: two workers taking the locks in opposite order deadlock ({})",
                cycle.join(" -> "),
                hops.join("; ")
            ),
        ));
    }
}

/// Enumerates cycles in the lock-order graph, canonicalized (rotated to
/// start at the smallest name, closing edge included: `a -> b -> a`).
fn lock_cycles(edges: &BTreeMap<(String, String), (usize, u32, u32)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (held, acquired) in edges.keys() {
        adj.entry(held).or_default().push(acquired);
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; path-based cycle detection is fine at this
    // scale (a handful of locks).
    for &start in adj.keys() {
        let mut stack: Vec<(&String, usize)> = vec![(start, 0)];
        let mut path: Vec<&String> = vec![start];
        while let Some((node, next_idx)) = stack.last_mut() {
            let succs = adj.get(*node).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(&succ) = succs.get(*next_idx) {
                *next_idx += 1;
                if let Some(pos) = path.iter().position(|&p| p == succ) {
                    // Found a cycle: canonicalize the rotation.
                    let cyc: Vec<String> = path[pos..].iter().map(|s| (*s).to_string()).collect();
                    let min = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| *s)
                        .map(|(i, _)| i);
                    if let Some(min) = min {
                        let mut rot: Vec<String> =
                            cyc[min..].iter().chain(&cyc[..min]).cloned().collect();
                        rot.push(rot[0].clone());
                        cycles.insert(rot);
                    }
                } else if path.len() < 16 {
                    path.push(succ);
                    stack.push((succ, 0));
                }
            } else {
                stack.pop();
                path.pop();
            }
        }
    }
    cycles.into_iter().collect()
}

// --- O1: counter arithmetic -----------------------------------------------

/// Integer types O1 treats as overflow-prone counters.
const O1_COUNTER_TYPES: &[&str] = &["u64", "u32"];

/// Field names of every `*Stats` struct in the workspace whose type is a
/// `u64`/`u32` counter. Field-name based: `self.accesses` on any struct
/// matches once some stats struct declares `accesses: u64`.
fn counter_fields(ws: &Workspace) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in &ws.files {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("struct")
                || !toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident && t.text.ends_with("Stats"))
            {
                continue;
            }
            // Find the field block's `{` (stopping at `;` for tuple/unit
            // structs).
            let mut j = i + 2;
            let open = loop {
                match toks.get(j) {
                    Some(t) if t.is_punct('{') => break Some(j),
                    Some(t) if t.is_punct(';') || t.is_punct('(') => break None,
                    Some(_) => j += 1,
                    None => break None,
                }
            };
            let Some(open) = open else { continue };
            let close = crate::parser::brace_end(toks, open);
            let mut depth = 1i32;
            let mut k = open + 1;
            while k + 1 < close {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && t.kind == TokKind::Ident
                    && toks[k + 1].is_punct(':')
                    && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                {
                    // `name : Type` — a counter when Type starts u64/u32.
                    if toks
                        .get(k + 2)
                        .is_some_and(|ty| O1_COUNTER_TYPES.iter().any(|c| ty.is_ident(c)))
                    {
                        out.insert(t.text.clone());
                    }
                }
                k += 1;
            }
        }
    }
    out
}

/// The unchecked operator at token `i`, if any: `+`, `+=`, `*`, `*=`,
/// `<<`, `<<=`. Returns the operator text and its token width.
fn o1_op(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let t = toks.get(i)?;
    let next_eq = |at: usize| toks.get(at).is_some_and(|n| n.is_punct('='));
    if t.is_punct('+') {
        return Some(if next_eq(i + 1) { ("+=", 2) } else { ("+", 1) });
    }
    if t.is_punct('*') {
        return Some(if next_eq(i + 1) { ("*=", 2) } else { ("*", 1) });
    }
    if t.is_punct('<') && toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
        return Some(if next_eq(i + 2) {
            ("<<=", 3)
        } else {
            ("<<", 2)
        });
    }
    None
}

/// `impl LineGeometry { .. }` token ranges in one file.
fn line_geometry_impls(toks: &[Token]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("impl")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("LineGeometry"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            out.push(i + 3..crate::parser::brace_end(toks, i + 2));
        }
    }
    out
}

fn o1(ws: &Workspace, findings: &mut Vec<Finding>) {
    let counters = counter_fields(ws);
    for (idx, file) in ws.files.iter().enumerate() {
        if !in_unit_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        let geom = line_geometry_impls(toks);
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            // Counter-field arithmetic: `.field +`, `.field +=`, ...
            if t.is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && counters.contains(&n.text))
            {
                if let Some((op, width)) = o1_op(toks, i + 2) {
                    let field = &toks[i + 1];
                    let op_tok = &toks[i + 2];
                    if !file.in_tests(op_tok.line) && !file.allows.allows(Rule::O1, op_tok.line) {
                        let fix = if op.ends_with('=') {
                            "use a saturating bump (`Counter::bump`/`bump_by`)"
                        } else {
                            "use `saturating_add`/`checked_mul`/an explicit wrapping op"
                        };
                        findings.push(finding(
                            ws,
                            Rule::O1,
                            idx,
                            op_tok.line,
                            op_tok.col,
                            format!(
                                "unchecked `{op}` on stats counter `{}`; a saturated counter is a wrong report, a wrapped one is a silently wrong report — {fix}",
                                field.text
                            ),
                        ));
                    }
                    i += 2 + width;
                    continue;
                }
            }
            // LineGeometry address math: any binary `+`/`*`/`<<`.
            if geom.iter().any(|r| r.contains(&i)) {
                if let Some((op, width)) = o1_op(toks, i) {
                    let binary = i > 0
                        && (toks[i - 1].kind == TokKind::Ident
                            || toks[i - 1].kind == TokKind::Int
                            || toks[i - 1].is_punct(')')
                            || toks[i - 1].is_punct(']'));
                    if binary && !file.in_tests(t.line) && !file.allows.allows(Rule::O1, t.line) {
                        findings.push(finding(
                            ws,
                            Rule::O1,
                            idx,
                            t.line,
                            t.col,
                            format!(
                                "unchecked `{op}` in `LineGeometry` address math; use `checked_`/`saturating_` ops or waive with the construction-time bound"
                            ),
                        ));
                    }
                    i += width;
                    continue;
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        scan_model(&owned)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn u1_flags_cross_unit_arithmetic_and_indexing() {
        let found = scan(&[(
            "crates/mem/src/fixture.rs",
            "pub fn f(addr: u64, line_addr: u64, words: &[u64]) -> u64 {\n\
             let x = addr + line_addr;\n\
             let w = words[addr as usize];\n\
             x + w\n\
             }\n",
        )]);
        let u1: Vec<&Finding> = found.iter().filter(|f| f.rule == "U1").collect();
        assert_eq!(u1.len(), 2, "{u1:?}");
        assert!(u1[0].message.contains("cross-unit `+`"));
        assert!(u1[1].message.contains("indexing with a byte-address"));
    }

    #[test]
    fn u1_tracks_geometry_chains_and_newtype_misuse() {
        let found = scan(&[(
            "crates/mem/src/fixture.rs",
            "pub fn f(geom: &LineGeometry, addr: Addr, store: &[u64]) -> u64 {\n\
             let byte = addr.raw();\n\
             let _bad = LineAddr::new(byte);\n\
             store[addr.raw() as usize]\n\
             }\n",
        )]);
        let u1: Vec<&Finding> = found.iter().filter(|f| f.rule == "U1").collect();
        assert_eq!(u1.len(), 2, "{u1:?}");
        assert!(u1[0]
            .message
            .contains("`LineAddr::new` called with a byte-address"));
        assert!(u1[1].message.contains("indexing with a byte-address"));
    }

    #[test]
    fn u1_accepts_proper_conversions() {
        let found = scan(&[(
            "crates/mem/src/fixture.rs",
            "pub fn f(geom: &LineGeometry, addr: Addr, store: &[u64]) -> u64 {\n\
             let w = geom.word_index(addr).as_usize();\n\
             let line = geom.line_addr(addr);\n\
             let _back = geom.line_base(line);\n\
             store[w]\n\
             }\n",
        )]);
        assert!(rules_of(&found).iter().all(|r| *r != "U1"), "{found:?}");
    }

    #[test]
    fn u1_checks_call_argument_units() {
        let found = scan(&[(
            "crates/mem/src/fixture.rs",
            "fn lookup(word_idx: usize) -> u64 { word_idx as u64 }\n\
             pub fn f(addr: u64) -> u64 { lookup(addr as usize) }\n",
        )]);
        let u1: Vec<&Finding> = found.iter().filter(|f| f.rule == "U1").collect();
        assert_eq!(u1.len(), 1, "{u1:?}");
        assert!(u1[0].message.contains("expects a word-index"));
    }

    #[test]
    fn d3_flags_shared_float_accumulators_and_closure_sums() {
        let found = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn f(cells: &[u64]) -> f64 {\n\
             let total = Mutex::new(0.0f64);\n\
             sweep(cells, |c| { let mpki = *c as f64; *total.lock().unwrap() += mpki; });\n\
             let t = *total.lock().unwrap(); t\n\
             }\n",
        )]);
        let d3: Vec<&Finding> = found.iter().filter(|f| f.rule == "D3").collect();
        assert_eq!(d3.len(), 2, "{d3:?}");
        assert!(d3[0].message.contains("shared `Mutex`"));
        assert!(d3[1].message.contains("float `+=`"));
    }

    #[test]
    fn d3_is_silent_on_canonical_order_reduction() {
        let found = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn f(cells: &[u64]) -> f64 {\n\
             let per_cell: Vec<f64> = sweep(cells, |c| *c as f64);\n\
             let mut total = 0.0;\n\
             for v in &per_cell { total += v; }\n\
             total\n\
             }\n",
        )]);
        assert!(rules_of(&found).iter().all(|r| *r != "D3"), "{found:?}");
    }

    #[test]
    fn name_unit_matches_whole_parts_only() {
        assert_eq!(name_unit("addr"), Some(Unit::Byte));
        assert_eq!(name_unit("byte_addr"), Some(Unit::Byte));
        assert_eq!(name_unit("line_addr"), Some(Unit::Line));
        assert_eq!(name_unit("word_idx"), Some(Unit::Word));
        assert_eq!(name_unit("set_index"), Some(Unit::Set));
        assert_eq!(name_unit("offset"), None, "`offset` must not match `set`");
        assert_eq!(name_unit("deadline"), None);
        assert_eq!(name_unit("words"), None);
    }

    #[test]
    fn s1_flags_literal_seed_and_accepts_derived() {
        let found = scan(&[(
            "crates/core/src/fixture.rs",
            "pub fn bad() -> SimRng { SimRng::new(0x1234) }\n\
             pub fn good(seed: u64) -> SimRng {\n\
             SimRng::new(SimRng::derive_seed_chain(seed, &[1]))\n\
             }\n\
             pub fn pass_through(cell_seed: u64) -> SimRng { SimRng::new(cell_seed) }\n",
        )]);
        let s1: Vec<&Finding> = found.iter().filter(|f| f.rule == "S1").collect();
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1[0].line, 1);
        assert!(s1[0].message.contains("non-derived"));
    }

    #[test]
    fn s1_taint_is_branch_sensitive() {
        // `s` is rebound to a literal on ONE branch: the must-join at the
        // merge point kills the taint, so the construction is flagged.
        let found = scan(&[(
            "crates/core/src/fixture.rs",
            "pub fn f(seed: u64, flip: bool) -> SimRng {\n\
             let mut s = SimRng::derive_seed(seed, 1, 2);\n\
             if flip { s = 99; }\n\
             SimRng::new(s)\n\
             }\n",
        )]);
        let s1: Vec<&Finding> = found.iter().filter(|f| f.rule == "S1").collect();
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1[0].line, 4);

        // Rebinding to another derived value on that branch keeps it clean.
        let clean = scan(&[(
            "crates/core/src/fixture.rs",
            "pub fn f(seed: u64, flip: bool) -> SimRng {\n\
             let mut s = SimRng::derive_seed(seed, 1, 2);\n\
             if flip { s = SimRng::derive_seed(seed, 3, 4); }\n\
             SimRng::new(s)\n\
             }\n",
        )]);
        assert!(rules_of(&clean).iter().all(|r| *r != "S1"), "{clean:?}");
    }

    #[test]
    fn s1_flags_rng_reuse_after_parallel_capture() {
        let found = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn f(seed: u64, cells: &[u64]) -> u64 {\n\
             let mut rng = SimRng::new(seed);\n\
             let out = sweep(cells, |c| c + rng.next_u64());\n\
             rng.next_u64() + out[0]\n\
             }\n",
        )]);
        let s1: Vec<&Finding> = found.iter().filter(|f| f.rule == "S1").collect();
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1[0].line, 4);
        assert!(s1[0].message.contains("after a parallel region"));

        // Forking a throwaway stream for the region keeps the parent usable.
        let clean = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn f(seed: u64, cells: &[u64]) -> u64 {\n\
             let mut rng = SimRng::new(seed);\n\
             let mut worker = rng.fork();\n\
             let out = sweep(cells, |c| c + worker.next_u64());\n\
             rng.next_u64() + out[0]\n\
             }\n",
        )]);
        assert!(rules_of(&clean).iter().all(|r| *r != "S1"), "{clean:?}");
    }

    #[test]
    fn s1_flags_salt_collisions_across_files() {
        let found = scan(&[
            (
                "crates/core/src/a.rs",
                "pub fn a(seed: u64) -> u64 { SimRng::derive_seed_chain(seed, &[3, 0x10 + 1]) }\n",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn b(seed: u64) -> u64 { SimRng::derive_seed_chain(seed, &[3, 17]) }\n",
            ),
            (
                "crates/core/src/c.rs",
                "pub fn c(seed: u64) -> u64 { SimRng::derive_seed_chain(seed, &[3, 18]) }\n",
            ),
        ]);
        let s1: Vec<&Finding> = found.iter().filter(|f| f.rule == "S1").collect();
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1[0].path, "crates/core/src/b.rs");
        assert!(s1[0].message.contains("crates/core/src/a.rs:1"), "{s1:?}");
    }

    #[test]
    fn s1_salt_collision_resolves_stable_id_and_skips_dynamic_salts() {
        // Identical stable_id salts collide; a runtime-variable salt makes
        // the site unresolvable and exempt rather than a false positive.
        let found = scan(&[(
            "crates/core/src/fixture.rs",
            "pub fn f(seed: u64, i: u64) -> (u64, u64, u64) {\n\
             let a = SimRng::derive_seed_chain(seed, &[stable_id(\"woc\")]);\n\
             let b = SimRng::derive_seed_chain(seed, &[stable_id(\"woc\")]);\n\
             let c = SimRng::derive_seed_chain(seed, &[i]);\n\
             (a, b, c)\n\
             }\n",
        )]);
        let s1: Vec<&Finding> = found.iter().filter(|f| f.rule == "S1").collect();
        assert_eq!(s1.len(), 1, "{s1:?}");
        assert_eq!(s1[0].line, 3);
        assert!(s1[0].message.contains("stable_id(\"woc\")"));
    }

    #[test]
    fn l2_flags_double_acquire_and_lock_order_cycles() {
        let double = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn f(tasks: &Mutex<u64>) -> u64 {\n\
             let a = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             let b = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             *a + *b\n\
             }\n",
        )]);
        let l2: Vec<&Finding> = double.iter().filter(|f| f.rule == "L2").collect();
        assert!(
            l2.iter()
                .any(|f| f.line == 3 && f.message.contains("acquired again")),
            "{l2:?}"
        );

        let cycle = scan(&[(
            "crates/experiments/src/fixture.rs",
            "pub fn ab(tasks: &Mutex<u64>, slots: &Mutex<u64>) -> u64 {\n\
             let a = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             let b = slots.lock().unwrap_or_else(|e| e.into_inner());\n\
             *a + *b\n\
             }\n\
             pub fn ba(tasks: &Mutex<u64>, slots: &Mutex<u64>) -> u64 {\n\
             let b = slots.lock().unwrap_or_else(|e| e.into_inner());\n\
             let a = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             *a + *b\n\
             }\n",
        )]);
        let l2: Vec<&Finding> = cycle.iter().filter(|f| f.rule == "L2").collect();
        assert!(
            l2.iter().any(|f| f.message.contains("lock-order cycle")),
            "{l2:?}"
        );
    }

    #[test]
    fn l2_flags_panic_capable_call_under_lock_but_not_after_drop() {
        let found = scan(&[(
            "crates/experiments/src/fixture.rs",
            "fn helper(v: Option<u8>) -> u8 { v.unwrap() }\n\
             pub fn f(tasks: &Mutex<u64>, v: Option<u8>) -> u8 {\n\
             let g = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             helper(v)\n\
             }\n",
        )]);
        let l2: Vec<&Finding> = found.iter().filter(|f| f.rule == "L2").collect();
        assert!(
            l2.iter()
                .any(|f| f.line == 4 && f.message.contains("can panic while lock `tasks`")),
            "{l2:?}"
        );

        let clean = scan(&[(
            "crates/experiments/src/fixture.rs",
            "fn helper(v: Option<u8>) -> u8 { v.unwrap() }\n\
             pub fn f(tasks: &Mutex<u64>, v: Option<u8>) -> u8 {\n\
             let g = tasks.lock().unwrap_or_else(|e| e.into_inner());\n\
             drop(g);\n\
             helper(v)\n\
             }\n",
        )]);
        assert!(rules_of(&clean).iter().all(|r| *r != "L2"), "{clean:?}");
    }

    #[test]
    fn l2_temporary_guard_releases_at_statement_end() {
        // No named guard: the temporary drops at the `;`, so the later
        // panic-capable call runs lock-free.
        let found = scan(&[(
            "crates/experiments/src/fixture.rs",
            "fn helper(v: Option<u8>) -> u8 { v.unwrap() }\n\
             pub fn f(tasks: &Mutex<u64>, v: Option<u8>) -> u8 {\n\
             *tasks.lock().unwrap_or_else(|e| e.into_inner()) = 7;\n\
             helper(v)\n\
             }\n",
        )]);
        assert!(rules_of(&found).iter().all(|r| *r != "L2"), "{found:?}");
    }

    #[test]
    fn o1_flags_counter_ops_and_respects_waivers() {
        let found = scan(&[(
            "crates/cache/src/fixture.rs",
            "pub struct FixStats { pub hits: u64, pub label: String }\n\
             pub fn f(s: &mut FixStats, n: u64) -> u64 {\n\
             s.hits += n;\n\
             // ldis: allow(O1, \"bounded by the access budget\")\n\
             s.hits += 1;\n\
             s.hits + 3\n\
             }\n",
        )]);
        let o1: Vec<&Finding> = found.iter().filter(|f| f.rule == "O1").collect();
        assert_eq!(o1.len(), 2, "{o1:?}");
        assert_eq!((o1[0].line, o1[1].line), (3, 6));
        assert!(o1[0].message.contains("`+=` on stats counter `hits`"));

        // Saturating bumps and non-counter fields stay silent.
        let clean = scan(&[(
            "crates/cache/src/fixture.rs",
            "pub struct FixStats { pub hits: u64 }\n\
             pub fn f(s: &mut FixStats, widths: &[u64]) -> u64 {\n\
             s.hits.bump();\n\
             s.hits.saturating_add(widths[0])\n\
             }\n",
        )]);
        assert!(rules_of(&clean).iter().all(|r| *r != "O1"), "{clean:?}");
    }

    #[test]
    fn o1_flags_line_geometry_shift_math() {
        let found = scan(&[(
            "crates/mem/src/fixture.rs",
            "impl LineGeometry {\n\
             pub fn base(&self, line_addr: u64) -> u64 { line_addr << self.line_shift }\n\
             }\n",
        )]);
        let o1: Vec<&Finding> = found.iter().filter(|f| f.rule == "O1").collect();
        assert_eq!(o1.len(), 1, "{o1:?}");
        assert!(o1[0].message.contains("LineGeometry"));
    }
}
