//! Plain-text table rendering for experiment reports, plus the canonical
//! JSON value used by the golden-snapshot harness (`crate::golden`).

use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};

/// Writes `text` and a newline to stdout, for the command-line tools. A
/// reader that closed the pipe has all it wants, so a broken pipe ends the
/// process with exit code 0 and no message; any other write error ends it
/// with a message and exit code 1.
pub fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write the report: {e}");
        std::process::exit(1);
    }
}

/// A simple aligned text table: title, header row, data rows.
///
/// # Example
///
/// ```
/// use ldis_experiments::report::Table;
///
/// let mut t = Table::new("Demo", &["bench", "mpki"]);
/// t.row(vec!["art".into(), "38.3".into()]);
/// let s = t.render();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("art"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Appends a free-form note printed below the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table with aligned columns (first column
    /// left-justified, the rest right-justified).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            // Cells beyond the header count render unaligned rather than
            // growing a phantom column.
            for (i, cell) in row.iter().enumerate() {
                if let Some(w) = widths.get_mut(i) {
                    *w = (*w).max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.len().max(total.min(100))));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let width = widths.get(i).copied().unwrap_or(0);
                if i == 0 {
                    let _ = write!(line, "{cell:<width$}");
                } else {
                    let _ = write!(line, "{cell:>width$}");
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

/// A canonical JSON value for golden snapshots.
///
/// The workspace is dependency-free, so this is a small hand-rolled
/// serializer with one hard requirement: **byte-stable rendering**.
/// Object keys keep insertion order, floats render with Rust's
/// shortest-roundtrip formatting (bit-identical for bit-identical values),
/// and non-finite floats canonicalize to `null`. Two snapshots render to
/// the same bytes if and only if their values are identical, which is what
/// lets `tests/golden/` diffs gate regressions.
///
/// # Example
///
/// ```
/// use ldis_experiments::report::Json;
///
/// let j = Json::obj([("bench", Json::str("art")), ("mpki", Json::num(38.25))]);
/// assert_eq!(j.render(), "{\"bench\": \"art\", \"mpki\": 38.25}");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also the canonical form of NaN/infinite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer counter (u64 counters never lose precision).
    Uint(u64),
    /// A finite float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float value; NaN and infinities canonicalize to `Null`.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// An unsigned integer value.
    pub fn uint(x: u64) -> Json {
        Json::Uint(x)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array value.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object value with insertion-ordered keys.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value compactly (objects and arrays on one line with a
    /// space after `:` and `,`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Renders the value with each top- and second-level entry on its own
    /// line — the golden-snapshot format, tuned so `git diff` pinpoints
    /// the exact experiment row that moved.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        // Pretty mode expands the two outer levels; deeper rows stay
        // compact one-liners so a snapshot diff is one line per row.
        let expand = pretty && depth < 2;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let s = format!("{x}");
                out.push_str(&s);
                // "1" would read back as an integer; keep the float type
                // visible so snapshots distinguish counters from metrics.
                if !s.contains('.') && !s.contains('e') {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if !expand {
                            out.push(' ');
                        }
                    }
                    if expand {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    item.write(out, depth + 1, pretty);
                }
                if expand && !items.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if !expand {
                            out.push(' ');
                        }
                    }
                    if expand {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    Json::Str(k.clone()).write(out, depth + 1, false);
                    out.push_str(": ");
                    v.write(out, depth + 1, pretty);
                }
                if expand && !fields.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON text produced by [`Json::render`] /
    /// [`Json::render_pretty`] back into a value. The reader accepts any
    /// standard JSON (whitespace-insensitive, full string escapes), keeps
    /// object keys in document order, and reads non-negative integers
    /// without a fraction or exponent as [`Json::Uint`] — so a canonical
    /// rendering round-trips to an identical value:
    /// `Json::parse(&j.render()) == Ok(j)`.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input, including
    /// trailing garbage after the value — which is how the checkpoint
    /// journal detects truncated records.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {}", *pos)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(word.as_bytes()))
    {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string at byte {}", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // The canonical renderer only emits \u for control
                        // characters; reject surrogates rather than pair them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("invalid \\u code point at byte {}", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so the
                // boundary math is always valid).
                let rest = bytes.get(*pos..).unwrap_or(&[]);
                let s = std::str::from_utf8(rest)
                    .map_err(|_| format!("invalid utf-8 at byte {}", *pos))?;
                let Some(c) = s.chars().next() else {
                    return Err(format!("unterminated string at byte {}", *pos));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let digits = bytes.get(start..*pos).unwrap_or(&[]);
    let text =
        std::str::from_utf8(digits).map_err(|_| format!("invalid number at byte {start}"))?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::Uint(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

/// Formats a float with `prec` decimals.
pub fn fmt_f(x: f64, prec: usize) -> String {
    if x.is_nan() {
        "-".to_owned()
    } else {
        format!("{x:.prec$}")
    }
}

/// Formats a percentage with one decimal and sign.
pub fn fmt_pct(x: f64) -> String {
    if x.is_nan() {
        "-".to_owned()
    } else {
        format!("{x:+.1}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "value"]);
        t.row(vec!["longname".into(), "1.0".into()]);
        t.row(vec!["x".into(), "123.4".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("longname"));
        assert!(s.contains("note: hello"));
        // Right-aligned numeric column: "  1.0" padded to width 5.
        assert!(s.contains("  1.0"), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_renders_canonically() {
        let j = Json::obj([
            ("name", Json::str("quick")),
            ("count", Json::uint(42)),
            ("mpki", Json::num(1.5)),
            ("whole", Json::num(2.0)),
            ("bad", Json::num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("rows", Json::arr([Json::uint(1), Json::uint(2)])),
        ]);
        assert_eq!(
            j.render(),
            "{\"name\": \"quick\", \"count\": 42, \"mpki\": 1.5, \"whole\": 2.0, \
             \"bad\": null, \"flag\": true, \"rows\": [1, 2]}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_pretty_is_one_line_per_row_and_stable() {
        let row = |n: u64| Json::obj([("id", Json::uint(n))]);
        let j = Json::obj([("rows", Json::arr([row(1), row(2)]))]);
        let p = j.render_pretty();
        assert_eq!(
            p,
            "{\n  \"rows\": [\n    {\"id\": 1},\n    {\"id\": 2}\n  ]\n}\n"
        );
        assert_eq!(p, j.render_pretty(), "rendering must be byte-stable");
        assert_eq!(Json::obj::<String>([]).render_pretty(), "{}\n");
    }

    #[test]
    fn json_shortest_roundtrip_floats_are_exact() {
        // The renderer must not round: distinct bit patterns give
        // distinct text, so any numeric drift shows up in a golden diff.
        let a = 0.1f64;
        let b = 0.1f64 + f64::EPSILON;
        assert_ne!(Json::num(a).render(), Json::num(b).render());
    }

    #[test]
    fn json_parse_round_trips_canonical_renderings() {
        let j = Json::obj([
            ("name", Json::str("quick \"q\" \\ line\nend\u{1}")),
            ("count", Json::uint(u64::MAX)),
            ("mpki", Json::num(38.25)),
            ("tiny", Json::num(5e-324)),
            ("neg", Json::num(-5.0)),
            ("whole", Json::num(2.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::arr([Json::uint(1), Json::obj([("k", Json::str("v"))])]),
            ),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        assert_eq!(Json::parse(&j.render()), Ok(j.clone()));
        assert_eq!(Json::parse(&j.render_pretty()), Ok(j));
    }

    #[test]
    fn json_parse_preserves_float_bits_and_uint_type() {
        let x = 0.1f64 + f64::EPSILON;
        match Json::parse(&Json::num(x).render()) {
            Ok(Json::Num(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(Json::parse("42"), Ok(Json::Uint(42)));
        assert_eq!(Json::parse("42.0"), Ok(Json::Num(42.0)));
    }

    #[test]
    fn json_parse_rejects_malformed_and_truncated_input() {
        for bad in [
            "",
            "{",
            "{\"a\": 1",
            "{\"a\" 1}",
            "[1, 2",
            "\"unterminated",
            "nul",
            "{\"a\": 1} trailing",
            "1e",
            "{\"a\": \"b\\u12\"}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        // A record cut mid-way by a crash is malformed, not silently empty.
        let full = Json::obj([("cell", Json::uint(9)), ("seed", Json::uint(7))]).render();
        for cut in 1..full.len() {
            assert!(
                Json::parse(full.get(..cut).unwrap_or("")).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(f64::NAN, 2), "-");
        assert_eq!(fmt_pct(12.34), "+12.3%");
        assert_eq!(fmt_pct(-3.0), "-3.0%");
        assert_eq!(fmt_pct(f64::NAN), "-");
    }
}
