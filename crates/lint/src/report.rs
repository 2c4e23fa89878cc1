//! Findings and their renderings: rustc-style text, JSON, SARIF and
//! GitHub workflow annotations.

use std::fmt::Write as _;

/// One diagnostic produced by a rule. Every finding fails the run.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (`C1`, `U1`, `D3`, `W1`, `S1`, `L2`, `O1`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, for the caret display.
    pub snippet: String,
}

/// Sorts findings into diagnostic order: path, line, column, rule.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Renders one finding in rustc style.
pub fn render(f: &Finding) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "error[{}]: {}", f.rule, f.message);
    let _ = writeln!(s, "  --> {}:{}:{}", f.path, f.line, f.col);
    let gutter = format!("{}", f.line).len().max(3);
    let _ = writeln!(s, "{:gutter$} |", "");
    let _ = writeln!(s, "{:>gutter$} | {}", f.line, f.snippet.trim_end());
    // The snippet is printed as-is, so the caret column is the finding
    // column as long as the line has no tabs; fall back gracefully.
    let caret_pad = f
        .snippet
        .chars()
        .take(f.col.saturating_sub(1) as usize)
        .map(|c| if c == '\t' { '\t' } else { ' ' })
        .collect::<String>();
    let _ = writeln!(s, "{:gutter$} | {caret_pad}^", "");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
        json_escape(f.rule),
        json_escape(&f.path),
        f.line,
        f.col,
        json_escape(&f.message),
    )
}

/// Renders the findings as a machine-readable JSON document for CI
/// consumers and external tooling: `{"errors": [finding, ...]}`.
pub fn render_json(findings: &[Finding]) -> String {
    let list = findings
        .iter()
        .map(finding_json)
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"errors\":[{list}]}}\n")
}

/// Renders the findings as a SARIF 2.1.0 log, the interchange format
/// GitHub code scanning ingests. One run, one result per finding, with
/// the full rule registry listed once under the driver — every rule with
/// its one-line description, not just the rules that fired, so a clean
/// run still documents what was checked.
pub fn render_sarif(findings: &[Finding]) -> String {
    let rule_objs = crate::rules::Rule::ALL
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                json_escape(r.id()),
                json_escape(r.describe())
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let results = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
                json_escape(f.rule),
                json_escape(&f.message),
                json_escape(&f.path),
                f.line,
                f.col,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"ldis-lint\",\"rules\":[{rule_objs}]}}}},\
         \"results\":[{results}]}}]}}\n"
    )
}

/// Renders one finding as a GitHub Actions workflow command, so CI runs
/// surface findings as inline annotations on the PR diff.
pub fn render_annotation(f: &Finding) -> String {
    // Workflow commands need %, CR and LF escaped in the message body.
    let msg = f
        .message
        .replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A");
    format!(
        "::error file={},line={},col={},title=ldis-lint {}::{msg}\n",
        f.path, f.line, f.col, f.rule
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            col: 1,
            message: format!("{rule} fired"),
            snippet: "x".into(),
        }
    }

    #[test]
    fn sort_orders_by_location_then_rule() {
        let mut found = vec![
            finding("U1", "b.rs", 1),
            finding("O1", "a.rs", 9),
            finding("C1", "a.rs", 2),
        ];
        sort(&mut found);
        let order: Vec<_> = found.iter().map(|f| (f.path.as_str(), f.line)).collect();
        assert_eq!(order, [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
    }

    #[test]
    fn render_is_rustc_shaped() {
        let text = render(&finding("U1", "crates/mem/src/rng.rs", 7));
        assert!(text.starts_with("error[U1]: U1 fired"));
        assert!(text.contains("--> crates/mem/src/rng.rs:7:1"));
        assert!(text.contains("^"));
    }

    #[test]
    fn json_output_is_machine_readable() {
        let text = render_json(&[finding("S1", "a \"b\".rs", 1), finding("L2", "c.rs", 2)]);
        assert!(text.starts_with("{\"errors\":[{\"rule\":\"S1\""));
        assert!(text.contains("\"path\":\"a \\\"b\\\".rs\""));
        assert!(text.contains("{\"rule\":\"L2\""));
        assert_eq!(render_json(&[]), "{\"errors\":[]}\n");
    }

    #[test]
    fn sarif_output_lists_rules_once_and_locates_results() {
        let text = render_sarif(&[
            finding("S1", "crates/core/src/a.rs", 9),
            finding("S1", "crates/core/src/b.rs", 2),
        ]);
        assert!(text.contains("\"version\":\"2.1.0\""));
        assert!(text.contains("\"name\":\"ldis-lint\""));
        // The driver lists the whole registry with descriptions, each
        // rule exactly once — including rules the run has no finding for.
        for rule in crate::rules::Rule::ALL {
            assert_eq!(
                text.matches(&format!("{{\"id\":\"{}\"", rule.id())).count(),
                1,
                "{} missing from driver rules",
                rule.id()
            );
        }
        assert!(text.contains("\"shortDescription\""));
        assert!(text.contains(
            "\"artifactLocation\":{\"uri\":\"crates/core/src/a.rs\"},\
             \"region\":{\"startLine\":9,\"startColumn\":1}"
        ));
        assert_eq!(text.matches("\"level\":\"error\"").count(), 2);
    }

    #[test]
    fn annotations_escape_workflow_commands() {
        let mut f = finding("L2", "a.rs", 3);
        f.message = "path: x -> y\n50% of calls".into();
        let text = render_annotation(&f);
        assert_eq!(
            text,
            "::error file=a.rs,line=3,col=1,title=ldis-lint L2::path: x -> y%0A50%25 of calls\n"
        );
    }
}
