//! A small Rust lexer for the source-level tests: identifiers,
//! punctuation and literals with 1-based line/column spans, comments
//! collected apart from the tokens, and the line ranges of
//! `#[cfg(test)]` items, so a check over the token stream sees neither
//! comment text nor string contents and can exempt test code.

/// The coarse classification of a token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// An identifier or keyword (`foo`, `let`, `r#match`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// An integer literal (`42`, `0x1f`, `1_000u64`).
    Int,
    /// A float literal (`1.0`, `2e-5`).
    Float,
    /// A string literal of any flavor (`"x"`, `r#"x"#`, `b"x"`).
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A single punctuation character (`.`, `:`, `{`, ...).
    Punct,
}

/// One lexed token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token classification.
    pub kind: TokKind,
    /// The token's text. For raw identifiers the `r#` prefix is stripped;
    /// string/char tokens keep their quotes.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Token {
    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Is this the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A comment (line or block) with the line it starts on.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// literals simply run to end of file, which is good enough for a scan.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment { line, text });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0u32;
            while let Some(ch) = cur.peek(0) {
                if ch == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push_str("/*");
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek(1) == Some('/') {
                    depth -= 1;
                    text.push_str("*/");
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            out.comments.push(Comment { line, text });
            continue;
        }
        // String-ish literals and prefixed identifiers.
        if c == 'r' || c == 'b' {
            if let Some(tok) = lex_prefixed(&mut cur, line, col) {
                out.tokens.push(tok);
                continue;
            }
        }
        if c == '"' {
            out.tokens.push(lex_quoted(&mut cur, line, col));
            continue;
        }
        if c == '\'' {
            out.tokens.push(lex_char_or_lifetime(&mut cur, line, col));
            continue;
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            out.tokens.push(lex_number(&mut cur, line, col));
            continue;
        }
        // Everything else: one punctuation character per token.
        cur.bump();
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
    }
    out
}

/// Handles `r"—"`, `r#"—"#`, `r#ident`, `b"—"`, `br#"—"#` and `b'x'`.
/// Returns `None` when the `r`/`b` is just the start of a plain identifier.
fn lex_prefixed(cur: &mut Cursor, line: u32, col: u32) -> Option<Token> {
    let c0 = cur.peek(0)?;
    // b'x' byte char.
    if c0 == 'b' && cur.peek(1) == Some('\'') {
        cur.bump(); // b
        let mut tok = lex_char_or_lifetime(cur, line, col);
        tok.text.insert(0, 'b');
        return Some(tok);
    }
    // Find where a raw marker could start: r / br.
    let after = if c0 == 'b' && cur.peek(1) == Some('r') {
        2
    } else if c0 == 'r' {
        1
    } else if c0 == 'b' && cur.peek(1) == Some('"') {
        // b"..."
        cur.bump();
        let mut tok = lex_quoted(cur, line, col);
        tok.text.insert(0, 'b');
        return Some(tok);
    } else {
        return None;
    };
    // Count hashes after the prefix.
    let mut hashes = 0usize;
    while cur.peek(after + hashes) == Some('#') {
        hashes += 1;
    }
    match cur.peek(after + hashes) {
        Some('"') => {
            // Raw string: consume prefix, hashes, then to closing `"###`.
            let mut text = String::new();
            for _ in 0..after + hashes + 1 {
                text.push(cur.bump().unwrap_or('"'));
            }
            loop {
                match cur.bump() {
                    None => break,
                    Some('"') => {
                        text.push('"');
                        let mut matched = 0usize;
                        while matched < hashes && cur.peek(0) == Some('#') {
                            text.push('#');
                            cur.bump();
                            matched += 1;
                        }
                        if matched == hashes {
                            break;
                        }
                    }
                    Some(ch) => text.push(ch),
                }
            }
            Some(Token {
                kind: TokKind::Str,
                text,
                line,
                col,
            })
        }
        Some(ch) if after == 1 && hashes == 1 && is_ident_start(ch) => {
            // Raw identifier r#foo: strip the prefix so `r#match` scans as
            // the identifier `match`.
            cur.bump();
            cur.bump();
            let mut text = String::new();
            while let Some(c2) = cur.peek(0) {
                if !is_ident_continue(c2) {
                    break;
                }
                text.push(c2);
                cur.bump();
            }
            Some(Token {
                kind: TokKind::Ident,
                text,
                line,
                col,
            })
        }
        _ => None,
    }
}

fn lex_quoted(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('"')); // opening quote
    while let Some(ch) = cur.bump() {
        text.push(ch);
        if ch == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        if ch == '"' {
            break;
        }
    }
    Token {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// After a `'`: a lifetime (`'a`, `'static`) or a char literal (`'x'`).
fn lex_char_or_lifetime(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('\'')); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Definitely a char literal with an escape.
            text.push(cur.bump().unwrap_or('\\'));
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            // Consume to the closing quote (covers \u{...}).
            while let Some(ch) = cur.bump() {
                text.push(ch);
                if ch == '\'' {
                    break;
                }
            }
            Token {
                kind: TokKind::Char,
                text,
                line,
                col,
            }
        }
        Some(ch) if is_ident_start(ch) || ch.is_ascii_digit() => {
            // Could be 'a' (char) or 'abc (lifetime): look past the run.
            let mut run = 0usize;
            while let Some(c2) = cur.peek(run) {
                if !is_ident_continue(c2) {
                    break;
                }
                run += 1;
            }
            if cur.peek(run) == Some('\'') {
                for _ in 0..=run {
                    if let Some(c2) = cur.bump() {
                        text.push(c2);
                    }
                }
                Token {
                    kind: TokKind::Char,
                    text,
                    line,
                    col,
                }
            } else {
                // Lifetime: the token text is the bare name (no quote).
                text.clear();
                for _ in 0..run {
                    if let Some(c2) = cur.bump() {
                        text.push(c2);
                    }
                }
                Token {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                }
            }
        }
        Some(other) => {
            // e.g. '(' as a char literal.
            text.push(other);
            cur.bump();
            if cur.peek(0) == Some('\'') {
                text.push('\'');
                cur.bump();
            }
            Token {
                kind: TokKind::Char,
                text,
                line,
                col,
            }
        }
        None => Token {
            kind: TokKind::Char,
            text,
            line,
            col,
        },
    }
}

fn lex_number(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut text = String::new();
    let mut kind = TokKind::Int;
    // Leading digits (any radix prefix is consumed by the alnum run).
    while let Some(ch) = cur.peek(0) {
        if is_ident_continue(ch) {
            // Exponent sign: 1e-5 / 2.5E+3.
            text.push(ch);
            cur.bump();
            if (ch == 'e' || ch == 'E')
                && !text.starts_with("0x")
                && matches!(cur.peek(0), Some('+') | Some('-'))
            {
                kind = TokKind::Float;
                text.push(cur.bump().unwrap_or('+'));
            }
        } else if ch == '.' {
            // `0..7` is two tokens; `1.5` continues the literal.
            match cur.peek(1) {
                Some(next) if next.is_ascii_digit() => {
                    kind = TokKind::Float;
                    text.push('.');
                    cur.bump();
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    Token {
        kind,
        text,
        line,
        col,
    }
}

/// Matches the `]` closing the attribute whose `[` is at `open`, and
/// reports whether the attribute is a `#[cfg(test)]`-style gate (a `cfg`
/// containing `test` not negated by `not(...)`).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut cfg_test = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, cfg_test);
            }
        } else if t.is_ident("cfg") {
            is_cfg = true;
        } else if is_cfg && t.is_ident("test") {
            // Reject `not(test)`: look back for `not (` immediately before.
            let negated = i >= 2 && tokens[i - 1].is_punct('(') && tokens[i - 2].is_ident("not");
            if !negated {
                cfg_test = true;
            }
        }
        i += 1;
    }
    (tokens.len(), cfg_test)
}

/// Line ranges (inclusive) of items gated behind `#[cfg(test)]`.
///
/// The scan is token-based: after a `#[cfg(test)]` attribute (and any
/// further attributes) the next braced block is taken as the item body.
/// An attribute followed by `;` before any `{` (e.g. `mod tests;`)
/// contributes no region.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let (mut j, cfg_test) = scan_attr(tokens, i + 1);
            if cfg_test {
                // Skip any further attributes.
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    let (next, _) = scan_attr(tokens, j + 1);
                    j = next;
                }
                // Find the item body.
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    let mut depth = 0usize;
                    let mut k = j;
                    while k < tokens.len() {
                        if tokens[k].is_punct('{') {
                            depth += 1;
                        } else if tokens[k].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    let end = tokens.get(k).map_or(u32::MAX, |t| t.line);
                    regions.push((tokens[i].line, end));
                    i = k + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// Is `line` inside any of the `regions` from [`test_regions`]?
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_positions() {
        let l = lex("let x = a.b();\nfoo");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "a", ".", "b", "(", ")", ";", "foo"]
        );
        assert_eq!(l.tokens[9].line, 2);
        assert_eq!(l.tokens[9].col, 1);
    }

    #[test]
    fn comments_are_separated() {
        let l = lex("a // trailing HashMap\n/* block\nunwrap() */ b");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b"]);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("HashMap"));
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"x("unwrap() HashMap", 'a', b"panic!")"#);
        assert!(l
            .tokens
            .iter()
            .all(|t| !t.text.contains("unwrap") || t.kind == TokKind::Str));
        let kinds: Vec<TokKind> = l.tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Str));
        assert!(kinds.contains(&TokKind::Char));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex("r#\"has \"quotes\" inside\"# r#match");
        assert_eq!(l.tokens[0].kind, TokKind::Str);
        assert!(l.tokens[1].is_ident("match"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'x'; }");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'x'"));
    }

    #[test]
    fn numbers_and_ranges() {
        let l = lex("0..7 1.5 0x1f_u32 2e-5");
        let kinds: Vec<(TokKind, &str)> =
            l.tokens.iter().map(|t| (t.kind, t.text.as_str())).collect();
        assert_eq!(kinds[0], (TokKind::Int, "0"));
        assert_eq!(kinds[1], (TokKind::Punct, "."));
        assert_eq!(kinds[2], (TokKind::Punct, "."));
        assert_eq!(kinds[3], (TokKind::Int, "7"));
        assert_eq!(kinds[4], (TokKind::Float, "1.5"));
        assert_eq!(kinds[5], (TokKind::Int, "0x1f_u32"));
        assert_eq!(kinds[6], (TokKind::Float, "2e-5"));
    }

    #[test]
    fn cfg_test_regions_cover_test_mods() {
        let src = "fn a() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn b() {}\n\
                   }\n\
                   fn c() {}\n";
        let l = lex(src);
        let regions = test_regions(&l.tokens);
        assert_eq!(regions.len(), 1);
        assert!(in_regions(&regions, 3));
        assert!(in_regions(&regions, 4));
        assert!(!in_regions(&regions, 1));
        assert!(!in_regions(&regions, 6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let l = lex("#[cfg(not(test))]\nmod prod { fn b() {} }");
        assert!(test_regions(&l.tokens).is_empty());
    }

    #[test]
    fn cfg_test_on_declaration_only_is_ignored() {
        let l = lex("#[cfg(test)]\nmod tests;\nfn c() {}");
        assert!(test_regions(&l.tokens).is_empty());
    }
}
