//! Token lexer: cond-lint's only front end.
//!
//! Every file is lexed once; [`strip_test_code`] then removes its test
//! code, and the same tokens feed the token rules (`crate::scan_tokens`)
//! and the parser. Literals are tokens, so no rule can fire inside one,
//! and the registry pass still sees their values.
//!
//! Correctness notes the fixture corpus pins down:
//! * `//` inside a string literal (URLs!) is **not** a comment start —
//!   plain, raw (`r"…"`, `r#"…"#`), and byte (`b"…"`, `br"…"`) strings
//!   are consumed as single tokens, as are char/byte-char literals.
//! * Lifetimes (`'a`) are distinguished from char literals (`'a'`).
//! * `// lint: …` comments are captured as [`Annotation`]s instead of
//!   being discarded; every other comment (line, doc, nested block) is
//!   skipped.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (including `self`, `fn`, `impl`, …).
    Ident(String),
    /// Lifetime or loop label (without the leading `'`).
    Lifetime(String),
    /// Integer literal value (suffix and `_` separators stripped).
    /// Floats and integers too large for `u64` lex as [`Tok::Num`].
    Int(u64),
    /// Numeric literal whose exact value the passes do not need.
    Num,
    /// String literal (plain/byte: escapes cooked; raw: body verbatim).
    Str(String),
    /// Char or byte-char literal.
    Char,
    /// Single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A captured `// lint: …` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// 1-based source line the comment appears on.
    pub line: u32,
    /// The text after `lint:`, trimmed.
    pub text: String,
}

/// Lexes `src` into tokens and captured lint annotations.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Annotation>) {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        tokens: Vec::new(),
        annotations: Vec::new(),
    }
    .run()
}

/// Removes a lexed file's test code: every item, field, statement or arm
/// gated by `#[cfg(test)]` or `#[cfg(all(test, …))]` (with the attributes
/// around it), and the annotations above or inside it, so none attaches
/// to the next item. `cfg(not(test))` code is production code and stays.
pub fn strip_test_code(
    (tokens, annotations): (Vec<Token>, Vec<Annotation>),
) -> (Vec<Token>, Vec<Annotation>) {
    let mut kept: Vec<Token> = Vec::with_capacity(tokens.len());
    // Line spans `(after, through]` whose annotations go with removed code.
    let mut dropped: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut attrs_end = i;
        let mut gated = false;
        while punct_at(&tokens, attrs_end, '#') && punct_at(&tokens, attrs_end + 1, '[') {
            let close = (matching(&tokens, attrs_end + 1) + 1).min(tokens.len());
            gated |= is_test_cfg(&tokens[attrs_end..close]);
            attrs_end = close;
        }
        if gated {
            let end = item_end(&tokens, attrs_end);
            let after = kept.last().map_or(0, |t| t.line);
            dropped.push((after, tokens[end - 1].line));
            i = end;
        } else {
            let next = attrs_end.max(i + 1);
            kept.extend_from_slice(&tokens[i..next]);
            i = next;
        }
    }
    let annotations = annotations
        .into_iter()
        .filter(|a| !dropped.iter().any(|&(after, through)| a.line > after && a.line <= through))
        .collect();
    (kept, annotations)
}

fn punct_at(t: &[Token], k: usize, c: char) -> bool {
    matches!(t.get(k), Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

/// Index of the delimiter closing the `(`, `[` or `{` at `open` (only
/// that kind is counted), or `t.len()` when it is never closed.
pub(crate) fn matching(t: &[Token], open: usize) -> usize {
    let (o, c) = match t.get(open).map(|t| &t.tok) {
        Some(Tok::Punct('(')) => ('(', ')'),
        Some(Tok::Punct('[')) => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    for (k, tok) in t.iter().enumerate().skip(open) {
        if tok.tok == Tok::Punct(o) {
            depth += 1;
        } else if tok.tok == Tok::Punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    t.len()
}

/// Whether the attribute `#[…]` is `cfg(test)`, or a `cfg(all(…))` with
/// `test` as a direct operand (`not(test)` and `any(test, …)` are not).
fn is_test_cfg(attr: &[Token]) -> bool {
    let ident = |k: usize| match attr.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s.as_str(),
        _ => "",
    };
    if ident(2) != "cfg" {
        return false;
    }
    let test_depth = if ident(4) == "all" { 2 } else { 1 };
    let mut depth = 0;
    attr[3..].iter().any(|t| {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Ident(s) => return s == "test" && depth == test_depth,
            _ => {}
        }
        false
    })
}

/// End (exclusive) of the item, field, statement or arm starting at
/// `start`: its depth-0 `;` or `,` (a `,` inside generics does not count),
/// the `}` closing its body, or — for the last field of a list — just
/// before the list's closing delimiter. A `}` followed by `else`, `.`, `?`
/// or `=` continues the expression (`let x = if … { } else { };`).
fn item_end(t: &[Token], start: usize) -> usize {
    let (mut depth, mut angle) = (0usize, 0usize);
    for k in start..t.len() {
        match t[k].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') if depth == 0 => return k,
            Tok::Punct(c @ (')' | ']' | '}')) => {
                depth -= 1;
                if depth > 0 || c != '}' {
                    continue;
                }
                match t.get(k + 1).map(|n| &n.tok) {
                    Some(Tok::Punct(';' | ',')) => return k + 2,
                    Some(Tok::Punct('.' | '?' | '=')) => {}
                    Some(Tok::Ident(s)) if s == "else" => {}
                    _ => return k + 1,
                }
            }
            Tok::Punct(';') if depth == 0 => return k + 1,
            Tok::Punct(',') if depth == 0 && angle == 0 => return k + 1,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !(punct_at(t, k - 1, '-') || punct_at(t, k - 1, '=')) => {
                angle = angle.saturating_sub(1);
            }
            _ => {}
        }
    }
    t.len()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    tokens: Vec<Token>,
    annotations: Vec<Annotation>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied();
        if let Some(c) = c {
            if c == '\n' {
                self.line += 1;
            }
            self.i += 1;
        }
        c
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.tokens.push(Token { tok, line });
    }

    fn run(mut self) -> (Vec<Token>, Vec<Annotation>) {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.bump();
                let s = self.plain_string();
                self.push(Tok::Str(s), line);
            } else if c == '\'' {
                self.char_or_lifetime(line);
            } else if c.is_ascii_digit() {
                self.number(line);
            } else if c.is_alphanumeric() || c == '_' {
                self.ident_or_prefixed_literal(line);
            } else {
                self.bump();
                self.push(Tok::Punct(c), line);
            }
        }
        (self.tokens, self.annotations)
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // `// lint: …` (any number of slashes tolerated, doc comments too).
        let body = text.trim_start_matches('/').trim_start();
        if let Some(rest) = body.strip_prefix("lint:") {
            self.annotations.push(Annotation {
                line,
                text: rest.trim().to_owned(),
            });
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a plain/byte string body after the opening quote,
    /// returning the cooked value (simple escapes resolved, unknown
    /// escapes kept verbatim without the backslash).
    fn plain_string(&mut self) -> String {
        let mut value = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => match self.bump() {
                    Some('n') => value.push('\n'),
                    Some('t') => value.push('\t'),
                    Some('r') => value.push('\r'),
                    Some('0') => value.push('\0'),
                    Some(other) => value.push(other), // \\ \" \' and the rest
                    None => break,
                },
                other => value.push(other),
            }
        }
        value
    }

    /// Consumes a raw string body after `r#*"`, returning it verbatim.
    fn raw_string(&mut self, hashes: usize) -> String {
        let mut value = String::new();
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut k = 0;
                while k < hashes && self.peek(k) == Some('#') {
                    k += 1;
                }
                if k == hashes {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            value.push(c);
        }
        value
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a'` / `'\n'` / `'\u{…}'` are chars; `'a` / `'static` are
        // lifetimes or labels.
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        self.bump(); // the quote
        if is_char {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(Tok::Char, line);
        } else {
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(Tok::Lifetime(name), line);
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('X')) {
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            let digits: String = text.chars().filter(|c| *c != '_').collect();
            match u64::from_str_radix(&digits, 16) {
                Ok(v) => self.push(Tok::Int(v), line),
                Err(_) => self.push(Tok::Num, line),
            }
            self.eat_numeric_suffix();
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // A fractional part or exponent makes it a float (but `1..n` is a
        // range, not a float).
        let mut is_float = false;
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if matches!(self.peek(0), Some('e') | Some('E'))
            && self
                .peek(1)
                .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-')
        {
            is_float = true;
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if is_float {
            self.push(Tok::Num, line);
        } else {
            let digits: String = text.chars().filter(|c| *c != '_').collect();
            match digits.parse::<u64>() {
                Ok(v) => self.push(Tok::Int(v), line),
                Err(_) => self.push(Tok::Num, line),
            }
        }
        self.eat_numeric_suffix();
    }

    fn eat_numeric_suffix(&mut self) {
        // `64u64`, `1.5f32` — the suffix is part of the literal, not an
        // identifier token.
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // String-literal prefixes: r"…" / r#"…"# / b"…" / br#"…"# — but
        // only when the ident is exactly the prefix (so `for`, `br0ken`
        // and raw identifiers like `r#type` stay identifiers).
        let is_raw = name == "r" || name == "br";
        let is_byte = name == "b" || name == "br";
        if is_raw || is_byte {
            let mut hashes = 0usize;
            while self.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(hashes) == Some('"') {
                if is_raw || hashes > 0 {
                    for _ in 0..=hashes {
                        self.bump(); // hashes + opening quote
                    }
                    let s = self.raw_string(hashes);
                    self.push(Tok::Str(s), line);
                } else {
                    self.bump(); // opening quote of b"…"
                    let s = self.plain_string();
                    self.push(Tok::Str(s), line);
                }
                return;
            }
            if name == "b" && self.peek(0) == Some('\'') {
                // Byte-char literal b'x'.
                self.bump();
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(Tok::Char, line);
                return;
            }
        }
        self.push(Tok::Ident(name), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).0.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn url_in_string_is_not_a_comment() {
        // The satellite regression: `//` inside a string literal must not
        // start a comment and swallow the rest of the line.
        let t = toks(r#"let u = "https://example.com"; x.unwrap();"#);
        assert!(t.contains(&Tok::Str("https://example.com".into())));
        assert!(t.contains(&Tok::Ident("unwrap".into())), "{t:?}");
    }

    #[test]
    fn raw_and_byte_strings_keep_slashes_inside() {
        let t = toks(r##"let a = r#"//raw"#; let b = b"//bytes"; tail();"##);
        assert!(t.contains(&Tok::Str("//raw".into())));
        assert!(t.contains(&Tok::Str("//bytes".into())));
        assert!(t.contains(&Tok::Ident("tail".into())));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let t = toks("let c: &'static str = f('/', '\\n', 'x');");
        assert_eq!(t.iter().filter(|t| **t == Tok::Char).count(), 3);
        assert!(t.contains(&Tok::Lifetime("static".into())));
    }

    #[test]
    fn escaped_quotes_and_backslashes() {
        let t = toks(r#"let p = "dir\\"; let q = "say \"hi\""; done();"#);
        assert!(t.contains(&Tok::Str("dir\\".into())));
        assert!(t.contains(&Tok::Str("say \"hi\"".into())));
        assert!(t.contains(&Tok::Ident("done".into())));
    }

    #[test]
    fn lint_annotations_are_captured() {
        let (_, anns) = lex("// lint: custody(msg)\nfn f() {}\n// not lint\n");
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].line, 1);
        assert_eq!(anns[0].text, "custody(msg)");
    }

    #[test]
    fn ints_parse_and_floats_do_not_break_ranges() {
        let t = toks("put_u8(6); cap(0x10); for i in 0..16 {} let f = 1.5;");
        assert!(t.contains(&Tok::Int(6)));
        assert!(t.contains(&Tok::Int(16)));
        assert!(t.contains(&Tok::Int(0)));
        assert!(t.contains(&Tok::Num));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let t = toks("let r = r#type; br0ken();");
        assert!(t.contains(&Tok::Ident("r".into())));
        assert!(t.contains(&Tok::Ident("br0ken".into())));
    }

    fn production(src: &str) -> (Vec<String>, Vec<String>) {
        let (tokens, anns) = strip_test_code(lex(src));
        let idents = tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        (idents, anns.into_iter().map(|a| a.text).collect())
    }

    #[test]
    fn test_code_ends_at_its_own_closing_delimiter() {
        let src = "struct S {\n    a: u8,\n    #[cfg(test)]\n    hook: Map<K, V>,\n    b: u8,\n    #[cfg(test)]\n    last: u8\n}\n\
                   impl S { fn keep() { #[cfg(test)] let h = if x { 1 } else { 2 }; tail(); } }\n\
                   #[cfg(all(test, unix))] mod gone { fn g() {} }";
        let (idents, _) = production(src);
        for gone in ["hook", "Map", "last", "h", "gone", "g"] {
            assert!(!idents.iter().any(|i| i == gone), "{gone} in {idents:?}");
        }
        for kept in ["a", "b", "impl", "keep", "tail"] {
            assert!(idents.iter().any(|i| i == kept), "{kept} missing from {idents:?}");
        }
    }

    #[test]
    fn not_test_and_any_test_are_production() {
        let src = "#[cfg(not(test))] fn a() {}\n#[cfg(any(test, unix))] fn b() {}\n#[cfg(test)] pub fn c() {}";
        let (idents, _) = production(src);
        assert!(idents.contains(&"a".into()) && idents.contains(&"b".into()));
        assert!(!idents.contains(&"c".into()), "{idents:?}");
    }

    #[test]
    fn annotations_above_and_inside_test_code_go_with_it() {
        let src = "fn a() {} // lint: custody-ok\n// lint: custody(msg)\n#[cfg(test)]\nfn t(msg: M) {\n    // lint: inner\n}\n// lint: kept\nfn b() {}";
        let (_, anns) = production(src);
        assert_eq!(anns, ["custody-ok", "kept"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let (tokens, _) = lex("a\n\"two\nlines\"\nb");
        let b = tokens.iter().find(|t| t.tok == Tok::Ident("b".into())).map(|t| t.line);
        assert_eq!(b, Some(4));
    }
}
