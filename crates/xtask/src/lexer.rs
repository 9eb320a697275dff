//! A span-accurate Rust lexer for the invariant linter.
//!
//! The container this repo builds in has no crates.io access, so `syn` is
//! not available; the lint pass instead runs over a token stream produced
//! here. The lexer understands everything that can *hide* an identifier —
//! line and nested block comments, string/raw-string/byte-string and char
//! literals, lifetimes — so the rules in [`crate::rules`] never fire on
//! text inside a literal or comment, and never miss an identifier because
//! of one. That is the property the rules actually need; full expression
//! parsing is not.
//!
//! Tokens inside `#[cfg(test)]` items (and files with a matching inner
//! attribute) are marked inactive, since test-only code is exempt from the
//! runtime invariants.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in characters) of the token's first character.
    pub col: usize,
    /// Whether the token is live runtime code: `false` inside
    /// `#[cfg(test)]` items.
    pub active: bool,
}

/// Token kinds the linter distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A lifetime such as `'env` (kept distinct from char literals).
    Lifetime(String),
    /// Any literal: string, raw string, byte string, char, or number.
    /// Plain and raw string literals carry their (unescaped) text so the
    /// schema extractor can read emitted metric/JSON names; other literal
    /// kinds carry `None`.
    Literal(Option<String>),
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The unescaped text, if this token is a plain or raw string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Literal(Some(s)) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lexes `source` into tokens in source order (comments and whitespace
/// removed), marking `#[cfg(test)]` items inactive.
pub fn lex(source: &str) -> Vec<Token> {
    let mut lx = RawLexer::new(source);
    let mut tokens = Vec::new();
    while let Some(tok) = lx.next_token() {
        tokens.push(tok);
    }
    mark_inactive(&mut tokens);
    tokens
}

struct RawLexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> RawLexer<'a> {
    fn new(source: &'a str) -> Self {
        RawLexer {
            chars: source.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn peek2(&mut self) -> Option<char> {
        let mut clone = self.chars.clone();
        clone.next();
        clone.next()
    }

    fn next_token(&mut self) -> Option<Token> {
        loop {
            let c = self.peek()?;
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek2() == Some('/') => self.line_comment(),
                '/' if self.peek2() == Some('*') => self.block_comment(),
                '"' => {
                    let text = self.string_literal();
                    return Some(self.tok(TokenKind::Literal(Some(text)), line, col));
                }
                'r' if matches!(self.peek2(), Some('"') | Some('#')) && self.is_raw_string() => {
                    let text = self.raw_string_literal();
                    return Some(self.tok(TokenKind::Literal(Some(text)), line, col));
                }
                'b' if matches!(self.peek2(), Some('"')) => {
                    self.bump(); // b
                    self.string_literal();
                    return Some(self.tok(TokenKind::Literal(None), line, col));
                }
                'b' if matches!(self.peek2(), Some('\'')) => {
                    self.bump(); // b
                    self.char_literal();
                    return Some(self.tok(TokenKind::Literal(None), line, col));
                }
                '\'' => {
                    if let Some(tok) = self.lifetime_or_char(line, col) {
                        return Some(tok);
                    }
                }
                c if c.is_ascii_digit() => {
                    self.number_literal();
                    return Some(self.tok(TokenKind::Literal(None), line, col));
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let ident = self.ident();
                    return Some(self.tok(TokenKind::Ident(ident), line, col));
                }
                c => {
                    self.bump();
                    return Some(self.tok(TokenKind::Punct(c), line, col));
                }
            }
        }
    }

    fn tok(&self, kind: TokenKind, line: usize, col: usize) -> Token {
        Token {
            kind,
            line,
            col,
            active: true,
        }
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn line_comment(&mut self) {
        while self.peek().is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    /// Consumes a `"..."` literal, returning its unescaped text.
    fn string_literal(&mut self) -> String {
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => match self.bump() {
                    Some('n') => text.push('\n'),
                    Some('r') => text.push('\r'),
                    Some('t') => text.push('\t'),
                    Some('0') => text.push('\0'),
                    Some('u') => {
                        // `\u{hex}`: decode, or skip on malformed input.
                        let mut hex = String::new();
                        if self.peek() == Some('{') {
                            self.bump();
                            while let Some(h) = self.peek() {
                                if h == '}' {
                                    self.bump();
                                    break;
                                }
                                hex.push(h);
                                self.bump();
                            }
                        }
                        if let Some(decoded) =
                            u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                        {
                            text.push(decoded);
                        }
                    }
                    Some('\n') => {
                        // Line-continuation escape: skip leading whitespace.
                        while self.peek().is_some_and(|c| c.is_whitespace()) {
                            self.bump();
                        }
                    }
                    Some(e) => text.push(e),
                    None => break,
                },
                '"' => break,
                c => text.push(c),
            }
        }
        text
    }

    /// Whether the upcoming `r...` really starts a raw string (`r"`, `r#"`),
    /// as opposed to an identifier that merely starts with `r`.
    fn is_raw_string(&mut self) -> bool {
        let mut clone = self.chars.clone();
        clone.next(); // 'r'
        let mut c = clone.next();
        while c == Some('#') {
            c = clone.next();
        }
        c == Some('"')
    }

    /// Consumes an `r"..."` / `r#"..."#` literal, returning its text.
    fn raw_string_literal(&mut self) -> String {
        let mut text = String::new();
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some('#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        return text;
                    }
                    text.push('"');
                    for _ in 0..seen {
                        text.push('#');
                    }
                }
                Some(c) => text.push(c),
                None => return text,
            }
        }
    }

    fn char_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    /// Disambiguates a `'` between a lifetime (`'env`) and a char literal
    /// (`'a'`, `'\n'`): an identifier directly after the quote that is *not*
    /// closed by another quote is a lifetime.
    fn lifetime_or_char(&mut self, line: usize, col: usize) -> Option<Token> {
        let mut clone = self.chars.clone();
        clone.next(); // the quote
        let first = clone.next();
        match first {
            Some(c) if c.is_alphabetic() || c == '_' => {
                // Walk the identifier; if it ends with a closing quote it
                // was a char literal like 'a'.
                let n = clone.clone();
                let mut len = 1;
                let mut closed = false;
                for nc in n {
                    if nc.is_alphanumeric() || nc == '_' {
                        len += 1;
                    } else {
                        closed = nc == '\'';
                        break;
                    }
                }
                if closed && len == 1 {
                    self.char_literal();
                    Some(self.tok(TokenKind::Literal(None), line, col))
                } else {
                    self.bump(); // quote
                    let ident = self.ident();
                    Some(self.tok(TokenKind::Lifetime(ident), line, col))
                }
            }
            _ => {
                self.char_literal();
                Some(self.tok(TokenKind::Literal(None), line, col))
            }
        }
    }

    fn number_literal(&mut self) {
        while let Some(c) = self.peek() {
            // Good enough for spans: consume digits, radix letters, `_`,
            // `.` followed by a digit, and exponent signs.
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else if c == '.' {
                match self.peek2() {
                    Some(d) if d.is_ascii_digit() => {
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
    }
}

/// Marks tokens inside `#[cfg(test)]` items as inactive.
///
/// Also handles the inner-attribute form `#![cfg(test)]`, which deactivates
/// the whole file. The "item" following an exempting attribute extends over
/// any further attributes, up to and including its brace block (or a `;`
/// that arrives before any brace — e.g. a gated `use`).
fn mark_inactive(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#![cfg(...)]` — inner attribute: whole file.
        let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let bracket = if inner { i + 2 } else { i + 1 };
        if !tokens.get(bracket).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(end) = matching_bracket(tokens, bracket) else {
            i += 1;
            continue;
        };
        if !attr_is_exempting_cfg(&tokens[bracket + 1..end]) {
            i = bracket + 1;
            continue;
        }
        if inner {
            for t in tokens.iter_mut() {
                t.active = false;
            }
            return;
        }
        // Attribute applies to the following item: deactivate through the
        // end of its block (or terminating semicolon).
        let item_end = item_end(tokens, end + 1);
        for t in &mut tokens[i..item_end] {
            t.active = false;
        }
        i = item_end;
    }
}

/// Whether the attribute tokens (inside `[...]`) are a `cfg(...)` whose
/// predicate names `test` and does not negate: `cfg(test)`,
/// `cfg(all(test, ..))`, `cfg(any(test, ..))`. A `not(..)` anywhere keeps
/// the item active — `#[cfg(not(test))]` code is live in every release
/// build.
fn attr_is_exempting_cfg(attr: &[Token]) -> bool {
    if attr.first().and_then(Token::ident) != Some("cfg") {
        return false;
    }
    let mentions = |name: &str| attr.iter().any(|t| t.ident() == Some(name));
    mentions("test") && !mentions("not")
}

/// Index of the matching `]`/`}`/`)` for the opener at `open`.
pub fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens[open].kind {
        TokenKind::Punct('[') => ('[', ']'),
        TokenKind::Punct('{') => ('{', '}'),
        TokenKind::Punct('(') => ('(', ')'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// End index (exclusive) of the item starting at `start`: skips further
/// attributes, then runs to the close of the first brace block, or to a
/// top-level `;` if one comes first.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip stacked attributes.
    while i < tokens.len() && tokens[i].is_punct('#') {
        if let Some(close) = tokens
            .get(i + 1)
            .filter(|t| t.is_punct('['))
            .and_then(|_| matching_bracket(tokens, i + 1))
        {
            i = close + 1;
        } else {
            break;
        }
    }
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(';') {
            return i + 1;
        }
        if t.is_punct('{') {
            return matching_bracket(tokens, i).map_or(tokens.len(), |c| c + 1);
        }
        // Skip parenthesized/bracketed groups (where `;` can legally occur,
        // e.g. `[0u8; 4]` in a signature default) without ending the item.
        if t.is_punct('(') || t.is_punct('[') {
            i = matching_bracket(tokens, i).map_or(tokens.len(), |c| c + 1);
            continue;
        }
        i += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<(&str, bool)> {
        tokens
            .iter()
            .filter_map(|t| t.ident().map(|s| (s, t.active)))
            .collect()
    }

    #[test]
    fn comments_strings_and_lifetimes_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap<_, _>";
            let r = r#"HashMap"#;
            let c = 'H';
            fn f<'env>(x: &'env str) {}
        "##;
        let lexed = lex(src);
        assert!(idents(&lexed).iter().all(|(s, _)| *s != "HashMap"));
        assert!(lexed
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Lifetime(l) if l == "env")));
    }

    #[test]
    fn spans_are_line_and_column_accurate() {
        let src = "fn main() {\n    let map = HashMap::new();\n}\n";
        let lexed = lex(src);
        let tok = lexed.iter().find(|t| t.ident() == Some("HashMap")).unwrap();
        assert_eq!((tok.line, tok.col), (2, 15));
    }

    #[test]
    fn cfg_test_items_are_inactive() {
        let src = r#"
            fn live() { thread_rng(); }
            #[cfg(test)]
            mod tests {
                fn gated() { thread_rng(); }
            }
            fn live_again() {}
        "#;
        let lexed = lex(src);
        let rngs: Vec<bool> = lexed
            .iter()
            .filter(|t| t.ident() == Some("thread_rng"))
            .map(|t| t.active)
            .collect();
        assert_eq!(rngs, vec![true, false]);
        assert!(lexed
            .iter()
            .any(|t| t.ident() == Some("live_again") && t.active));
    }

    #[test]
    fn cfg_predicates_and_inner_attributes_deactivate() {
        let spawn_active = |src: &str| {
            let lexed = lex(src);
            let spawn = lexed.iter().find(|t| t.ident() == Some("spawn"));
            spawn.unwrap().active
        };
        assert!(!spawn_active(
            "#[cfg(all(test, unix))]\nfn model() { spawn(); }\nfn live() {}"
        ));
        assert!(!spawn_active(
            "#[cfg(any(test, miri))]\nfn model() { spawn(); }"
        ));
        // A negated predicate is live in every release build.
        assert!(spawn_active("#[cfg(not(test))]\nfn shipped() { spawn(); }"));
        assert!(spawn_active(
            "#![cfg(not(test))]\nfn shipped() { spawn(); }"
        ));
        let whole = lex("#![cfg(test)]\nfn anything() { spawn(); }");
        assert!(whole.iter().all(|t| !t.active));
    }

    #[test]
    fn raw_identifier_prefix_r_is_not_a_raw_string() {
        let lexed = lex("let radius = r_values[0];");
        assert!(lexed.iter().any(|t| t.ident() == Some("r_values")));
    }
}
