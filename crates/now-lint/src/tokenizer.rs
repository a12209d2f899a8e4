//! A hand-rolled, lossy-but-honest Rust tokenizer.
//!
//! The lint rules only need to know, for every identifier in a source
//! file, (a) that it really is code — not the inside of a string
//! literal, a comment, or a raw string — and (b) what line it sits on.
//! That is a much smaller contract than full parsing, so the lexer is
//! ~200 lines with no dependencies (this environment has no registry
//! access, hence no `syn`), but it must be *exact* about the boundaries
//! that could hide a violation or fake one:
//!
//! * line (`//`) and nested block (`/* /* */ */`) comments — kept as
//!   tokens because rule P001 inspects comment text for `INVARIANT:`;
//! * string, byte-string, raw-string (`r#"…"#`, any `#` depth), char
//!   and byte-char literals — all skipped as single opaque tokens;
//! * the `'a` lifetime vs `'a'` char-literal ambiguity;
//! * raw identifiers (`r#match`) vs raw strings (`r#"…"`).
//!
//! Everything else degrades to identifier / number / single-character
//! punctuation tokens, which is all the rule engine consumes.

/// What a token is. Identifiers carry their name and comments their
/// full text (P001 greps it for `INVARIANT:`); literals are opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `panic`, `fn`, …).
    Ident,
    /// One character of punctuation.
    Punct(char),
    /// Line or block comment, text preserved verbatim.
    Comment,
    /// String / byte-string / raw-string literal (content discarded).
    Str,
    /// Char or byte-char literal.
    CharLit,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Numeric literal (suffixes and hex digits folded in).
    Num,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Name for `Ident`, full text for `Comment`, empty otherwise.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Set by the scoping pass when the token lies inside a
    /// `#[cfg(test)]` / `#[test]` item; rules treat such code as test
    /// code. Always `false` straight out of the lexer.
    pub in_test: bool,
}

impl Token {
    fn new(kind: TokKind, text: String, line: u32) -> Self {
        Token {
            kind,
            text,
            line,
            in_test: false,
        }
    }

    /// True for identifier tokens named exactly `name`.
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True for the given punctuation character.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advances one char, counting newlines.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn is_ident_start(c: char) -> bool {
        c.is_alphabetic() || c == '_'
    }

    fn is_ident_continue(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }

    /// Consumes a `//…` comment (newline not included).
    fn line_comment(&mut self) -> Token {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        Token::new(TokKind::Comment, text, line)
    }

    /// Consumes a `/* … */` comment; Rust block comments nest.
    fn block_comment(&mut self) -> Token {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        Token::new(TokKind::Comment, text, line)
    }

    /// Consumes a `"…"` string body starting *after* the opening quote.
    fn string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // escaped char, even if it is a quote
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Consumes a raw-string body: `pos` is at the first `#` or the
    /// opening quote. Returns `false` if this is not a raw string after
    /// all (it is a raw identifier like `r#match`).
    fn raw_string_body(&mut self) -> bool {
        let mut hashes = 0usize;
        while self.peek(hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(hashes) != Some('"') {
            return false; // r#ident
        }
        for _ in 0..=hashes {
            self.bump(); // the #s and the opening quote
        }
        // Scan for `"` followed by `hashes` #s.
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0usize;
                while matched < hashes && self.peek(matched) == Some('#') {
                    matched += 1;
                }
                if matched == hashes {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        }
        true
    }

    /// Consumes a char literal body after the opening `'` (the caller
    /// has already decided it is not a lifetime).
    fn char_body(&mut self) {
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

    /// `'` disambiguation: `'\…'` and `'x'` are char literals, anything
    /// else (`'a`, `'static`) is a lifetime.
    fn char_or_lifetime(&mut self) -> Token {
        let line = self.line;
        self.bump(); // the opening '
        match self.peek(0) {
            Some('\\') => {
                self.char_body();
                Token::new(TokKind::CharLit, String::new(), line)
            }
            Some(c) if Self::is_ident_start(c) && self.peek(1) != Some('\'') => {
                // A lifetime: consume the identifier chars.
                while let Some(c) = self.peek(0) {
                    if !Self::is_ident_continue(c) {
                        break;
                    }
                    self.bump();
                }
                Token::new(TokKind::Lifetime, String::new(), line)
            }
            Some(_) => {
                self.char_body();
                Token::new(TokKind::CharLit, String::new(), line)
            }
            None => Token::new(TokKind::Punct('\''), String::new(), line),
        }
    }

    fn ident(&mut self) -> String {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if !Self::is_ident_continue(c) {
                break;
            }
            name.push(c);
            self.bump();
        }
        name
    }
}

/// Tokenizes `src`. Never fails: unrecognized bytes become punctuation,
/// and unterminated literals simply run to end of file — good enough
/// for a linter that only runs on code rustc already accepts.
pub(crate) fn tokenize(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = lx.peek(0) {
        let line = lx.line;
        match c {
            c if c.is_whitespace() => {
                lx.bump();
            }
            '/' if lx.peek(1) == Some('/') => out.push(lx.line_comment()),
            '/' if lx.peek(1) == Some('*') => out.push(lx.block_comment()),
            '"' => {
                lx.bump();
                lx.string_body();
                out.push(Token::new(TokKind::Str, String::new(), line));
            }
            '\'' => out.push(lx.char_or_lifetime()),
            c if c.is_ascii_digit() => {
                // Numbers: digits, hex/suffix letters, underscores.
                // `1.5` lexes as Num '.' Num, which the rules ignore.
                while let Some(c) = lx.peek(0) {
                    if !Lexer::is_ident_continue(c) {
                        break;
                    }
                    lx.bump();
                }
                out.push(Token::new(TokKind::Num, String::new(), line));
            }
            c if Lexer::is_ident_start(c) => {
                // Literal prefixes first: r"…", r#"…"#, b"…", br#"…"#,
                // b'…'; `r#ident` falls through to a raw identifier.
                if (c == 'r' || c == 'b')
                    && !lx.peek(1).is_some_and(|n| {
                        Lexer::is_ident_continue(n) || n == '#' || n == '"' || n == '\''
                    })
                {
                    let name = lx.ident();
                    out.push(Token::new(TokKind::Ident, name, line));
                    continue;
                }
                match c {
                    'r' if lx.peek(1) == Some('"') || lx.peek(1) == Some('#') => {
                        lx.bump(); // r
                        if lx.raw_string_body() {
                            out.push(Token::new(TokKind::Str, String::new(), line));
                        } else {
                            // r#ident: skip the # and lex the name.
                            lx.bump();
                            let name = lx.ident();
                            out.push(Token::new(TokKind::Ident, name, line));
                        }
                    }
                    'b' if lx.peek(1) == Some('"') => {
                        lx.bump(); // b
                        lx.bump(); // "
                        lx.string_body();
                        out.push(Token::new(TokKind::Str, String::new(), line));
                    }
                    'b' if lx.peek(1) == Some('\'') => {
                        lx.bump(); // b
                        lx.bump(); // '
                        lx.char_body();
                        out.push(Token::new(TokKind::CharLit, String::new(), line));
                    }
                    'b' if lx.peek(1) == Some('r')
                        && (lx.peek(2) == Some('"') || lx.peek(2) == Some('#')) =>
                    {
                        lx.bump(); // b
                        lx.bump(); // r
                        if lx.raw_string_body() {
                            out.push(Token::new(TokKind::Str, String::new(), line));
                        } else {
                            // `br#ident` is not legal Rust; treat as ident.
                            lx.bump();
                            let name = lx.ident();
                            out.push(Token::new(TokKind::Ident, name, line));
                        }
                    }
                    _ => {
                        let name = lx.ident();
                        out.push(Token::new(TokKind::Ident, name, line));
                    }
                }
            }
            other => {
                lx.bump();
                out.push(Token::new(TokKind::Punct(other), String::new(), line));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_survive_and_literals_vanish() {
        let src = r##"fn main() { let x = "HashMap inside a string"; }"##;
        assert_eq!(idents(src), ["fn", "main", "let", "x"]);
    }

    #[test]
    fn line_and_block_comments_are_tokens_not_code() {
        let src = "// HashMap here\n/* and /* nested */ HashSet there */\nlet y = 1;";
        let toks = tokenize(src);
        let comments: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Comment).collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[1].text.contains("nested"));
        assert_eq!(idents(src), ["let", "y"]);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let src = r####"let s = r#"thread::spawn " still a string"#; let t = r"x";"####;
        assert_eq!(idents(src), ["let", "s", "let", "t"]);
    }

    #[test]
    fn raw_identifiers_are_identifiers() {
        assert_eq!(idents("let r#match = 3;"), ["let", "match"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = tokenize(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            1
        );
        // '\'' escape form:
        let toks = tokenize(r"let q = '\''; let nl = '\n';");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = r##"let a = b"unsafe"; let b = b'u'; let c = br#"spawn"#;"##;
        assert_eq!(idents(src), ["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1; /* c\nc */ let d = 2;";
        let toks = tokenize(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 3);
        assert_eq!(find("d"), 4);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let src = r#"let s = "he said \"unsafe\""; let done = 1;"#;
        assert_eq!(idents(src), ["let", "s", "let", "done"]);
    }
}
