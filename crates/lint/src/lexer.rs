//! A minimal hand-rolled Rust lexer: just enough fidelity for static
//! analysis of the workspace's own sources.
//!
//! The lexer understands the constructs that defeat naive `grep`-style
//! scanning — line and nested block comments, string / raw-string / byte /
//! char literals, lifetimes vs. char literals, raw identifiers — and
//! reduces everything else to identifiers and single-character
//! punctuation. String/char literal *contents* are deliberately
//! discarded: no lint cares what a string says, only that it is not
//! code. Number literals keep their text, because D008 must tell
//! `remove(0)` apart from `remove(idx)`.
//!
//! Suppression directives (`// asd-lint: allow(Dxxx) -- reason`) and
//! hot-path markers (`// asd-lint: hot`) are recognised while scanning
//! line comments and surfaced separately: directives are matched against
//! findings to suppress them, and each marker anchors D009's
//! per-function allocation scan.

/// One lexed token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `static`, `unwrap`, ...).
    Ident(String),
    /// A lifetime or loop label (`'a`, `'static`) — kept distinct so
    /// `&'static mut T` never reads as `static mut`.
    Lifetime(String),
    /// A non-numeric literal: string, raw string, byte string, or char.
    Literal,
    /// A number literal, with its source text (suffixes and `_`
    /// separators included).
    Number(String),
    /// A single punctuation character (`.`, `!`, `:`, `{`, ...).
    Punct(char),
}

/// A token plus the 1-based source line it starts on and its span.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
    /// Char offset (0-based, inclusive) of the token's first character.
    pub start: u32,
    /// Char offset (exclusive) one past the token's last character.
    pub end: u32,
}

/// A `// asd-lint: allow(...)` suppression directive found in a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the directive appears on.
    pub line: u32,
    /// The lint codes listed inside `allow(...)`.
    pub codes: Vec<String>,
    /// Whether the directive is well-formed: valid `Dxxx` codes and a
    /// non-empty `-- reason` trailer.
    pub well_formed: bool,
}

/// The full result of lexing one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Token stream with comments and literal contents stripped.
    pub tokens: Vec<Token>,
    /// Every suppression directive encountered, well-formed or not.
    pub allows: Vec<Allow>,
    /// 1-based lines carrying a `// asd-lint: hot` hot-path marker
    /// (D009 scans the function that follows each one).
    pub hots: Vec<u32>,
}

/// Lex `src` into tokens and suppression directives. Never fails: any
/// byte sequence produces *some* token stream (unterminated literals run
/// to end of file).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        tokens: Vec::new(),
        allows: Vec::new(),
        hots: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    tokens: Vec<Token>,
    allows: Vec<Allow>,
    hots: Vec<u32>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0);
        if let Some(c) = c {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    /// Push a token that started at char offset `start` on `line` and
    /// ends at the current cursor.
    fn push_span(&mut self, tok: Tok, line: u32, start: usize) {
        self.tokens.push(Token { tok, line, start: start as u32, end: self.i as u32 });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.quote(),
                'r' | 'b' if self.literal_prefix() => {}
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let start = self.i;
                    if let Some(c) = self.bump() {
                        self.push_span(Tok::Punct(c), line, start);
                    }
                }
            }
        }
        Lexed { tokens: self.tokens, allows: self.allows, hots: self.hots }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        // Doc comments (`///`, `//!`) are documentation: suppression
        // syntax quoted in them describes the directive rather than
        // invoking it. (`////...` is an ordinary comment again.)
        let doc = matches!(self.peek(2), Some('!'))
            || (self.peek(2) == Some('/') && self.peek(3) != Some('/'));
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if doc {
            return;
        }
        match parse_directive(&text, line) {
            Some(Directive::Allow(allow)) => self.allows.push(allow),
            Some(Directive::Hot) => self.hots.push(line),
            None => {}
        }
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        let start = self.i;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push_span(Tok::Literal, line, start);
    }

    /// `r"..."`, `r#"..."#`, `b"..."`, `br##"..."##`, `b'x'`, or a raw
    /// identifier `r#name`. Returns true if a prefixed construct was
    /// consumed; false means the leading `r`/`b` is an ordinary identifier
    /// and the caller should lex it as such.
    fn literal_prefix(&mut self) -> bool {
        let c0 = match self.peek(0) {
            Some(c) => c,
            None => return false,
        };
        if c0 == 'b' && self.peek(1) == Some('\'') {
            // Byte char literal: consume `b`, then reuse char-literal logic.
            let line = self.line;
            self.bump();
            self.char_literal(line);
            return true;
        }
        if c0 == 'b' && self.peek(1) == Some('"') {
            // Byte string: escapes work like an ordinary string.
            self.bump();
            self.string_literal();
            return true;
        }
        // Remaining prefixed forms are raw: `r`/`br` + hashes + quote.
        let prefix = match (c0, self.peek(1)) {
            ('b', Some('r')) => 2,
            ('r', _) => 1,
            _ => return false,
        };
        let mut hashes = 0usize;
        while self.peek(prefix + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(prefix + hashes) {
            Some('"') => {
                self.raw_string(prefix, hashes);
                true
            }
            Some(c) if c0 == 'r' && hashes == 1 && is_ident_start(c) => {
                // Raw identifier `r#type`: skip the prefix, lex the ident.
                self.bump();
                self.bump();
                self.ident();
                true
            }
            _ => false,
        }
    }

    fn raw_string(&mut self, prefix: usize, hashes: usize) {
        let line = self.line;
        let start = self.i;
        for _ in 0..prefix + hashes + 1 {
            self.bump(); // prefix chars, hashes, opening quote
        }
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // The closing quote must be followed by exactly the
                // opening hash count (`r##"…"##`); fewer hashes mean the
                // quote was literal text and scanning continues.
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push_span(Tok::Literal, line, start);
    }

    /// A `'`: either a lifetime/label or a char literal.
    fn quote(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let lifetime = match next {
            Some(c) if is_ident_start(c) => self.peek(2) != Some('\''),
            _ => false,
        };
        if lifetime {
            let start = self.i;
            self.bump(); // '
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                name.push(c);
                self.bump();
            }
            self.push_span(Tok::Lifetime(name), line, start);
        } else {
            self.char_literal(line);
        }
    }

    /// A char or byte-char literal body starting at the opening `'`.
    /// Escapes are consumed uniformly: `\u{…}` runs to its brace, `\x41`
    /// (and byte escapes like `\xff` in `b'…'`) take their hex digits, and
    /// single-char escapes (`\'`, `\\`, `\n`, …) take one char.
    fn char_literal(&mut self, line: u32) {
        let start = self.i;
        self.bump(); // opening '
        match self.bump() {
            Some('\\') => match self.bump() {
                Some('u') if self.peek(0) == Some('{') => {
                    while let Some(c) = self.bump() {
                        if c == '}' {
                            break;
                        }
                    }
                }
                Some('x') => {
                    for _ in 0..2 {
                        if self.peek(0).is_some_and(|c| c.is_ascii_hexdigit()) {
                            self.bump();
                        }
                    }
                }
                _ => {} // single-char escape, already consumed
            },
            Some('\'') => {
                // Empty literal `''` — malformed Rust, but recover.
                self.push_span(Tok::Literal, line, start);
                return;
            }
            _ => {} // the literal's char itself
        }
        if self.peek(0) == Some('\'') {
            self.bump();
        }
        self.push_span(Tok::Literal, line, start);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.i;
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            name.push(c);
            self.bump();
        }
        self.push_span(Tok::Ident(name), line, start);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `1..5` does not.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_span(Tok::Number(text), line, start);
    }
}

/// One recognised `asd-lint:` comment directive.
enum Directive {
    /// A suppression (`allow(...)`), well-formed or not.
    Allow(Allow),
    /// A hot-path marker (`hot`).
    Hot,
}

/// Parse a directive out of one line comment's text, if the marker
/// `asd-lint:` is present. Well-formed directives look like
/// `asd-lint: allow(D005) -- reason text` (codes may be a comma list) or
/// the path marker `asd-lint: hot`, optionally followed by a `-- reason`
/// trailer. Anything else after the marker is reported as a malformed
/// (suppression-shaped) directive so typos fail loudly (D000).
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let idx = comment.find("asd-lint:")?;
    let rest = comment[idx + "asd-lint:".len()..].trim_start();
    // `hot`, bare or with a `-- reason` trailer.
    let hot = rest.strip_prefix("hot").is_some_and(|t| {
        let t = t.trim_start();
        t.is_empty() || t.strip_prefix("--").is_some_and(|r| !r.trim().is_empty())
    });
    if hot {
        return Some(Directive::Hot);
    }
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(Directive::Allow(Allow { line, codes: Vec::new(), well_formed: false }));
    };
    let Some(close) = body.find(')') else {
        return Some(Directive::Allow(Allow { line, codes: Vec::new(), well_formed: false }));
    };
    let codes: Vec<String> =
        body[..close].split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    let valid_codes = !codes.is_empty()
        && codes.iter().all(|c| {
            c.len() == 4 && c.starts_with('D') && c.chars().skip(1).all(|d| d.is_ascii_digit())
        });
    let reason = body[close + 1..].trim_start();
    let has_reason = reason.strip_prefix("--").is_some_and(|r| !r.trim().is_empty());
    Some(Directive::Allow(Allow { line, codes, well_formed: valid_codes && has_reason }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_stripped() {
        let src = "let a = 1; // HashMap in a comment\n/* Instant\n * spanning /* nested */ lines */ let b;";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"b".to_string()));
    }

    #[test]
    fn strings_are_opaque() {
        let ids = idents(r##"let s = "HashMap::unwrap()"; let r = r#"panic!"#; "##);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r##\"quote \"# inside\"##; after";
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "after"]);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { '\\'' }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Lifetime(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
    }

    #[test]
    fn static_lifetime_is_not_static_ident() {
        let src = "fn f(x: &'static mut u8) {}";
        let ids = idents(src);
        assert!(!ids.contains(&"static".to_string()));
        assert!(ids.contains(&"mut".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "line1\n\"multi\nline\nstring\"\nafter";
        let lexed = lex(src);
        let after =
            lexed.tokens.iter().find(|t| t.tok == Tok::Ident("after".to_string())).map(|t| t.line);
        assert_eq!(after, Some(5));
    }

    #[test]
    fn raw_identifiers() {
        let ids = idents("let r#type = 1;");
        assert!(ids.contains(&"type".to_string()));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 1..40 { x(i); }";
        let lexed = lex(src);
        let dots = lexed.tokens.iter().filter(|t| t.tok == Tok::Punct('.')).count();
        assert_eq!(dots, 2, "both dots of `..` survive");
    }

    #[test]
    fn allow_directive_parsed() {
        let src = "let x = 1; // asd-lint: allow(D005) -- invariant upheld by constructor\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.codes, ["D005"]);
        assert!(a.well_formed);
        assert_eq!(a.line, 1);
    }

    #[test]
    fn allow_directive_multiple_codes() {
        let src = "// asd-lint: allow(D002, D005) -- both justified here\n";
        let a = &lex(src).allows[0];
        assert_eq!(a.codes, ["D002", "D005"]);
        assert!(a.well_formed);
    }

    #[test]
    fn allow_directive_without_reason_is_malformed() {
        let src = "// asd-lint: allow(D005)\n";
        let a = &lex(src).allows[0];
        assert!(!a.well_formed);
    }

    #[test]
    fn allow_directive_bad_code_is_malformed() {
        let src = "// asd-lint: allow(D5) -- typo\n";
        let a = &lex(src).allows[0];
        assert!(!a.well_formed);
    }

    #[test]
    fn hot_marker_recorded() {
        let src = "// asd-lint: hot\nfn fast() {}\nlet x = 1; // asd-lint: hot\n";
        let lexed = lex(src);
        assert_eq!(lexed.hots, [1, 3]);
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn hot_marker_with_trailing_text_is_malformed() {
        let src = "// asd-lint: hot path below\n";
        let lexed = lex(src);
        assert!(lexed.hots.is_empty());
        assert_eq!(lexed.allows.len(), 1);
        assert!(!lexed.allows[0].well_formed);
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        let src = "/// Suppress with `// asd-lint: allow(D005) -- reason`.\n//! asd-lint: allow(D001) -- also just documentation\nfn f() {}\n";
        assert!(lex(src).allows.is_empty());
    }

    #[test]
    fn deeply_nested_raw_strings() {
        // Hash counts above one, for both `r` and `br` prefixes, with
        // shorter closing candidates embedded in the body.
        let src =
            "let s = r###\"outer \"## still \"# inside\"###; let b = br##\"bytes \"# ok\"##; tail";
        assert_eq!(idents(src), ["let", "s", "let", "b", "tail"]);
    }

    #[test]
    fn byte_literals_take_hex_escapes() {
        // `b'\xff'` consumes both hex digits; byte-string escapes must
        // not terminate the literal early.
        let src = "let a = b'\\xff'; let s = b\"\\xde\\xad\\\"q\\\"\"; end";
        assert_eq!(idents(src), ["let", "a", "let", "s", "end"]);
    }

    #[test]
    fn marker_with_empty_reason_or_glued_suffix_is_malformed() {
        // `hot` is the only path marker: a leftover `cold` is malformed.
        for src in [
            "// asd-lint: cold --\n",
            "// asd-lint: coldly\n",
            "// asd-lint: hot --  \n",
            "// asd-lint: cold\n",
        ] {
            let lexed = lex(src);
            assert!(lexed.hots.is_empty(), "{src:?}");
            assert_eq!(lexed.allows.len(), 1, "{src:?}");
            assert!(!lexed.allows[0].well_formed, "{src:?}");
        }
    }

    #[test]
    fn spans_are_monotone_and_in_bounds_on_tricky_source() {
        let src = "let s = r##\"x\"##; /* c /* n */ */ b'\\x00'; 'a'; r#type 1..2\n\"m\nl\"\nend";
        let lexed = lex(src);
        let n = src.chars().count() as u32;
        let mut prev = 0;
        for t in &lexed.tokens {
            assert!(t.start >= prev, "span starts before previous token ends");
            assert!(t.start < t.end && t.end <= n, "span out of bounds");
            prev = t.end;
        }
        assert_eq!(lexed.tokens.last().map(|t| t.line), Some(4));
    }
}
