//! Hand-written lexer for the mini-C dialect.
//!
//! The lexer turns source text into a vector of [`Token`]s. Preprocessor
//! directives are recognised at line granularity; line continuations with a
//! trailing backslash are honoured inside them.

use crate::error::{LexError, Pos};
use crate::token::{Token, TokenKind, PUNCTS};

/// Tokenizes `src`, returning the token stream terminated by [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated string/char literals, stray
/// characters, or malformed preprocessor directives.
///
/// # Examples
///
/// ```
/// let tokens = minic::lex("int x = 1;").unwrap();
/// assert_eq!(tokens.len(), 6); // int, x, =, 1, ;, EOF
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        loop {
            self.skip_ws_and_comments()?;
            let pos = self.pos();
            let Some(c) = self.peek() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    pos,
                });
                return Ok(self.tokens);
            };
            let kind = match c {
                b'#' => self.lex_directive()?,
                b'"' => self.lex_string()?,
                b'\'' => self.lex_char()?,
                b'0'..=b'9' => self.lex_number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.lex_ident(),
                b'.' if self.peek2().is_some_and(|d| d.is_ascii_digit()) => self.lex_number(),
                _ => self.lex_punct()?,
            };
            self.tokens.push(Token { kind, pos });
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if (c as char).is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes a `#include`/`#define`/`#pragma` line; the rest of the line
    /// (with `\`-continuations joined) becomes the token payload.
    fn lex_directive(&mut self) -> Result<TokenKind, LexError> {
        self.bump(); // '#'

        // Allow whitespace between '#' and the directive name.
        while self.peek() == Some(b' ') || self.peek() == Some(b'\t') {
            self.bump();
        }
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
        {
            self.bump();
        }
        let name = &self.src[start..self.i];
        let rest = self.take_directive_body()?;
        match name {
            "include" => Ok(TokenKind::Include(rest)),
            "define" => Ok(TokenKind::Define(rest)),
            "pragma" => Ok(TokenKind::Pragma(rest)),
            other => Err(self.error(format!("unsupported preprocessor directive `#{other}`"))),
        }
    }

    fn take_directive_body(&mut self) -> Result<String, LexError> {
        let mut body = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => break,
                Some(b'\\') if self.peek2() == Some(b'\n') => {
                    // Line continuation: join with a single space.
                    self.bump();
                    self.bump();
                    body.push(' ');
                }
                Some(c) => {
                    body.push(c as char);
                    self.bump();
                }
            }
        }
        Ok(body.trim().to_string())
    }

    fn lex_string(&mut self) -> Result<TokenKind, LexError> {
        self.lex_quoted(b'"', "string literal")
            .map(TokenKind::StrLit)
    }

    fn lex_char(&mut self) -> Result<TokenKind, LexError> {
        self.lex_quoted(b'\'', "char literal")
            .map(TokenKind::CharLit)
    }

    /// Lexes a quoted literal, returning its raw source text between the
    /// quotes, escapes included. Quotes and backslashes are ASCII and
    /// never part of a multi-byte UTF-8 sequence, so both ends of that
    /// text are character boundaries.
    fn lex_quoted(&mut self, quote: u8, what: &str) -> Result<String, LexError> {
        self.bump(); // opening quote
        let start = self.i;
        loop {
            match self.bump() {
                None => return Err(self.error(format!("unterminated {what}"))),
                Some(c) if c == quote => return Ok(self.src[start..self.i - 1].to_string()),
                Some(b'\\') => {
                    if self.bump().is_none() {
                        return Err(self.error(format!("unterminated escape in {what}")));
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn lex_number(&mut self) -> TokenKind {
        let start = self.i;
        let mut is_float = false;
        // Hex literals never contain '.', exponents etc. in our dialect.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
        } else {
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            if self.peek() == Some(b'.') {
                is_float = true;
                self.bump();
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let save = (self.i, self.line, self.col);
                is_float = true;
                self.bump();
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    // Not an exponent after all (e.g. identifier suffix).
                    (self.i, self.line, self.col) = save;
                    is_float = self.src[start..self.i].contains('.');
                } else {
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump();
                    }
                }
            }
        }
        // Suffixes: f, F, l, L, u, U (at most two, e.g. `1.0f`, `10UL`).
        let mut suffix = 0;
        while suffix < 2
            && self
                .peek()
                .is_some_and(|c| matches!(c, b'f' | b'F' | b'l' | b'L' | b'u' | b'U'))
        {
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                is_float = true;
            }
            self.bump();
            suffix += 1;
        }
        let text = self.src[start..self.i].to_string();
        if is_float {
            TokenKind::FloatLit(text)
        } else {
            TokenKind::IntLit(text)
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.bump();
        }
        TokenKind::Ident(self.src[start..self.i].to_string())
    }

    fn lex_punct(&mut self) -> Result<TokenKind, LexError> {
        let rest = &self.src[self.i..];
        for p in PUNCTS {
            if rest.starts_with(p) {
                for _ in 0..p.len() {
                    self.bump();
                }
                return Ok(TokenKind::Punct(p));
            }
        }
        Err(self.error(format!(
            "unexpected character `{}`",
            rest.chars().next().unwrap_or('?')
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let k = kinds("int x = 42;");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("int".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Punct("="),
                TokenKind::IntLit("42".into()),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_float_forms() {
        for f in ["1.5", "1.", ".5", "1e3", "1.5e-3", "2.0f", "1E+9"] {
            let k = kinds(f);
            assert!(
                matches!(k[0], TokenKind::FloatLit(_)),
                "{f} lexed as {:?}",
                k[0]
            );
        }
    }

    #[test]
    fn lexes_hex_and_suffixed_ints() {
        assert!(matches!(kinds("0x1F")[0], TokenKind::IntLit(ref s) if s == "0x1F"));
        assert!(matches!(kinds("10UL")[0], TokenKind::IntLit(ref s) if s == "10UL"));
    }

    #[test]
    fn skips_line_and_block_comments() {
        let k = kinds("a // comment\n/* multi\nline */ b");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_pragma_line() {
        let k = kinds("#pragma omp parallel for num_threads(4)\nint x;");
        assert_eq!(
            k[0],
            TokenKind::Pragma("omp parallel for num_threads(4)".into())
        );
    }

    #[test]
    fn pragma_with_continuation_joins_lines() {
        let k = kinds("#pragma omp parallel \\\n  for\nx");
        assert_eq!(k[0], TokenKind::Pragma("omp parallel    for".into()));
        assert_eq!(k[1], TokenKind::Ident("x".into()));
    }

    #[test]
    fn lexes_include_and_define() {
        let k = kinds("#include <stdio.h>\n#define N 100\n");
        assert_eq!(k[0], TokenKind::Include("<stdio.h>".into()));
        assert_eq!(k[1], TokenKind::Define("N 100".into()));
    }

    #[test]
    fn greedy_operator_matching() {
        let k = kinds("a <<= b >> c <= d");
        assert!(k.contains(&TokenKind::Punct("<<=")));
        assert!(k.contains(&TokenKind::Punct(">>")));
        assert!(k.contains(&TokenKind::Punct("<=")));
    }

    #[test]
    fn string_with_escapes() {
        let k = kinds(r#"printf("a\n%d", x);"#);
        assert!(matches!(k[2], TokenKind::StrLit(ref s) if s == "a\\n%d"));
    }

    #[test]
    fn char_literal() {
        let k = kinds("'x'");
        assert_eq!(k[0], TokenKind::CharLit("x".into()));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn stray_character_is_error() {
        assert!(lex("int @x;").is_err());
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos::new(1, 1));
        assert_eq!(toks[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn exponent_backtracking_on_false_exponent() {
        // `1e` followed by non-digit must not swallow the identifier.
        let k = kinds("1ex");
        assert!(matches!(k[0], TokenKind::IntLit(ref s) if s == "1"));
        assert!(matches!(k[1], TokenKind::Ident(ref s) if s == "ex"));
    }
}
