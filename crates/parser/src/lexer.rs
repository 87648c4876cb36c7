//! Tokenizer for the MAGIK surface syntax.

use std::fmt;

use crate::span::Span;

/// The kind of a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A lowercase identifier (predicate name or constant) or an integer
    /// literal or a quoted string; the payload is the spelling (unquoted).
    Symbol(String),
    /// A variable name (leading uppercase or underscore).
    Variable(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `:-`
    Turnstile,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Symbol(s) => write!(f, "symbol `{s}`"),
            TokenKind::Variable(s) => write!(f, "variable `{s}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Semicolon => f.write_str("`;`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Turnstile => f.write_str("`:-`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Byte range in the source (for quoted strings this includes the
    /// quotes).
    pub span: Span,
}

/// A `%`-to-end-of-line comment captured as trivia during tokenization.
///
/// Comments carry no semantics for parsing, but downstream tools (notably
/// `magik-analyze` suppression directives such as `% magik: allow(M001)`)
/// need their text and position, so the lexer records them instead of
/// discarding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// The raw comment text, including the leading `%`, excluding the
    /// terminating newline.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Byte range of the comment text (without the newline).
    pub span: Span,
}

/// A tokenization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description of the problem.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Byte range of the offending text.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a whole source string, discarding comment trivia.
#[cfg(test)]
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    tokenize_with_comments(src).map(|(tokens, _)| tokens)
}

/// Tokenizes a whole source string, additionally returning every `%`
/// comment as [`Comment`] trivia in source order.
pub(crate) fn tokenize_with_comments(src: &str) -> Result<(Vec<Token>, Vec<Comment>), LexError> {
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let bytes = src.as_bytes();
    let mut pos = 0;
    let mut line = 1;
    let mut col = 1;
    let advance = |pos: &mut usize, line: &mut usize, col: &mut usize| {
        if bytes[*pos] == b'\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *pos += 1;
    };
    while pos < bytes.len() {
        let c = bytes[pos];
        let (tline, tcol, tpos) = (line, col, pos);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                advance(&mut pos, &mut line, &mut col);
            }
            b'%' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    advance(&mut pos, &mut line, &mut col);
                }
                comments.push(Comment {
                    text: String::from_utf8_lossy(&bytes[tpos..pos]).into_owned(),
                    line: tline,
                    span: Span::new(tpos, pos),
                });
            }
            b'(' | b')' | b',' | b';' | b'.' | b'{' | b'}' => {
                let kind = match c {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b',' => TokenKind::Comma,
                    b';' => TokenKind::Semicolon,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    _ => TokenKind::Dot,
                };
                advance(&mut pos, &mut line, &mut col);
                tokens.push(Token {
                    kind,
                    line: tline,
                    col: tcol,
                    span: Span::new(tpos, pos),
                });
            }
            b':' => {
                advance(&mut pos, &mut line, &mut col);
                if pos < bytes.len() && bytes[pos] == b'-' {
                    advance(&mut pos, &mut line, &mut col);
                    tokens.push(Token {
                        kind: TokenKind::Turnstile,
                        line: tline,
                        col: tcol,
                        span: Span::new(tpos, pos),
                    });
                } else {
                    return Err(LexError {
                        message: "expected `-` after `:`".to_owned(),
                        line: tline,
                        col: tcol,
                        span: Span::new(tpos, pos),
                    });
                }
            }
            b'"' => {
                advance(&mut pos, &mut line, &mut col);
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b'"' && bytes[pos] != b'\n' {
                    advance(&mut pos, &mut line, &mut col);
                }
                if pos >= bytes.len() || bytes[pos] != b'"' {
                    return Err(LexError {
                        message: "unterminated string literal".to_owned(),
                        line: tline,
                        col: tcol,
                        span: Span::new(tpos, pos),
                    });
                }
                let text = String::from_utf8_lossy(&bytes[start..pos]).into_owned();
                advance(&mut pos, &mut line, &mut col);
                tokens.push(Token {
                    kind: TokenKind::Symbol(text),
                    line: tline,
                    col: tcol,
                    span: Span::new(tpos, pos),
                });
            }
            _ if c.is_ascii_lowercase() || c.is_ascii_digit() => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    advance(&mut pos, &mut line, &mut col);
                }
                let text = String::from_utf8_lossy(&bytes[start..pos]).into_owned();
                tokens.push(Token {
                    kind: TokenKind::Symbol(text),
                    line: tline,
                    col: tcol,
                    span: Span::new(tpos, pos),
                });
            }
            _ if c.is_ascii_uppercase() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    advance(&mut pos, &mut line, &mut col);
                }
                let text = String::from_utf8_lossy(&bytes[start..pos]).into_owned();
                tokens.push(Token {
                    kind: TokenKind::Variable(text),
                    line: tline,
                    col: tcol,
                    span: Span::new(tpos, pos),
                });
            }
            _ => {
                // Every other branch stops on an ASCII byte, so `pos`
                // starts a character.
                let ch = src[pos..].chars().next().expect("pos < len");
                // Letters and digits print as themselves, any other
                // non-ASCII character as its escape, so an invisible one
                // stays visible.
                let shown = if ch.is_ascii() || ch.is_alphanumeric() {
                    ch.to_string()
                } else {
                    ch.escape_unicode().to_string()
                };
                return Err(LexError {
                    message: format!("unexpected character `{shown}`"),
                    line: tline,
                    col: tcol,
                    span: Span::new(tpos, tpos + ch.len_utf8()),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
        span: Span::point(pos),
    });
    Ok((tokens, comments))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_atoms_and_punctuation() {
        assert_eq!(
            kinds("q(N) :- p(N, c1)."),
            vec![
                TokenKind::Symbol("q".into()),
                TokenKind::LParen,
                TokenKind::Variable("N".into()),
                TokenKind::RParen,
                TokenKind::Turnstile,
                TokenKind::Symbol("p".into()),
                TokenKind::LParen,
                TokenKind::Variable("N".into()),
                TokenKind::Comma,
                TokenKind::Symbol("c1".into()),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_positions_tracked() {
        let tokens = tokenize("% hi\n  p.").unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Symbol("p".into()));
        assert_eq!((tokens[0].line, tokens[0].col), (2, 3));
        assert_eq!(tokens[0].span, Span::new(7, 8));
    }

    #[test]
    fn comments_are_captured_as_trivia() {
        let src = "% first\np. % trailing\n% last";
        let (tokens, comments) = tokenize_with_comments(src).unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Symbol("p".into()));
        assert_eq!(comments.len(), 3);
        assert_eq!(comments[0].text, "% first");
        assert_eq!(comments[0].line, 1);
        assert_eq!(
            &src[comments[0].span.start..comments[0].span.end],
            "% first"
        );
        assert_eq!(comments[1].text, "% trailing");
        assert_eq!(comments[1].line, 2);
        assert_eq!(comments[2].text, "% last");
        assert_eq!(comments[2].line, 3);
        assert_eq!(comments[2].span.end, src.len());
    }

    #[test]
    fn quoted_strings_and_numbers_are_symbols() {
        assert_eq!(
            kinds("\"hello world\" 42"),
            vec![
                TokenKind::Symbol("hello world".into()),
                TokenKind::Symbol("42".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn underscore_starts_a_variable() {
        assert_eq!(
            kinds("_x X1"),
            vec![
                TokenKind::Variable("_x".into()),
                TokenKind::Variable("X1".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_cover_token_text() {
        let src = "q(Name) :- \"a b\".";
        let tokens = tokenize(src).unwrap();
        let texts: Vec<&str> = tokens
            .iter()
            .map(|t| &src[t.span.start..t.span.end])
            .collect();
        assert_eq!(texts, vec!["q", "(", "Name", ")", ":-", "\"a b\"", ".", ""]);
    }

    #[test]
    fn lex_errors_carry_positions() {
        let err = tokenize("p ?").unwrap_err();
        assert_eq!((err.line, err.col), (1, 3));
        assert_eq!(err.span, Span::new(2, 3));
        let err = tokenize("p :q").unwrap_err();
        assert!(err.message.contains("`-`"));
        let err = tokenize("\"oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.span.start, 0);
    }

    #[test]
    fn lex_errors_name_a_multibyte_character_whole() {
        // A letter prints as itself, spanning both of its bytes; the
        // column stays byte-based.
        let src = "q(X) :- p(X), \u{e9}(X).";
        let err = tokenize(src).unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{e9}`");
        assert_eq!((err.line, err.col), (1, 15));
        assert_eq!(&src[err.span.start..err.span.end], "\u{e9}");
        // An invisible one prints as its escape, spanning all three bytes.
        let err = tokenize("p(a) \u{200b}q").unwrap_err();
        assert_eq!(err.message, "unexpected character `\\u{200b}`");
        assert_eq!(err.span, Span::new(5, 8));
        // After a quoted string holding multibyte text, too.
        let err = tokenize("p(\"\u{e9}t\u{e9}\") \u{2192}").unwrap_err();
        assert_eq!(err.message, "unexpected character `\\u{2192}`");
        assert_eq!(err.span.end - err.span.start, 3);
    }
}
