//! Hand-written lexer for mini-C.

use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Integer literal (decimal, hex `0x`, octal `0`, or char `'a'`).
    Num(i64),
    /// Identifier or keyword text.
    Ident(String),
    /// Keyword.
    Kw(Kw),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// Keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kw {
    /// `void`
    Void,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `unsigned`
    Unsigned,
    /// `signed`
    Signed,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `switch`
    Switch,
    /// `case`
    Case,
    /// `default`
    Default,
    /// `const` (accepted and ignored)
    Const,
}

/// A token with its source position (for error reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// Line number (1-based).
    pub line: u32,
    /// Column number (1-based, in characters).
    pub col: u32,
}

/// Lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// Line number.
    pub line: u32,
    /// Column number (1-based, in characters).
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character {:?} at line {}, column {}",
            self.ch, self.line, self.col
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`.
///
/// Supports `//` and `/* */` comments, decimal/hex/octal/char literals, and
/// every operator the grammar uses. The token stream always ends with
/// [`Tok::Eof`].
///
/// # Errors
///
/// Returns [`LexError`] on any character outside the language.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1u32;
    // Start-of-line index: the current column is `i - line_start + 1`.
    let mut line_start = 0usize;
    let mut out = Vec::new();
    let n = b.len();
    while i < n {
        let c = b[i];
        let col = (i - line_start + 1) as u32;
        if c == '\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // comments
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            i += 2;
            while i + 1 < n && !(b[i] == '*' && b[i + 1] == '/') {
                if b[i] == '\n' {
                    line += 1;
                    line_start = i + 1;
                }
                i += 1;
            }
            i = (i + 2).min(n);
            continue;
        }
        // numbers
        if c.is_ascii_digit() {
            let start = i;
            let mut value: i64;
            if c == '0' && i + 1 < n && (b[i + 1] == 'x' || b[i + 1] == 'X') {
                i += 2;
                value = 0;
                while let Some(d) = b.get(i).and_then(|c| c.to_digit(16)) {
                    value = value.wrapping_mul(16) + d as i64;
                    i += 1;
                }
            } else {
                value = 0;
                let octal = c == '0' && i + 1 < n && b[i + 1].is_ascii_digit();
                let base = if octal { 8 } else { 10 };
                while i < n && b[i].is_ascii_digit() {
                    value = value.wrapping_mul(base) + (b[i] as i64 - '0' as i64);
                    i += 1;
                }
                let _ = start;
            }
            // unsigned suffix accepted and ignored
            while i < n && matches!(b[i], 'u' | 'U' | 'l' | 'L') {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Num(value),
                line,
                col,
            });
            continue;
        }
        // char literal
        if c == '\'' {
            i += 1;
            let v = if i < n && b[i] == '\\' {
                i += 1;
                let e = b.get(i).copied().unwrap_or('\0');
                i += 1;
                match e {
                    'n' => 10,
                    't' => 9,
                    'r' => 13,
                    '0' => 0,
                    '\\' => 92,
                    '\'' => 39,
                    other => other as i64,
                }
            } else {
                let v = b.get(i).copied().unwrap_or('\0') as i64;
                i += 1;
                v
            };
            if i < n && b[i] == '\'' {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Num(v),
                line,
                col,
            });
            continue;
        }
        // identifiers / keywords
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            let tok = match word.as_str() {
                "void" => Tok::Kw(Kw::Void),
                "char" => Tok::Kw(Kw::Char),
                "short" => Tok::Kw(Kw::Short),
                "int" => Tok::Kw(Kw::Int),
                "long" => Tok::Kw(Kw::Int), // long == int on this 32-bit target
                "unsigned" => Tok::Kw(Kw::Unsigned),
                "signed" => Tok::Kw(Kw::Signed),
                "if" => Tok::Kw(Kw::If),
                "else" => Tok::Kw(Kw::Else),
                "while" => Tok::Kw(Kw::While),
                "do" => Tok::Kw(Kw::Do),
                "for" => Tok::Kw(Kw::For),
                "return" => Tok::Kw(Kw::Return),
                "break" => Tok::Kw(Kw::Break),
                "continue" => Tok::Kw(Kw::Continue),
                "switch" => Tok::Kw(Kw::Switch),
                "case" => Tok::Kw(Kw::Case),
                "default" => Tok::Kw(Kw::Default),
                "const" => Tok::Kw(Kw::Const),
                _ => Tok::Ident(word),
            };
            out.push(Token { tok, line, col });
            continue;
        }
        // operators, longest match first
        const THREE: [&str; 2] = ["<<=", ">>="];
        const TWO: [&str; 17] = [
            "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=",
            "|=", "^=", "++",
        ];
        let rest: String = b[i..n.min(i + 3)].iter().collect();
        let mut matched = None;
        for t in THREE {
            if rest.starts_with(t) {
                matched = Some(t);
                break;
            }
        }
        if matched.is_none() {
            for t in TWO {
                if rest.starts_with(t) {
                    matched = Some(t);
                    break;
                }
            }
            if matched.is_none() && rest.starts_with("--") {
                matched = Some("--");
            }
        }
        if let Some(m) = matched {
            out.push(Token {
                tok: Tok::Punct(m),
                line,
                col,
            });
            i += m.len();
            continue;
        }
        const ONE: [&str; 23] = [
            "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "(", ")", "{",
            "}", "[", "]", ";", ",", "?", ":",
        ];
        if let Some(&stat) = ONE.iter().find(|s| s.starts_with(c)) {
            out.push(Token {
                tok: Tok::Punct(stat),
                line,
                col,
            });
            i += 1;
            continue;
        }
        return Err(LexError { ch: c, line, col });
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
        col: (n - line_start + 1) as u32,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers_in_all_bases() {
        assert_eq!(
            kinds("42 0x2a 052 'a' '\\n' 10u"),
            vec![
                Tok::Num(42),
                Tok::Num(42),
                Tok::Num(42),
                Tok::Num(97),
                Tok::Num(10),
                Tok::Num(10),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("int interop"),
            vec![Tok::Kw(Kw::Int), Tok::Ident("interop".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a <<= b >> c >= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<<="),
                Tok::Ident("b".into()),
                Tok::Punct(">>"),
                Tok::Ident("c".into()),
                Tok::Punct(">="),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            kinds("i++ + ++j"),
            vec![
                Tok::Ident("i".into()),
                Tok::Punct("++"),
                Tok::Punct("+"),
                Tok::Punct("++"),
                Tok::Ident("j".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped_and_lines_counted() {
        let toks = lex("a // c1\n/* c2\nc3 */ b").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].tok, Tok::Ident("b".into()));
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn bad_character_errors() {
        let err = lex("int @x;").unwrap_err();
        assert_eq!(err.ch, '@');
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 5);
        assert!(err.to_string().contains('@'));
        assert!(err.to_string().contains("column 5"));
    }

    #[test]
    fn columns_reset_per_line() {
        let err = lex("int x;\n  y = $;").unwrap_err();
        assert_eq!(err.ch, '$');
        assert_eq!(err.line, 2);
        assert_eq!(err.col, 7);
        let toks = lex("a\n  bb").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
