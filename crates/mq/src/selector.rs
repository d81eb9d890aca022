//! JMS-style message selectors.
//!
//! A selector is a SQL-92-flavoured boolean expression over message
//! properties and a few header pseudo-properties. Receivers pass a selector
//! to consume only matching messages — the conditional-messaging layer uses
//! this to pick acknowledgments for a particular conditional message off the
//! shared `DS.ACK.Q` (paper §2.5: "incoming acknowledgment messages must be
//! sorted with respect to the conditional message they address").
//!
//! Supported syntax: comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`),
//! arithmetic (`+ - * /`), `AND` / `OR` / `NOT`, `BETWEEN .. AND ..`,
//! `IN ('a', 'b')`, `LIKE 'pat%' [ESCAPE 'c']`, `IS [NOT] NULL`, string
//! literals in single quotes, and the header pseudo-properties `priority`,
//! `persistent`, `redelivered`, `redelivery_count` and `correlation_id`.
//!
//! Evaluation follows SQL three-valued logic: any comparison involving an
//! absent property is *unknown*, and a message matches only if the whole
//! expression evaluates to *true*.
//!
//! # Examples
//!
//! ```
//! use mq::{Message, selector::Selector};
//!
//! let sel = Selector::parse("kind = 'flight' AND altitude > 10000")?;
//! let msg = Message::text("…")
//!     .property("kind", "flight")
//!     .property("altitude", 31000i64)
//!     .build();
//! assert!(sel.matches(&msg));
//! # Ok::<(), mq::selector::SelectorError>(())
//! ```

use std::fmt;

use crate::message::{Message, PropertyValue};

/// Error produced when a selector fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorError {
    /// Byte position in the input where the error was detected.
    pub position: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for SelectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at position {}", self.reason, self.position)
    }
}

impl std::error::Error for SelectorError {}

/// A parsed, reusable message selector.
#[derive(Debug, Clone)]
pub struct Selector {
    expr: Expr,
    source: String,
}

impl Selector {
    /// Parses a selector expression.
    ///
    /// # Errors
    ///
    /// Returns [`SelectorError`] when the expression is syntactically
    /// invalid; the error carries the offending byte position.
    pub fn parse(input: &str) -> Result<Selector, SelectorError> {
        let tokens = lex(input)?;
        let mut parser = Parser { tokens, pos: 0 };
        let expr = parser.parse_or()?;
        if parser.pos != parser.tokens.len() {
            return Err(SelectorError {
                position: parser.current_position(),
                reason: format!("unexpected trailing token {:?}", parser.peek_kind()),
            });
        }
        Ok(Selector {
            expr,
            source: input.to_owned(),
        })
    }

    /// Evaluates the selector against a message.
    ///
    /// Returns `true` only when the expression evaluates to SQL *true*;
    /// *false* and *unknown* both reject the message.
    pub fn matches(&self, msg: &Message) -> bool {
        matches!(self.expr.eval(msg), Value::Bool(true))
    }

    /// The original selector text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The correlation id every matching message carries, when the
    /// selector pins one: the string literal of a `correlation_id = '…'`
    /// reachable through top-level `AND`s. A message without that id
    /// cannot match (equality against `NULL` is *unknown*), so the queue's
    /// correlation index holds every candidate.
    pub(crate) fn pinned_correlation(&self) -> Option<&str> {
        fn pinned(expr: &Expr) -> Option<&str> {
            match expr {
                Expr::And(l, r) => pinned(l).or_else(|| pinned(r)),
                Expr::Cmp(CmpOp::Eq, l, r) => match (&**l, &**r) {
                    (Expr::Ident(name), Expr::LitStr(id)) | (Expr::LitStr(id), Expr::Ident(name))
                        if name == "correlation_id" =>
                    {
                        Some(id)
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        pinned(&self.expr)
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

// ---------------------------------------------------------------- lexing --

#[derive(Debug, Clone, PartialEq)]
enum TokenKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    And,
    Or,
    Not,
    Between,
    In,
    Like,
    Escape,
    Is,
    Null,
    True,
    False,
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: TokenKind,
    position: usize,
}

fn lex(input: &str) -> Result<Vec<Token>, SelectorError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    position: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    position: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    position: start,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    position: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    position: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    position: start,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    position: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    position: start,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Neq,
                        position: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        position: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        position: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        position: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        position: start,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(SelectorError {
                                position: start,
                                reason: "unterminated string literal".into(),
                            })
                        }
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    position: start,
                });
            }
            '0'..='9' | '.' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() {
                    match bytes[end] as char {
                        '0'..='9' => end += 1,
                        '.' if !is_float => {
                            is_float = true;
                            end += 1;
                        }
                        _ => break,
                    }
                }
                let text = &input[i..end];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| SelectorError {
                        position: start,
                        reason: format!("invalid numeric literal '{text}'"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| SelectorError {
                        position: start,
                        reason: format!("invalid numeric literal '{text}'"),
                    })?)
                };
                tokens.push(Token {
                    kind,
                    position: start,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len() {
                    let c = bytes[end] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[i..end];
                let kind = match word.to_ascii_uppercase().as_str() {
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    "NOT" => TokenKind::Not,
                    "BETWEEN" => TokenKind::Between,
                    "IN" => TokenKind::In,
                    "LIKE" => TokenKind::Like,
                    "ESCAPE" => TokenKind::Escape,
                    "IS" => TokenKind::Is,
                    "NULL" => TokenKind::Null,
                    "TRUE" => TokenKind::True,
                    "FALSE" => TokenKind::False,
                    _ => TokenKind::Ident(word.to_owned()),
                };
                tokens.push(Token {
                    kind,
                    position: start,
                });
                i = end;
            }
            other => {
                return Err(SelectorError {
                    position: start,
                    reason: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(tokens)
}

// --------------------------------------------------------------- parsing --

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Ident(String),
    LitI64(i64),
    LitF64(f64),
    LitStr(String),
    LitBool(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    IsNull(Box<Expr>, /*negated*/ bool),
    Between {
        value: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    In {
        value: Box<Expr>,
        set: Vec<String>,
        negated: bool,
    },
    Like {
        value: Box<Expr>,
        pattern: String,
        escape: Option<char>,
        negated: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek_kind(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn current_position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.position)
            .unwrap_or(0)
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let kind = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if kind.is_some() {
            self.pos += 1;
        }
        kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), SelectorError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn error(&self, reason: String) -> SelectorError {
        SelectorError {
            position: self.current_position(),
            reason,
        }
    }

    fn parse_or(&mut self) -> Result<Expr, SelectorError> {
        let mut left = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SelectorError> {
        let mut left = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SelectorError> {
        if self.eat(&TokenKind::Not) {
            let inner = self.parse_not()?;
            Ok(Expr::Not(Box::new(inner)))
        } else {
            self.parse_predicate()
        }
    }

    fn parse_predicate(&mut self) -> Result<Expr, SelectorError> {
        let left = self.parse_sum()?;
        let negated = self.eat(&TokenKind::Not);
        match self.peek_kind() {
            Some(TokenKind::Eq) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Eq, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Neq) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Neq, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Lt) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Lt, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Le) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Le, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Gt) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Gt, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Ge) if !negated => {
                self.pos += 1;
                let right = self.parse_sum()?;
                Ok(Expr::Cmp(CmpOp::Ge, Box::new(left), Box::new(right)))
            }
            Some(TokenKind::Between) => {
                self.pos += 1;
                let low = self.parse_sum()?;
                self.expect(&TokenKind::And, "AND in BETWEEN")?;
                let high = self.parse_sum()?;
                Ok(Expr::Between {
                    value: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                })
            }
            Some(TokenKind::In) => {
                self.pos += 1;
                self.expect(&TokenKind::LParen, "'(' after IN")?;
                let mut set = Vec::new();
                loop {
                    match self.advance() {
                        Some(TokenKind::Str(s)) => set.push(s),
                        _ => return Err(self.error("expected string literal in IN list".into())),
                    }
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    self.expect(&TokenKind::Comma, "',' or ')' in IN list")?;
                }
                Ok(Expr::In {
                    value: Box::new(left),
                    set,
                    negated,
                })
            }
            Some(TokenKind::Like) => {
                self.pos += 1;
                let pattern = match self.advance() {
                    Some(TokenKind::Str(s)) => s,
                    _ => return Err(self.error("expected string literal after LIKE".into())),
                };
                let escape = if self.eat(&TokenKind::Escape) {
                    match self.advance() {
                        Some(TokenKind::Str(s)) if s.chars().count() == 1 => s.chars().next(),
                        _ => {
                            return Err(
                                self.error("ESCAPE requires a single-character string".into())
                            )
                        }
                    }
                } else {
                    None
                };
                Ok(Expr::Like {
                    value: Box::new(left),
                    pattern,
                    escape,
                    negated,
                })
            }
            Some(TokenKind::Is) if !negated => {
                self.pos += 1;
                let is_not = self.eat(&TokenKind::Not);
                self.expect(&TokenKind::Null, "NULL after IS")?;
                Ok(Expr::IsNull(Box::new(left), is_not))
            }
            _ if negated => Err(self.error("expected BETWEEN, IN or LIKE after NOT".into())),
            _ => Ok(left),
        }
    }

    fn parse_sum(&mut self) -> Result<Expr, SelectorError> {
        let mut left = self.parse_product()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                let right = self.parse_product()?;
                left = Expr::Arith(ArithOp::Add, Box::new(left), Box::new(right));
            } else if self.eat(&TokenKind::Minus) {
                let right = self.parse_product()?;
                left = Expr::Arith(ArithOp::Sub, Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_product(&mut self) -> Result<Expr, SelectorError> {
        let mut left = self.parse_unary()?;
        loop {
            if self.eat(&TokenKind::Star) {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Mul, Box::new(left), Box::new(right));
            } else if self.eat(&TokenKind::Slash) {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Div, Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, SelectorError> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        if self.eat(&TokenKind::Plus) {
            return self.parse_unary();
        }
        match self.advance() {
            Some(TokenKind::Ident(name)) => Ok(Expr::Ident(name)),
            Some(TokenKind::Int(v)) => Ok(Expr::LitI64(v)),
            Some(TokenKind::Float(v)) => Ok(Expr::LitF64(v)),
            Some(TokenKind::Str(s)) => Ok(Expr::LitStr(s)),
            Some(TokenKind::True) => Ok(Expr::LitBool(true)),
            Some(TokenKind::False) => Ok(Expr::LitBool(false)),
            Some(TokenKind::LParen) => {
                let inner = self.parse_or()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(inner)
            }
            other => Err(self.error(format!("expected value, found {other:?}"))),
        }
    }
}

// ------------------------------------------------------------ evaluation --

/// SQL three-valued runtime value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    I64(i64),
    F64(f64),
    Str(String),
}

impl Value {
    fn truth(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Expr {
    fn eval(&self, msg: &Message) -> Value {
        match self {
            Expr::Ident(name) => lookup(msg, name),
            Expr::LitI64(v) => Value::I64(*v),
            Expr::LitF64(v) => Value::F64(*v),
            Expr::LitStr(s) => Value::Str(s.clone()),
            Expr::LitBool(b) => Value::Bool(*b),
            Expr::Not(inner) => match inner.eval(msg).truth() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::And(l, r) => match (l.eval(msg).truth(), r.eval(msg).truth()) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            Expr::Or(l, r) => match (l.eval(msg).truth(), r.eval(msg).truth()) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            Expr::Cmp(op, l, r) => compare(*op, l.eval(msg), r.eval(msg)),
            Expr::Arith(op, l, r) => arith(*op, l.eval(msg), r.eval(msg)),
            Expr::Neg(inner) => match inner.eval(msg) {
                Value::I64(v) => Value::I64(-v),
                Value::F64(v) => Value::F64(-v),
                _ => Value::Null,
            },
            Expr::IsNull(inner, negated) => {
                let is_null = matches!(inner.eval(msg), Value::Null);
                Value::Bool(is_null != *negated)
            }
            Expr::Between {
                value,
                low,
                high,
                negated,
            } => {
                let v = value.eval(msg);
                let ge = compare(CmpOp::Ge, v.clone(), low.eval(msg));
                let le = compare(CmpOp::Le, v, high.eval(msg));
                match (ge.truth(), le.truth()) {
                    (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                    _ => Value::Null,
                }
            }
            Expr::In {
                value,
                set,
                negated,
            } => match value.eval(msg) {
                Value::Str(s) => Value::Bool(set.contains(&s) != *negated),
                Value::Null => Value::Null,
                _ => Value::Null,
            },
            Expr::Like {
                value,
                pattern,
                escape,
                negated,
            } => match value.eval(msg) {
                Value::Str(s) => Value::Bool(like_match(&s, pattern, *escape) != *negated),
                Value::Null => Value::Null,
                _ => Value::Null,
            },
        }
    }
}

fn lookup(msg: &Message, name: &str) -> Value {
    match name {
        "priority" => Value::I64(i64::from(msg.priority().level())),
        "persistent" => Value::Bool(msg.is_persistent()),
        "redelivered" => Value::Bool(msg.redelivery_count() > 0),
        "redelivery_count" => Value::I64(i64::from(msg.redelivery_count())),
        "correlation_id" => match msg.correlation_id() {
            Some(s) => Value::Str(s.to_owned()),
            None => Value::Null,
        },
        _ => match msg.property(name) {
            Some(PropertyValue::Str(s)) => Value::Str(s.clone()),
            Some(PropertyValue::I64(v)) => Value::I64(*v),
            Some(PropertyValue::F64(v)) => Value::F64(*v),
            Some(PropertyValue::Bool(b)) => Value::Bool(*b),
            None => Value::Null,
        },
    }
}

fn compare(op: CmpOp, l: Value, r: Value) -> Value {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (&l, &r) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::I64(a), Value::I64(b)) => Some(a.cmp(b)),
        (Value::I64(a), Value::F64(b)) => (*a as f64).partial_cmp(b),
        (Value::F64(a), Value::I64(b)) => a.partial_cmp(&(*b as f64)),
        (Value::F64(a), Value::F64(b)) => a.partial_cmp(b),
        (Value::Str(a), Value::Str(b)) => match op {
            // JMS restricts strings to equality comparison.
            CmpOp::Eq | CmpOp::Neq => Some(a.cmp(b)),
            _ => None,
        },
        (Value::Bool(a), Value::Bool(b)) => match op {
            CmpOp::Eq | CmpOp::Neq => Some(a.cmp(b)),
            _ => None,
        },
        // Cross-type comparisons are unknown.
        _ => None,
    };
    match ord {
        None => Value::Null,
        Some(ord) => {
            let result = match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Neq => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            };
            Value::Bool(result)
        }
    }
}

fn arith(op: ArithOp, l: Value, r: Value) -> Value {
    match (l, r) {
        (Value::I64(a), Value::I64(b)) => match op {
            ArithOp::Add => Value::I64(a.wrapping_add(b)),
            ArithOp::Sub => Value::I64(a.wrapping_sub(b)),
            ArithOp::Mul => Value::I64(a.wrapping_mul(b)),
            ArithOp::Div => {
                if b == 0 {
                    Value::Null
                } else {
                    Value::I64(a.wrapping_div(b))
                }
            }
        },
        (a, b) => match (to_f64(a), to_f64(b)) {
            (Some(a), Some(b)) => match op {
                ArithOp::Add => Value::F64(a + b),
                ArithOp::Sub => Value::F64(a - b),
                ArithOp::Mul => Value::F64(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::F64(a / b)
                    }
                }
            },
            _ => Value::Null,
        },
    }
}

fn to_f64(v: Value) -> Option<f64> {
    match v {
        Value::I64(a) => Some(a as f64),
        Value::F64(a) => Some(a),
        _ => None,
    }
}

/// SQL `LIKE` matching with `%` (any run), `_` (any one char) and an
/// optional escape character.
fn like_match(s: &str, pattern: &str, escape: Option<char>) -> bool {
    fn inner(s: &[char], p: &[(char, bool)]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(&('%', false)) => {
                // Try consuming 0..=len chars.
                (0..=s.len()).any(|k| inner(&s[k..], &p[1..]))
            }
            Some(&('_', false)) => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(&(c, _)) => s.first() == Some(&c) && inner(&s[1..], &p[1..]),
        }
    }
    // Pre-process pattern into (char, literal?) pairs honouring the escape.
    let mut processed: Vec<(char, bool)> = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        if Some(c) == escape {
            if let Some(next) = chars.next() {
                processed.push((next, true));
            }
        } else {
            processed.push((c, false));
        }
    }
    let s: Vec<char> = s.chars().collect();
    inner(&s, &processed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Priority;

    fn msg() -> Message {
        Message::text("body")
            .property("kind", "flight")
            .property("altitude", 31_000i64)
            .property("speed", 450.5f64)
            .property("urgent", true)
            .property("callsign", "UA17")
            .priority(Priority::new(7))
            .persistent(true)
            .correlation_id("corr-9")
            .build()
    }

    fn matches(sel: &str) -> bool {
        Selector::parse(sel).expect("parse").matches(&msg())
    }

    #[test]
    fn equality_and_inequality() {
        assert!(matches("kind = 'flight'"));
        assert!(!matches("kind = 'train'"));
        assert!(matches("kind <> 'train'"));
        assert!(matches("altitude = 31000"));
        assert!(matches("urgent = TRUE"));
        assert!(matches("urgent <> FALSE"));
    }

    #[test]
    fn numeric_ordering() {
        assert!(matches("altitude > 10000"));
        assert!(matches("altitude >= 31000"));
        assert!(!matches("altitude > 31000"));
        assert!(matches("altitude < 40000"));
        assert!(matches("speed <= 450.5"));
        assert!(matches("speed > 450"));
    }

    #[test]
    fn mixed_int_float_comparison() {
        assert!(matches("altitude > 30999.5"));
        assert!(matches("speed < 451"));
    }

    #[test]
    fn arithmetic() {
        assert!(matches("altitude + 1000 = 32000"));
        assert!(matches("altitude - 1000 = 30000"));
        assert!(matches("altitude * 2 = 62000"));
        assert!(matches("altitude / 2 = 15500"));
        assert!(matches("-altitude = -31000"));
        assert!(matches("altitude / 2.0 = 15500.0"));
    }

    #[test]
    fn division_by_zero_is_unknown() {
        assert!(!matches("altitude / 0 = 1"));
        assert!(
            !matches("NOT (altitude / 0 = 1)"),
            "unknown stays unknown under NOT"
        );
    }

    #[test]
    fn boolean_connectives() {
        assert!(matches("kind = 'flight' AND altitude > 0"));
        assert!(!matches("kind = 'flight' AND altitude < 0"));
        assert!(matches("kind = 'train' OR altitude > 0"));
        assert!(matches("NOT kind = 'train'"));
        assert!(matches("(kind = 'train' OR urgent) AND persistent"));
    }

    #[test]
    fn three_valued_logic_with_missing_property() {
        // `missing` is NULL: comparisons are unknown.
        assert!(!matches("missing = 1"));
        assert!(!matches("missing <> 1"), "NULL <> x is unknown, not true");
        assert!(!matches("NOT missing = 1"));
        // But false AND unknown = false → NOT gives true.
        assert!(matches("NOT (missing = 1 AND kind = 'train')"));
        // true OR unknown = true.
        assert!(matches("kind = 'flight' OR missing = 1"));
    }

    #[test]
    fn is_null_predicates() {
        assert!(matches("missing IS NULL"));
        assert!(!matches("kind IS NULL"));
        assert!(matches("kind IS NOT NULL"));
        assert!(!matches("missing IS NOT NULL"));
    }

    #[test]
    fn between_predicate() {
        assert!(matches("altitude BETWEEN 30000 AND 32000"));
        assert!(matches("altitude BETWEEN 31000 AND 31000"));
        assert!(!matches("altitude BETWEEN 0 AND 30000"));
        assert!(matches("altitude NOT BETWEEN 0 AND 30000"));
        assert!(!matches("missing BETWEEN 0 AND 1"));
    }

    #[test]
    fn in_predicate() {
        assert!(matches("kind IN ('flight', 'train')"));
        assert!(!matches("kind IN ('train', 'bus')"));
        assert!(matches("kind NOT IN ('train', 'bus')"));
        assert!(!matches("missing IN ('a')"));
    }

    #[test]
    fn like_predicate() {
        assert!(matches("callsign LIKE 'UA%'"));
        assert!(matches("callsign LIKE '_A17'"));
        assert!(matches("callsign LIKE '%17'"));
        assert!(!matches("callsign LIKE 'BA%'"));
        assert!(matches("callsign NOT LIKE 'BA%'"));
        assert!(matches("callsign LIKE 'UA17'"));
        assert!(matches("callsign LIKE '%'"));
    }

    #[test]
    fn like_with_escape() {
        let m = Message::text("x").property("code", "100%_done").build();
        let sel = Selector::parse("code LIKE '100!%!_done' ESCAPE '!'").unwrap();
        assert!(sel.matches(&m));
        let sel2 = Selector::parse("code LIKE '100!%!_gone' ESCAPE '!'").unwrap();
        assert!(!sel2.matches(&m));
    }

    #[test]
    fn header_pseudo_properties() {
        assert!(matches("priority = 7"));
        assert!(matches("priority >= 5 AND persistent"));
        assert!(matches("correlation_id = 'corr-9'"));
        assert!(!matches("redelivered"));
        assert!(matches("redelivery_count = 0"));
        let plain = Message::text("x").build();
        let sel = Selector::parse("correlation_id IS NULL").unwrap();
        assert!(sel.matches(&plain));
    }

    #[test]
    fn only_an_anded_correlation_equality_pins_a_correlation_id() {
        let pinned = |src: &str| {
            let sel = Selector::parse(src).unwrap();
            sel.pinned_correlation().map(str::to_owned)
        };
        assert_eq!(pinned("correlation_id = 'c'").as_deref(), Some("c"));
        assert_eq!(pinned("leaf = 2 AND ('c' = correlation_id AND k = 1)").as_deref(), Some("c"));
        assert_eq!(pinned("correlation_id = 'c' OR leaf = 2"), None);
        assert_eq!(pinned("NOT correlation_id = 'c'"), None);
        assert_eq!(pinned("correlation_id <> 'c'"), None);
        assert_eq!(pinned("correlation_id = 7"), None);
        assert_eq!(pinned("kind = 'c'"), None);
    }

    #[test]
    fn string_literal_escaping() {
        let m = Message::text("x").property("note", "it's ok").build();
        let sel = Selector::parse("note = 'it''s ok'").unwrap();
        assert!(sel.matches(&m));
    }

    #[test]
    fn string_ordering_is_unknown() {
        // JMS allows only equality on strings.
        assert!(!matches("kind > 'a'"));
        assert!(!matches("kind < 'zzz'"));
    }

    #[test]
    fn cross_type_comparison_is_unknown() {
        assert!(!matches("kind = 3"));
        assert!(!matches("altitude = 'flight'"));
        assert!(!matches("urgent = 1"));
    }

    #[test]
    fn parse_errors_carry_positions() {
        for (input, needle) in [
            ("", "expected value"),
            ("a = ", "expected value"),
            ("a = 'x", "unterminated string"),
            ("a ~ 1", "unexpected character"),
            ("a BETWEEN 1 2", "expected AND"),
            ("a IN (1)", "expected string literal"),
            ("a LIKE 5", "expected string literal"),
            ("a LIKE 'x' ESCAPE 'ab'", "single-character"),
            ("a = 1 b = 2", "trailing token"),
            ("a NOT 5", "expected BETWEEN, IN or LIKE"),
            ("a IS 5", "NULL after IS"),
        ] {
            let err = Selector::parse(input).expect_err(input);
            assert!(
                err.reason.contains(needle),
                "input {input:?}: reason {:?} missing {needle:?}",
                err.reason
            );
        }
    }

    #[test]
    fn selector_reuse_and_display() {
        let sel = Selector::parse("priority > 3").unwrap();
        assert_eq!(sel.source(), "priority > 3");
        assert_eq!(sel.to_string(), "priority > 3");
        for p in 0..=9u8 {
            let m = Message::text("x").priority(Priority::new(p)).build();
            assert_eq!(sel.matches(&m), p > 3);
        }
    }

    #[test]
    fn operator_precedence() {
        // AND binds tighter than OR; arithmetic tighter than comparison.
        assert!(matches(
            "kind = 'train' OR kind = 'flight' AND altitude > 0"
        ));
        assert!(matches("altitude + 1000 * 2 = 33000"));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(matches(
            "kind = 'flight' and NOT (urgent = false) Or missing is null"
        ));
    }

    #[test]
    fn empty_and_blank_selectors_are_parse_errors() {
        for input in ["", "   ", "\t\r\n", "()"] {
            let err = Selector::parse(input).expect_err(input);
            assert!(
                err.reason.contains("expected value"),
                "input {input:?}: reason {:?}",
                err.reason
            );
        }
        // A bare parenthesized value is fine, though.
        assert!(matches("(urgent)"));
    }

    #[test]
    fn precedence_not_binds_tighter_than_and() {
        // NOT (kind = 'train') AND urgent — not NOT(... AND ...).
        assert!(matches("NOT kind = 'train' AND urgent"));
        // If NOT had scoped over the conjunction this would be true.
        assert!(!matches("NOT kind = 'flight' AND urgent"));
        assert!(matches("NOT (kind = 'flight' AND urgent) OR persistent"));
        assert!(matches("NOT NOT urgent"));
    }

    #[test]
    fn precedence_parens_override_or_and() {
        // Without parens: OR(train, AND(flight, neg)) → false OR false.
        assert!(!matches("kind = 'train' OR kind = 'flight' AND altitude < 0"));
        // With parens the OR settles first and the AND sees true.
        assert!(matches(
            "(kind = 'train' OR kind = 'flight') AND altitude > 0"
        ));
    }

    #[test]
    fn arithmetic_associativity_and_unary() {
        // Left-assoc: (31000 - 1000) - 30000 = 0, not 31000 - (1000 - 30000).
        assert!(matches("altitude - 1000 - 30000 = 0"));
        assert!(matches("altitude / 2 / 2 = 7750"));
        // Unary minus binds tighter than the product.
        assert!(matches("-altitude * 2 = -62000"));
        assert!(matches("+altitude = 31000"));
        // Sum of products, not product of sums.
        assert!(matches("altitude + 1000 * 2 = 33000"));
        assert!(matches("(altitude + 1000) * 2 = 64000"));
    }

    #[test]
    fn type_mismatch_ordering_and_predicates_are_unknown() {
        // Ordering on booleans is not defined, even though equality is.
        assert!(!matches("urgent > FALSE"));
        assert!(matches("urgent = TRUE"));
        // BETWEEN inherits string-ordering undefinedness.
        assert!(!matches("kind BETWEEN 'a' AND 'z'"));
        // IN and LIKE apply to strings only; numeric values are unknown.
        assert!(!matches("altitude IN ('31000')"));
        assert!(!matches("altitude LIKE '3%'"));
        assert!(!matches("urgent LIKE 't%'"));
        // Arithmetic on non-numbers is unknown, and stays unknown upward.
        assert!(!matches("kind + 1 = 2"));
        assert!(!matches("NOT kind + 1 = 2"));
        // Negating a string or bool is unknown.
        assert!(!matches("-kind = 0"));
        assert!(!matches("-urgent = 0"));
    }

    #[test]
    fn numeric_literal_lexer_edge_cases() {
        // A lone dot fails to lex as a number.
        let err = Selector::parse("a = .").expect_err("lone dot");
        assert!(err.reason.contains("invalid numeric literal"));
        // A second dot ends the literal; "1.2.3" lexes as 1.2 then .3,
        // which then fails as a trailing token.
        let err = Selector::parse("a = 1.2.3").expect_err("double dot");
        assert!(err.reason.contains("trailing token"));
        // Trailing-dot floats are accepted ("1." = 1.0).
        let m = Message::text("x").property("v", 1.0f64).build();
        assert!(Selector::parse("v = 1.").unwrap().matches(&m));
    }

    #[test]
    fn not_before_is_null_is_rejected() {
        // SQL spells it "x IS NOT NULL"; "x NOT IS NULL" is a parse error.
        let err = Selector::parse("a NOT IS NULL").expect_err("NOT IS");
        assert!(err.reason.contains("expected BETWEEN, IN or LIKE"));
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parser_never_panics(input in "[ -~]{0,64}") {
                let _ = Selector::parse(&input);
            }

            #[test]
            fn like_self_match(s in "[a-z]{0,12}") {
                // Every string matches itself as a pattern with no wildcards.
                prop_assert!(like_match(&s, &s, None));
                // And matches the universal pattern.
                prop_assert!(like_match(&s, "%", None));
            }

            #[test]
            fn integer_comparisons_agree_with_rust(a in -1000i64..1000, b in -1000i64..1000) {
                let m = Message::text("x").property("v", a).build();
                let sel = Selector::parse(&format!("v < {b}")).unwrap();
                prop_assert_eq!(sel.matches(&m), a < b);
                let sel = Selector::parse(&format!("v >= {b}")).unwrap();
                prop_assert_eq!(sel.matches(&m), a >= b);
                let sel = Selector::parse(&format!("v = {b}")).unwrap();
                prop_assert_eq!(sel.matches(&m), a == b);
            }
        }
    }
}
