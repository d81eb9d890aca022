//! Lightweight Rust item/statement parser for the cond-verify passes.
//!
//! This is **not** a full Rust parser. It recovers exactly the structure
//! the verify passes need: struct field tables (to identify lock
//! fields and resolve receiver chains), impl blocks (method ownership and
//! trait implementations), and function bodies as a statement skeleton
//! with *events* — method/function calls with receiver chains, moved
//! arguments, and literal arguments. Everything it does not understand it
//! skips with balanced-delimiter scanning, so unknown syntax degrades to
//! "no events" rather than a parse failure. Soundness caveats are
//! documented in DESIGN.md §14.

use crate::lexer::{matching, Annotation, Tok, Token};

/// A parsed source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Path relative to the scan root (as printed in findings).
    pub path: String,
    /// Structs/enums declared in the file.
    pub structs: Vec<StructDef>,
    /// Trait names declared in the file.
    pub traits: Vec<String>,
    /// `impl Trait for Type` pairs.
    pub trait_impls: Vec<(String, String)>,
    /// Functions (free, inherent, trait-impl, and trait-default).
    pub fns: Vec<FnDef>,
    /// Registry declarations (`// lint: registry <kind>` on consts).
    pub registries: Vec<RegistryDecl>,
    /// Registry sinks (`// lint: registry-sink <kind>` on items).
    pub sinks: Vec<SinkDecl>,
    /// Every `// lint:` annotation in the file (for free-floating forms
    /// such as `never-hold` and trailing `custody-ok`).
    pub annotations: Vec<Annotation>,
}

/// A struct or enum declaration.
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields as `(name, type-string)`; empty for enums/tuples.
    pub fields: Vec<(String, String)>,
}

/// A function definition or trait-method signature.
#[derive(Debug)]
pub struct FnDef {
    /// File path (same as the owning [`ParsedFile::path`]).
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Impl/trait owner type, if any.
    pub owner: Option<String>,
    /// Trait name when inside `impl Trait for Owner`.
    pub trait_name: Option<String>,
    /// Function name.
    pub name: String,
    /// Parameters as `(name, type-string)`; `self` params excluded.
    pub params: Vec<(String, String)>,
    /// Return type string ("" when none).
    pub ret: String,
    /// Body, when present (trait signatures have none).
    pub body: Option<Block>,
    /// `// lint:` annotations attached directly above this fn.
    pub anns: Vec<String>,
}

/// Registry declaration: the single source of truth for one kind.
#[derive(Debug)]
pub struct RegistryDecl {
    /// Registry kind (`metric-name`, `trace-stage`, `journal-tag`, …).
    pub kind: String,
    /// File path.
    pub path: String,
    /// Line of the declaration.
    pub line: u32,
    /// String entries with their lines.
    pub strs: Vec<(String, u32)>,
    /// Integer entries with their lines.
    pub ints: Vec<(u64, u32)>,
}

/// Registry sink: an item whose literals are emissions of a kind.
#[derive(Debug)]
pub struct SinkDecl {
    /// Registry kind.
    pub kind: String,
    /// File path.
    pub path: String,
    /// String literals in the item with their lines.
    pub strs: Vec<(String, u32)>,
    /// Tag-position integer literals (`put_u8(N)` args and ints adjacent
    /// to `=>`) with their lines.
    pub ints: Vec<(u64, u32)>,
}

/// A `{ … }` block of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement (or statement-position control-flow construct).
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> = <expr>;` (optionally `else { … }`).
    Let {
        /// Lowercase idents bound by the pattern.
        bindings: Vec<String>,
        /// Call/drop events in the initializer, in source order.
        events: Vec<Event>,
        /// Bare idents in the initializer (for move-into-ctor analysis).
        idents: Vec<String>,
        /// Whether the initializer contains a `?`.
        has_try: bool,
        /// `else { … }` diverging block of a let-else.
        else_block: Option<Block>,
        /// Line of the `let`.
        line: u32,
    },
    /// Expression statement (or tail expression).
    Expr {
        /// Events in source order.
        events: Vec<Event>,
        /// Bare idents (see [`Stmt::Let::idents`]).
        idents: Vec<String>,
        /// Whether the expression contains a `?`.
        has_try: bool,
        /// True when this is the function's (or arm's) tail expression.
        tail: bool,
        /// Line the expression starts on.
        line: u32,
    },
    /// `return …;`
    Return {
        /// Events in the returned expression.
        events: Vec<Event>,
        /// Bare idents in the returned expression.
        idents: Vec<String>,
        /// First ident of the expression (`Err`, `Ok`, …), if any.
        first: Option<String>,
        /// Whether the expression contains a `?`.
        has_try: bool,
        /// Line of the `return`.
        line: u32,
    },
    /// `break …;` (value/label ignored).
    Break {
        /// Line of the `break`.
        line: u32,
    },
    /// `continue;`
    Continue {
        /// Line of the `continue`.
        line: u32,
    },
    /// `if <cond> { … } else { … }` (incl. `if let`).
    If {
        /// Events in the condition.
        cond: Vec<Event>,
        /// Whether the condition contains a `?`.
        cond_try: bool,
        /// Idents bound by an `if let` pattern (live in the then-branch).
        cond_bindings: Vec<String>,
        /// Then branch.
        then_b: Block,
        /// Else branch (an `else if` becomes a nested If inside it).
        else_b: Option<Block>,
        /// Line of the `if`.
        line: u32,
    },
    /// `match <scrutinee> { arms }`.
    Match {
        /// Events in the scrutinee.
        scrutinee: Vec<Event>,
        /// Whether the scrutinee contains a `?`.
        scrutinee_try: bool,
        /// Match arms.
        arms: Vec<Arm>,
        /// Line of the `match`.
        line: u32,
    },
    /// `loop`/`while`/`for` body. For-loops synthesize a `next` call in
    /// the header so iterator pulls are visible to the lock pass.
    Loop {
        /// Events in the loop header (cond / iterated expression).
        header: Vec<Event>,
        /// Idents bound by `while let`/`for` patterns.
        bindings: Vec<String>,
        /// Loop body.
        body: Block,
        /// Line of the loop keyword.
        line: u32,
    },
    /// A bare nested `{ … }` block.
    Nested(Block),
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Lowercase idents bound by the arm pattern.
    pub bindings: Vec<String>,
    /// Arm body (expression bodies become a one-statement block).
    pub body: Block,
    /// Line the pattern starts on.
    pub line: u32,
}

/// Receiver of a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.f1.f2.method()` — the field path (may be empty).
    SelfChain(Vec<String>),
    /// `local.f1.method()` — base local variable plus field path.
    Local(String, Vec<String>),
    /// `Type::method()`.
    Type(String),
    /// Chained off a previous call: `….prev().method()`.
    Chained {
        /// Name of the call the chain continues from.
        prev: String,
    },
    /// Free function (no receiver).
    Free,
    /// Unrecognized receiver shape.
    Opaque,
}

/// A call event.
#[derive(Debug, Clone)]
pub struct Call {
    /// Method/function name.
    pub name: String,
    /// Receiver.
    pub recv: Recv,
    /// Line of the name token.
    pub line: u32,
    /// Bare single-ident arguments (potential moves).
    pub moved: Vec<String>,
    /// First string literal anywhere in the argument region.
    pub first_str: Option<String>,
    /// First integer literal that is the sole argument.
    pub only_int: Option<u64>,
    /// True when the call chain ends here (its guard, if any, is bound
    /// by the enclosing statement rather than dropped mid-expression).
    pub sticky_end: bool,
    /// True when the call sits inside a brace-bodied closure literal:
    /// it runs when the closure runs, not at the statement that builds
    /// it, so it must not be attributed to locks held here.
    pub deferred: bool,
}

/// An event inside an expression.
#[derive(Debug, Clone)]
pub enum Event {
    /// A call.
    Call(Call),
    /// `drop(var)`.
    Drop {
        /// The dropped variable.
        var: String,
        /// Line of the drop.
        line: u32,
    },
}

/// Parses one file's production tokens and annotations (see
/// [`crate::lexer::strip_test_code`]).
pub fn parse(path: &str, tokens: &[Token], annotations: Vec<Annotation>) -> ParsedFile {
    let mut p = Parser {
        t: tokens,
        i: 0,
        file: ParsedFile {
            path: path.to_owned(),
            ..ParsedFile::default()
        },
        anns: &annotations,
        ann_cursor: 0,
        last_block_range: None,
    };
    p.items(None, None);
    let mut file = p.file;
    file.annotations = annotations;
    file
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    file: ParsedFile,
    anns: &'a [Annotation],
    ann_cursor: usize,
    /// Token range of the most recently parsed fn body (for fn-level
    /// registry sinks).
    last_block_range: Option<(usize, usize)>,
}

impl Parser<'_> {
    fn tok(&self, at: usize) -> Option<&Tok> {
        self.t.get(at).map(|t| &t.tok)
    }

    fn line(&self, at: usize) -> u32 {
        self.t.get(at).map_or(0, |t| t.line)
    }

    fn is_punct(&self, at: usize, c: char) -> bool {
        matches!(self.tok(at), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident_at(&self, at: usize) -> Option<&str> {
        match self.tok(at) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// Annotations strictly before `line` that have not been consumed by
    /// an earlier item.
    fn take_anns_before(&mut self, line: u32) -> Vec<String> {
        let mut out = Vec::new();
        while self.ann_cursor < self.anns.len() && self.anns[self.ann_cursor].line < line {
            out.push(self.anns[self.ann_cursor].text.clone());
            self.ann_cursor += 1;
        }
        out
    }

    /// Skips the delimiter group opening at `self.i`, leaving `self.i`
    /// after its closer. Returns the token range covered (inclusive of
    /// delimiters).
    fn skip_group(&mut self) -> (usize, usize) {
        let start = self.i;
        self.i = (matching(self.t, start) + 1).min(self.t.len());
        (start, self.i)
    }

    /// Skips to just past the next `;` at delimiter depth 0, returning
    /// the covered range.
    fn skip_to_semi(&mut self) -> (usize, usize) {
        let start = self.i;
        let mut depth = 0isize;
        while self.i < self.t.len() {
            match self.tok(self.i) {
                Some(Tok::Punct(c)) => match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    ';' if depth <= 0 => {
                        self.i += 1;
                        return (start, self.i);
                    }
                    _ => {}
                },
                None => break,
                _ => {}
            }
            self.i += 1;
        }
        (start, self.i)
    }

    /// Skips `#[…]` / `#![…]` attributes at `self.i`.
    fn skip_attrs(&mut self) {
        while self.is_punct(self.i, '#') {
            self.i += 1;
            if self.is_punct(self.i, '!') {
                self.i += 1;
            }
            if !self.is_punct(self.i, '[') {
                break;
            }
            self.skip_group();
        }
    }

    /// Parses items until end of input or an unmatched `}` (end of the
    /// enclosing `mod`/`impl` body).
    fn items(&mut self, owner: Option<&str>, trait_name: Option<&str>) {
        while self.i < self.t.len() {
            if self.is_punct(self.i, '}') {
                return;
            }
            self.skip_attrs();
            let anns = self.take_anns_before(self.line(self.i));
            let kw = match self.ident_at(self.i) {
                Some(k) => k.to_owned(),
                None => {
                    // Stray punctuation at item level; skip it.
                    self.i += 1;
                    continue;
                }
            };
            match kw.as_str() {
                "pub" | "unsafe" | "async" | "extern" | "default" => {
                    self.i += 1;
                    // `pub(crate)` visibility argument.
                    if self.is_punct(self.i, '(') {
                        self.skip_group();
                    }
                    // Re-attach annotations to the real item keyword.
                    self.ann_cursor -= anns.len();
                    continue;
                }
                "struct" | "enum" | "union" => self.item_struct(),
                "trait" => self.item_trait(),
                "impl" => self.item_impl(&anns),
                "fn" => self.item_fn(owner, trait_name, anns),
                "mod" => self.item_mod(),
                "const" | "static" | "type" => self.item_const(&anns),
                "use" | "macro_rules" => {
                    self.i += 1;
                    if kw == "macro_rules" {
                        // macro_rules! name { … }
                        while self.i < self.t.len() && !self.is_punct(self.i, '{') {
                            self.i += 1;
                        }
                        self.skip_group();
                    } else {
                        self.skip_to_semi();
                    }
                }
                _ => {
                    self.i += 1;
                }
            }
        }
    }

    fn item_struct(&mut self) {
        self.i += 1; // struct/enum/union
        let name = self.ident_at(self.i).unwrap_or("").to_owned();
        self.i += 1;
        self.skip_generics();
        // Tuple struct `struct X(…);` or unit `struct X;`.
        if self.is_punct(self.i, '(') {
            self.skip_group();
            self.skip_to_semi();
            if !name.is_empty() {
                self.file.structs.push(StructDef { name, fields: Vec::new() });
            }
            return;
        }
        if self.is_punct(self.i, ';') {
            self.i += 1;
            if !name.is_empty() {
                self.file.structs.push(StructDef { name, fields: Vec::new() });
            }
            return;
        }
        // `where` clause then `{ fields }`.
        while self.i < self.t.len() && !self.is_punct(self.i, '{') {
            self.i += 1;
        }
        let (s, e) = self.skip_group();
        if name.is_empty() {
            return;
        }
        let fields = parse_fields(&self.t[s + 1..e.saturating_sub(1)]);
        self.file.structs.push(StructDef { name, fields });
    }

    fn item_trait(&mut self) {
        self.i += 1; // trait
        let name = self.ident_at(self.i).unwrap_or("").to_owned();
        self.i += 1;
        if !name.is_empty() {
            self.file.traits.push(name.clone());
        }
        while self.i < self.t.len() && !self.is_punct(self.i, '{') && !self.is_punct(self.i, ';') {
            self.i += 1;
        }
        if self.is_punct(self.i, ';') {
            self.i += 1;
            return;
        }
        self.i += 1; // {
        self.items(None, Some(&name));
        if self.is_punct(self.i, '}') {
            self.i += 1;
        }
    }

    fn item_impl(&mut self, anns: &[String]) {
        self.i += 1; // impl
        self.skip_generics();
        // Collect path idents up to `{`, noting a `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        while self.i < self.t.len() && !self.is_punct(self.i, '{') {
            match self.tok(self.i) {
                Some(Tok::Ident(id)) if id == "for" => seen_for = true,
                Some(Tok::Ident(id)) if id == "where" => break,
                Some(Tok::Ident(id)) if id != "dyn" && id != "mut" => {
                    if seen_for {
                        after_for.push(id.clone());
                    } else {
                        before_for.push(id.clone());
                    }
                }
                Some(Tok::Punct('<')) => {
                    // Skip generic arguments in the path.
                    let mut depth = 0isize;
                    while self.i < self.t.len() {
                        if self.is_punct(self.i, '<') {
                            depth += 1;
                        } else if self.is_punct(self.i, '>') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if self.is_punct(self.i, '{') {
                            break;
                        }
                        self.i += 1;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        while self.i < self.t.len() && !self.is_punct(self.i, '{') {
            self.i += 1;
        }
        let (trait_name, owner) = if seen_for {
            (before_for.last().cloned(), after_for.first().cloned())
        } else {
            (None, before_for.first().cloned())
        };
        let body_start = self.i;
        if let (Some(t), Some(o)) = (&trait_name, &owner) {
            self.file.trait_impls.push((t.clone(), o.clone()));
        }
        // Registry sink on the whole impl: collect literals from its
        // extent before descending into items.
        let sink_kind = sink_kind_of(anns);
        if let Some(kind) = sink_kind {
            let save = self.i;
            let (s, e) = self.skip_group();
            self.record_sink(&kind, s, e);
            self.i = save;
        }
        self.i = body_start + 1; // past {
        let owner_s = owner.unwrap_or_default();
        let trait_s = trait_name.unwrap_or_default();
        self.items(
            (!owner_s.is_empty()).then_some(owner_s.as_str()),
            (!trait_s.is_empty()).then_some(trait_s.as_str()),
        );
        if self.is_punct(self.i, '}') {
            self.i += 1;
        }
    }

    fn item_mod(&mut self) {
        self.i += 1; // mod
        self.i += 1; // name
        if self.is_punct(self.i, ';') {
            self.i += 1;
            return;
        }
        if self.is_punct(self.i, '{') {
            self.i += 1;
            self.items(None, None);
            if self.is_punct(self.i, '}') {
                self.i += 1;
            }
        }
    }

    fn item_const(&mut self, anns: &[String]) {
        let line = self.line(self.i);
        let (s, e) = self.skip_to_semi();
        for a in anns {
            if let Some(kind) = a.strip_prefix("registry ") {
                let (strs, ints) = collect_literals(&self.t[s..e]);
                self.file.registries.push(RegistryDecl {
                    kind: kind.trim().to_owned(),
                    path: self.file.path.clone(),
                    line,
                    strs,
                    ints,
                });
            }
        }
        if let Some(kind) = sink_kind_of(anns) {
            self.record_sink(&kind, s, e);
        }
    }

    fn record_sink(&mut self, kind: &str, s: usize, e: usize) {
        let strs = collect_literals(&self.t[s..e]).0;
        let ints = collect_tag_ints(&self.t[s..e]);
        self.file.sinks.push(SinkDecl {
            kind: kind.to_owned(),
            path: self.file.path.clone(),
            strs,
            ints,
        });
    }

    fn item_fn(&mut self, owner: Option<&str>, trait_name: Option<&str>, anns: Vec<String>) {
        let line = self.line(self.i);
        self.i += 1; // fn
        let name = self.ident_at(self.i).unwrap_or("").to_owned();
        self.i += 1;
        self.skip_generics();
        let mut params = Vec::new();
        if self.is_punct(self.i, '(') {
            let (s, e) = self.skip_group();
            params = parse_params(&self.t[s + 1..e.saturating_sub(1)]);
        }
        // Return type: tokens between `->` and the body/`;`/`where`.
        let mut ret = String::new();
        if self.is_punct(self.i, '-') && self.is_punct(self.i + 1, '>') {
            self.i += 2;
            while self.i < self.t.len() {
                match self.tok(self.i) {
                    Some(Tok::Punct('{')) | Some(Tok::Punct(';')) => break,
                    Some(Tok::Ident(id)) if id == "where" => break,
                    Some(Tok::Ident(id)) => {
                        if !ret.is_empty() {
                            ret.push(' ');
                        }
                        ret.push_str(id);
                    }
                    Some(Tok::Punct(c)) => ret.push(*c),
                    _ => {}
                }
                self.i += 1;
            }
        }
        while self.i < self.t.len() && !self.is_punct(self.i, '{') && !self.is_punct(self.i, ';') {
            self.i += 1;
        }
        let mut body = None;
        if self.is_punct(self.i, '{') {
            let body_open = self.i;
            self.i += 1;
            let mut b = self.block();
            mark_tail(&mut b);
            body = Some(b);
            self.last_block_range = Some((body_open, self.i));
        } else if self.is_punct(self.i, ';') {
            self.i += 1;
            self.last_block_range = None;
        }
        // Registry sink on a single fn: the literals of its body.
        if let Some(kind) = sink_kind_of(&anns) {
            if let Some(range) = self.last_block_range {
                self.record_sink(&kind, range.0, range.1);
            }
        }
        self.file.fns.push(FnDef {
            path: self.file.path.clone(),
            line,
            owner: owner.map(str::to_owned),
            trait_name: trait_name.map(str::to_owned),
            name,
            params,
            ret,
            body,
            anns,
        });
    }

    fn skip_generics(&mut self) {
        if !self.is_punct(self.i, '<') {
            return;
        }
        let mut depth = 0isize;
        while self.i < self.t.len() {
            if self.is_punct(self.i, '<') {
                depth += 1;
            } else if self.is_punct(self.i, '>') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            } else if self.is_punct(self.i, '-') && self.is_punct(self.i + 1, '>') {
                self.i += 1; // `->` in fn-pointer bounds: skip the `>`
            } else if self.is_punct(self.i, '{') || self.is_punct(self.i, ';') {
                return;
            }
            self.i += 1;
        }
    }
}

/// Parses `name: Type, …` field lists.
fn parse_fields(toks: &[Token]) -> Vec<(String, String)> {
    split_commas(toks)
        .into_iter()
        .filter_map(|part| {
            let colon = part.iter().position(|t| matches!(t.tok, Tok::Punct(':')))?;
            // Skip `pub`/`pub(crate)` before the name.
            let name = part[..colon]
                .iter()
                .rev()
                .find_map(|t| match &t.tok {
                    Tok::Ident(s) if s != "pub" && s != "crate" && s != "r#" => Some(s.clone()),
                    _ => None,
                })?;
            Some((name, type_string(&part[colon + 1..])))
        })
        .collect()
}

/// Parses a fn parameter list; `self` receivers are dropped.
fn parse_params(toks: &[Token]) -> Vec<(String, String)> {
    split_commas(toks)
        .into_iter()
        .filter_map(|part| {
            let colon = part.iter().position(|t| matches!(t.tok, Tok::Punct(':')))?;
            let name = part[..colon].iter().rev().find_map(|t| match &t.tok {
                Tok::Ident(s) if s != "mut" && s != "ref" => Some(s.clone()),
                _ => None,
            })?;
            if name == "self" {
                return None;
            }
            Some((name, type_string(&part[colon + 1..])))
        })
        .collect()
}

/// Splits a token slice at top-level commas (delimiters and generics
/// tracked).
fn split_commas(toks: &[Token]) -> Vec<&[Token]> {
    let mut parts = Vec::new();
    let mut depth = 0isize;
    let mut angle = 0isize;
    let mut start = 0usize;
    let mut k = 0usize;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct('<') => angle += 1,
            // `->` does not close a generic.
            Tok::Punct('>') if k == 0 || !matches!(toks[k - 1].tok, Tok::Punct('-')) => {
                angle = (angle - 1).max(0);
            }
            Tok::Punct(',') if depth == 0 && angle == 0 => {
                parts.push(&toks[start..k]);
                start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    if start < toks.len() {
        parts.push(&toks[start..]);
    }
    parts
}

/// Joins tokens into a normalized type string.
fn type_string(toks: &[Token]) -> String {
    let mut s = String::new();
    for t in toks {
        match &t.tok {
            Tok::Ident(id) => {
                if !s.is_empty() && !s.ends_with(['<', '&', ':', '(']) {
                    s.push(' ');
                }
                s.push_str(id);
            }
            Tok::Punct(c) => s.push(*c),
            Tok::Lifetime(_) => {}
            _ => {}
        }
    }
    s
}

/// Extracts `registry-sink <kind>` from annotations.
fn sink_kind_of(anns: &[String]) -> Option<String> {
    anns.iter()
        .find_map(|a| a.strip_prefix("registry-sink ").map(|k| k.trim().to_owned()))
}

/// String literals with the lines they appear on.
type StrLits = Vec<(String, u32)>;
/// Integer literals with the lines they appear on.
type IntLits = Vec<(u64, u32)>;

/// Collects all string and integer literals with lines.
fn collect_literals(toks: &[Token]) -> (StrLits, IntLits) {
    let mut strs = Vec::new();
    let mut ints = Vec::new();
    for t in toks {
        match &t.tok {
            Tok::Str(s) => strs.push((s.clone(), t.line)),
            Tok::Int(v) => ints.push((*v, t.line)),
            _ => {}
        }
    }
    (strs, ints)
}

/// Collects tag-position integers: `put_u8(N)` arguments and integers
/// immediately adjacent to a `=>` (match-arm pattern or body).
fn collect_tag_ints(toks: &[Token]) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let Tok::Int(v) = &t.tok else { continue };
        if *v > 255 {
            continue;
        }
        // put_u8 ( N )
        let as_put_arg = k >= 2
            && matches!(&toks[k - 1].tok, Tok::Punct('('))
            && matches!(&toks[k - 2].tok, Tok::Ident(id) if id == "put_u8");
        // N =>   (pattern)
        let before_arrow = k + 2 < toks.len()
            && matches!(&toks[k + 1].tok, Tok::Punct('='))
            && matches!(&toks[k + 2].tok, Tok::Punct('>'));
        // => N   (arm body)
        let after_arrow = k >= 2
            && matches!(&toks[k - 1].tok, Tok::Punct('>'))
            && matches!(&toks[k - 2].tok, Tok::Punct('='));
        if as_put_arg || before_arrow || after_arrow {
            out.push((*v, t.line));
        }
    }
    out
}

impl Parser<'_> {
    /// Parses statements until the matching `}`; consumes the closer.
    fn block(&mut self) -> Block {
        let mut stmts = Vec::new();
        while self.i < self.t.len() {
            if self.is_punct(self.i, '}') {
                self.i += 1;
                break;
            }
            if self.is_punct(self.i, ';') {
                self.i += 1;
                continue;
            }
            self.skip_attrs();
            let line = self.line(self.i);
            match self.ident_at(self.i) {
                Some("let") => stmts.push(self.stmt_let(line)),
                Some("if") => stmts.push(self.stmt_if(line)),
                Some("match") => stmts.push(self.stmt_match(line)),
                Some("loop") | Some("while") | Some("for") => stmts.push(self.stmt_loop(line)),
                Some("return") => {
                    self.i += 1;
                    let (s, e) = self.expr_range(false);
                    let toks = &self.t[s..e];
                    let (events, idents, has_try) = extract_events(toks);
                    let first = toks.iter().find_map(|t| match &t.tok {
                        Tok::Ident(id) => Some(id.clone()),
                        _ => None,
                    });
                    stmts.push(Stmt::Return { events, idents, first, has_try, line });
                }
                Some("break") => {
                    self.expr_range(false);
                    stmts.push(Stmt::Break { line });
                }
                Some("continue") => {
                    self.expr_range(false);
                    stmts.push(Stmt::Continue { line });
                }
                Some("unsafe") if self.is_punct(self.i + 1, '{') => {
                    self.i += 2;
                    stmts.push(Stmt::Nested(self.block()));
                }
                Some("fn") => {
                    // Nested fn item inside a body: skipped (its calls
                    // are not this fn's calls).
                    self.until_brace();
                    self.skip_group();
                }
                _ => {
                    if self.is_punct(self.i, '{') {
                        self.i += 1;
                        stmts.push(Stmt::Nested(self.block()));
                    } else {
                        let (s, e) = self.expr_range(false);
                        if e == s {
                            // Defensive: never loop without progress.
                            self.i += 1;
                            continue;
                        }
                        let (events, idents, has_try) = extract_events(&self.t[s..e]);
                        stmts.push(Stmt::Expr { events, idents, has_try, tail: false, line });
                    }
                }
            }
        }
        Block { stmts }
    }

    /// Consumes expression tokens until a `;` (consumed) or the block's
    /// `}` (not consumed) at delimiter depth 0. With `stop_at_else`, a
    /// depth-0 `else` ident also stops (not consumed) for let-else.
    fn expr_range(&mut self, stop_at_else: bool) -> (usize, usize) {
        let start = self.i;
        let mut depth = 0isize;
        while self.i < self.t.len() {
            match self.tok(self.i) {
                Some(Tok::Punct(c)) => match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '}' => {
                        if depth == 0 {
                            return (start, self.i);
                        }
                        depth -= 1;
                    }
                    ';' if depth == 0 => {
                        let end = self.i;
                        self.i += 1;
                        return (start, end);
                    }
                    _ => {}
                },
                Some(Tok::Ident(id)) if stop_at_else && depth == 0 && id == "else" => {
                    return (start, self.i);
                }
                None => break,
                _ => {}
            }
            self.i += 1;
        }
        (start, self.i)
    }

    /// Consumes tokens until a `{` at paren/bracket depth 0 (used for if
    /// conditions, match scrutinees, and loop headers). The `{` is not
    /// consumed.
    fn until_brace(&mut self) -> (usize, usize) {
        let start = self.i;
        let mut depth = 0isize;
        while self.i < self.t.len() {
            match self.tok(self.i) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Punct('{')) if depth == 0 => return (start, self.i),
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => depth -= 1,
                None => break,
                _ => {}
            }
            self.i += 1;
        }
        (start, self.i)
    }

    fn stmt_let(&mut self, line: u32) -> Stmt {
        self.i += 1; // let
        // Pattern (and optional type): up to the first depth-0 `=` that
        // is not part of `==`.
        let pat_start = self.i;
        let mut depth = 0isize;
        while self.i < self.t.len() {
            match self.tok(self.i) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}')) => depth -= 1,
                Some(Tok::Punct('=')) if depth == 0 && !self.is_punct(self.i + 1, '=') => break,
                Some(Tok::Punct(';')) if depth == 0 => break, // `let x;`
                None => break,
                _ => {}
            }
            self.i += 1;
        }
        let bindings = pattern_bindings(&self.t[pat_start..self.i]);
        if self.is_punct(self.i, ';') {
            self.i += 1;
            return Stmt::Let {
                bindings,
                events: Vec::new(),
                idents: Vec::new(),
                has_try: false,
                else_block: None,
                line,
            };
        }
        self.i += 1; // =
        let (s, e) = self.expr_range(true);
        let (events, idents, has_try) = extract_events(&self.t[s..e]);
        let mut else_block = None;
        if matches!(self.ident_at(self.i), Some("else")) {
            self.i += 1;
            if self.is_punct(self.i, '{') {
                self.i += 1;
                else_block = Some(self.block());
            }
            if self.is_punct(self.i, ';') {
                self.i += 1;
            }
        }
        Stmt::Let { bindings, events, idents, has_try, else_block, line }
    }

    fn stmt_if(&mut self, line: u32) -> Stmt {
        self.i += 1; // if
        let mut cond_bindings = Vec::new();
        if matches!(self.ident_at(self.i), Some("let")) {
            self.i += 1;
            let pat_start = self.i;
            let mut depth = 0isize;
            while self.i < self.t.len() {
                match self.tok(self.i) {
                    Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                    Some(Tok::Punct('=')) if depth == 0 && !self.is_punct(self.i + 1, '=') => break,
                    None => break,
                    _ => {}
                }
                self.i += 1;
            }
            cond_bindings = pattern_bindings(&self.t[pat_start..self.i]);
            if self.is_punct(self.i, '=') {
                self.i += 1;
            }
        }
        let (s, e) = self.until_brace();
        let (cond, _, cond_try) = extract_events(&self.t[s..e]);
        let mut then_b = Block::default();
        if self.is_punct(self.i, '{') {
            self.i += 1;
            then_b = self.block();
        }
        let mut else_b = None;
        if matches!(self.ident_at(self.i), Some("else")) {
            self.i += 1;
            if matches!(self.ident_at(self.i), Some("if")) {
                let inner_line = self.line(self.i);
                let nested = self.stmt_if(inner_line);
                else_b = Some(Block { stmts: vec![nested] });
            } else if self.is_punct(self.i, '{') {
                self.i += 1;
                else_b = Some(self.block());
            }
        }
        Stmt::If { cond, cond_try, cond_bindings, then_b, else_b, line }
    }

    fn stmt_match(&mut self, line: u32) -> Stmt {
        self.i += 1; // match
        let (s, e) = self.until_brace();
        let (scrutinee, _, scrutinee_try) = extract_events(&self.t[s..e]);
        let mut arms = Vec::new();
        if self.is_punct(self.i, '{') {
            self.i += 1;
            while self.i < self.t.len() && !self.is_punct(self.i, '}') {
                if self.is_punct(self.i, ',') {
                    self.i += 1;
                    continue;
                }
                self.skip_attrs();
                let arm_line = self.line(self.i);
                // Pattern (with optional guard) until depth-0 `=>`.
                let pat_start = self.i;
                let mut depth = 0isize;
                while self.i < self.t.len() {
                    match self.tok(self.i) {
                        Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                            depth += 1;
                        }
                        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}')) => {
                            depth -= 1;
                        }
                        Some(Tok::Punct('=')) if depth == 0 && self.is_punct(self.i + 1, '>') => {
                            break;
                        }
                        None => break,
                        _ => {}
                    }
                    self.i += 1;
                }
                let bindings = pattern_bindings(&self.t[pat_start..self.i]);
                self.i += 2; // =>
                let body = if self.is_punct(self.i, '{') {
                    self.i += 1;
                    self.block()
                } else {
                    // Expression arm: consume until depth-0 `,` or the
                    // match's closing `}`.
                    let es = self.i;
                    let mut depth = 0isize;
                    while self.i < self.t.len() {
                        match self.tok(self.i) {
                            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                                depth += 1;
                            }
                            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                            Some(Tok::Punct('}')) => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            Some(Tok::Punct(',')) if depth == 0 => break,
                            None => break,
                            _ => {}
                        }
                        self.i += 1;
                    }
                    let toks = &self.t[es..self.i];
                    let mut stmts = Vec::new();
                    match toks.first().map(|t| &t.tok) {
                        Some(Tok::Ident(id)) if id == "return" => {
                            let inner = &toks[1..];
                            let (events, idents, has_try) = extract_events(inner);
                            let first = inner.iter().find_map(|t| match &t.tok {
                                Tok::Ident(id) => Some(id.clone()),
                                _ => None,
                            });
                            stmts.push(Stmt::Return { events, idents, first, has_try, line: arm_line });
                        }
                        Some(Tok::Ident(id)) if id == "break" => {
                            stmts.push(Stmt::Break { line: arm_line });
                        }
                        Some(Tok::Ident(id)) if id == "continue" => {
                            stmts.push(Stmt::Continue { line: arm_line });
                        }
                        _ => {
                            let (events, idents, has_try) = extract_events(toks);
                            if !events.is_empty() || !idents.is_empty() || has_try {
                                stmts.push(Stmt::Expr {
                                    events,
                                    idents,
                                    has_try,
                                    tail: false,
                                    line: arm_line,
                                });
                            }
                        }
                    }
                    Block { stmts }
                };
                arms.push(Arm { bindings, body, line: arm_line });
            }
            if self.is_punct(self.i, '}') {
                self.i += 1;
            }
        }
        Stmt::Match { scrutinee, scrutinee_try, arms, line }
    }

    fn stmt_loop(&mut self, line: u32) -> Stmt {
        let kw = self.ident_at(self.i).unwrap_or("").to_owned();
        self.i += 1;
        let mut bindings = Vec::new();
        let mut header = Vec::new();
        match kw.as_str() {
            "for" => {
                // for <pat> in <expr> { … }: the pattern runs to the `in`
                // outside any delimiter, so the braces of a struct pattern
                // (`for Pair { a, b } in …`) are not the loop body.
                let pat_start = self.i;
                let mut depth = 0isize;
                while self.i < self.t.len() {
                    match self.tok(self.i) {
                        Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                        Some(Tok::Punct(')' | ']' | '}')) => depth -= 1,
                        Some(Tok::Ident(id)) if depth == 0 && id == "in" => break,
                        _ => {}
                    }
                    self.i += 1;
                }
                bindings = pattern_bindings(&self.t[pat_start..self.i]);
                if matches!(self.ident_at(self.i), Some("in")) {
                    self.i += 1;
                }
                let hline = self.line(self.i);
                let (s, e) = self.until_brace();
                let (mut ev, _, _) = extract_events(&self.t[s..e]);
                // Desugared iterator pull: make the `.next()` visible so
                // "never hold L across the pull" is checkable.
                ev.push(Event::Call(Call {
                    name: "next".to_owned(),
                    recv: Recv::Opaque,
                    line: hline,
                    moved: Vec::new(),
                    first_str: None,
                    only_int: None,
                    sticky_end: true,
                    deferred: false,
                }));
                header = ev;
            }
            "while" => {
                if matches!(self.ident_at(self.i), Some("let")) {
                    self.i += 1;
                    let pat_start = self.i;
                    let mut depth = 0isize;
                    while self.i < self.t.len() {
                        match self.tok(self.i) {
                            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                            Some(Tok::Punct('=')) if depth == 0 && !self.is_punct(self.i + 1, '=') => {
                                break;
                            }
                            None => break,
                            _ => {}
                        }
                        self.i += 1;
                    }
                    bindings = pattern_bindings(&self.t[pat_start..self.i]);
                    if self.is_punct(self.i, '=') {
                        self.i += 1;
                    }
                }
                let (s, e) = self.until_brace();
                header = extract_events(&self.t[s..e]).0;
            }
            _ => {}
        }
        let mut body = Block::default();
        if self.is_punct(self.i, '{') {
            self.i += 1;
            body = self.block();
        }
        Stmt::Loop { header, bindings, body, line }
    }
}

const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "_", "in"];

/// Extracts lowercase idents bound by a pattern (struct-field names,
/// path segments, and guard expressions excluded).
fn pattern_bindings(toks: &[Token]) -> Vec<String> {
    // Cut at a depth-0 `if` (match-arm guard).
    let mut cut = toks.len();
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Ident(id) if id == "if" && depth == 0 => {
                cut = k;
                break;
            }
            _ => {}
        }
    }
    let toks = &toks[..cut];
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        let first = id.chars().next().unwrap_or('_');
        if !(first.is_lowercase() || first == '_') || PATTERN_KEYWORDS.contains(&id.as_str()) {
            continue;
        }
        // Path segment (`x::y`) or preceded by `.`? Not a binding.
        if k >= 1 && matches!(&toks[k - 1].tok, Tok::Punct(':') | Tok::Punct('.')) {
            continue;
        }
        // Struct-field name (`Foo { msg: m }`): ident followed by a
        // single `:`.
        if k + 1 < toks.len()
            && matches!(&toks[k + 1].tok, Tok::Punct(':'))
            && !(k + 2 < toks.len() && matches!(&toks[k + 2].tok, Tok::Punct(':')))
        {
            continue;
        }
        if !out.contains(id) {
            out.push(id.clone());
        }
    }
    out
}

const IDENT_KEYWORDS: &[&str] = &[
    "mut", "ref", "move", "if", "else", "match", "return", "as", "in", "let", "self", "fn",
    "loop", "while", "for", "break", "continue", "true", "false", "await", "dyn", "impl",
];

/// Extracts call/drop events, bare idents, and try-ness from a flat
/// expression token slice. Nested regions (closures, arguments, macro
/// bodies) are scanned inline, so their calls appear in source order.
pub fn extract_events(toks: &[Token]) -> (Vec<Event>, Vec<String>, bool) {
    let deferred_ranges = closure_ranges(toks);
    let in_deferred =
        |k: usize| deferred_ranges.iter().any(|(s, e)| k >= *s && k < *e);
    let mut events = Vec::new();
    let mut idents = Vec::new();
    let mut has_try = false;
    let mut depth = 0isize;
    let mut k = 0usize;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Punct('?') if !in_deferred(k) => has_try = true,
            Tok::Ident(name) => {
                let called = k + 1 < toks.len() && matches!(&toks[k + 1].tok, Tok::Punct('('));
                let is_macro = k + 1 < toks.len() && matches!(&toks[k + 1].tok, Tok::Punct('!'));
                if called {
                    let recv = receiver_of(toks, k);
                    let close = matching(toks, k + 1);
                    let region = &toks[k + 2..close.min(toks.len())];
                    let (moved, first_str, only_int) = call_args(region);
                    // Sticky: the chain ends here AND the call is the
                    // statement's outermost expression (a guard nested in
                    // another call's arguments is a temporary that dies at
                    // the semicolon, never a bindable guard).
                    let sticky_end = depth == 0 && {
                        let mut after = close + 1;
                        if after < toks.len() && matches!(&toks[after].tok, Tok::Punct('?')) {
                            after += 1;
                        }
                        !(after < toks.len() && matches!(&toks[after].tok, Tok::Punct('.')))
                    };
                    if name == "drop" && recv == Recv::Free && region.len() == 1 && moved.len() == 1
                    {
                        events.push(Event::Drop { var: moved[0].clone(), line: toks[k].line });
                    } else {
                        events.push(Event::Call(Call {
                            name: name.clone(),
                            recv,
                            line: toks[k].line,
                            moved,
                            first_str,
                            only_int,
                            sticky_end,
                            deferred: in_deferred(k),
                        }));
                    }
                } else if !is_macro {
                    let first = name.chars().next().unwrap_or('_');
                    let path_or_field = k >= 1
                        && matches!(&toks[k - 1].tok, Tok::Punct('.') | Tok::Punct(':'));
                    let field_name = k + 1 < toks.len()
                        && matches!(&toks[k + 1].tok, Tok::Punct(':'))
                        && !(k + 2 < toks.len() && matches!(&toks[k + 2].tok, Tok::Punct(':')));
                    if (first.is_lowercase() || first == '_')
                        && !IDENT_KEYWORDS.contains(&name.as_str())
                        && !path_or_field
                        && !field_name
                        && !idents.contains(name)
                    {
                        idents.push(name.clone());
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    (events, idents, has_try)
}

/// Half-open token ranges covered by brace-bodied closure literals
/// (`|…| { … }`, `move || { … }`). Their bodies execute when the
/// closure is invoked — possibly never, possibly on another thread —
/// so calls inside must not be attributed to the building statement's
/// lock scope. Expression-bodied closures (`|x| x + 1`) are left
/// inline: they are overwhelmingly immediate iterator adapters.
fn closure_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if matches!(&toks[k].tok, Tok::Punct('|')) && !operand_before(toks, k) {
            // Parameter list: `||` or `|a, b: T|`.
            let mut j = k + 1;
            while j < toks.len() && !matches!(&toks[j].tok, Tok::Punct('|')) {
                j += 1;
            }
            let body = j + 1;
            if body < toks.len() && matches!(&toks[body].tok, Tok::Punct('{')) {
                let end = matching(toks, body);
                out.push((body, (end + 1).min(toks.len())));
                k = end + 1;
                continue;
            }
            k = body;
            continue;
        }
        k += 1;
    }
    out
}

/// Whether the token before `k` ends an operand — making a `|` at `k`
/// a binary/pattern `|` rather than a closure's parameter bar.
fn operand_before(toks: &[Token], k: usize) -> bool {
    let Some(prev) = k.checked_sub(1).and_then(|i| toks.get(i)) else {
        return false;
    };
    match &prev.tok {
        Tok::Ident(id) => !IDENT_KEYWORDS.contains(&id.as_str()),
        Tok::Int(_) | Tok::Num | Tok::Str(_) | Tok::Char => true,
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    }
}

/// Moved bare-ident args, first string literal, and sole-int arg of a
/// call argument region.
fn call_args(region: &[Token]) -> (Vec<String>, Option<String>, Option<u64>) {
    let mut moved = Vec::new();
    let first_str = region.iter().find_map(|t| match &t.tok {
        Tok::Str(s) => Some(s.clone()),
        _ => None,
    });
    let only_int = if region.len() == 1 {
        match &region[0].tok {
            Tok::Int(v) => Some(*v),
            _ => None,
        }
    } else {
        None
    };
    for part in split_commas(region) {
        if part.len() == 1 {
            if let Tok::Ident(id) = &part[0].tok {
                let first = id.chars().next().unwrap_or('_');
                if (first.is_lowercase() || first == '_')
                    && id != "self"
                    && !IDENT_KEYWORDS.contains(&id.as_str())
                {
                    moved.push(id.clone());
                }
            }
        }
    }
    (moved, first_str, only_int)
}

/// Determines the receiver of the call whose name token is at `k`.
fn receiver_of(toks: &[Token], k: usize) -> Recv {
    if k == 0 {
        return Recv::Free;
    }
    if matches!(&toks[k - 1].tok, Tok::Punct('.')) {
        // Walk the chain backwards: self/local fields, `]` index groups,
        // `)` call results.
        let mut segs: Vec<String> = Vec::new();
        let mut j = k as isize - 2;
        loop {
            if j < 0 {
                return Recv::Opaque;
            }
            match &toks[j as usize].tok {
                Tok::Punct(')') | Tok::Punct('?') => {
                    // Chained off a call (possibly through `?`): find the
                    // call's name for resolution.
                    let mut jj = j as usize;
                    if matches!(&toks[jj].tok, Tok::Punct('?')) {
                        if jj == 0 {
                            return Recv::Opaque;
                        }
                        jj -= 1;
                    }
                    if !matches!(&toks[jj].tok, Tok::Punct(')')) {
                        return Recv::Opaque;
                    }
                    let mut depth = 0isize;
                    loop {
                        match &toks[jj].tok {
                            Tok::Punct(')') => depth += 1,
                            Tok::Punct('(') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if jj == 0 {
                            return Recv::Opaque;
                        }
                        jj -= 1;
                    }
                    if jj >= 1 {
                        if let Tok::Ident(prev) = &toks[jj - 1].tok {
                            return Recv::Chained { prev: prev.clone() };
                        }
                    }
                    return Recv::Opaque;
                }
                Tok::Punct(']') => {
                    // Skip the index group.
                    let mut depth = 0isize;
                    loop {
                        match &toks[j as usize].tok {
                            Tok::Punct(']') => depth += 1,
                            Tok::Punct('[') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j -= 1;
                        if j < 0 {
                            return Recv::Opaque;
                        }
                    }
                    j -= 1; // before the `[`
                }
                Tok::Ident(seg) => {
                    segs.push(seg.clone());
                    if j >= 1 && matches!(&toks[j as usize - 1].tok, Tok::Punct('.')) {
                        j -= 2;
                    } else {
                        break;
                    }
                }
                _ => return Recv::Opaque,
            }
        }
        segs.reverse();
        let base = segs.remove(0);
        if base == "self" {
            return Recv::SelfChain(segs);
        }
        let first = base.chars().next().unwrap_or('_');
        if first.is_lowercase() || first == '_' {
            return Recv::Local(base, segs);
        }
        return Recv::Opaque;
    }
    if k >= 2
        && matches!(&toks[k - 1].tok, Tok::Punct(':'))
        && matches!(&toks[k - 2].tok, Tok::Punct(':'))
    {
        if k >= 3 {
            if let Tok::Ident(base) = &toks[k - 3].tok {
                return Recv::Type(base.clone());
            }
        }
        return Recv::Opaque;
    }
    Recv::Free
}

/// Marks the tail expression(s) of a block (recursing into branch
/// constructs in tail position).
fn mark_tail(block: &mut Block) {
    if let Some(last) = block.stmts.last_mut() {
        match last {
            Stmt::Expr { tail, .. } => *tail = true,
            Stmt::If { then_b, else_b, .. } => {
                mark_tail(then_b);
                if let Some(e) = else_b {
                    mark_tail(e);
                }
            }
            Stmt::Match { arms, .. } => {
                for a in arms {
                    mark_tail(&mut a.body);
                }
            }
            Stmt::Nested(b) => mark_tail(b),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_file(path: &str, src: &str) -> ParsedFile {
        let (tokens, annotations) = crate::lexer::lex(src);
        parse(path, &tokens, annotations)
    }

    const SRC: &str = r#"
struct Queue {
    store: Mutex<MessageStore>,
    index: Arc<RwLock<()>>,
}

impl Queue {
    // lint: custody(msg, err-reverts)
    fn put(&self, msg: Message) -> MqResult<()> {
        let _index = self.index.read();
        let mut store = self.store.lock();
        self.check_open(&store)?;
        self.insert(&mut store, msg, false);
        drop(store);
        Ok(())
    }

    fn drain(&self) {
        for rec in self.pending.iter() {
            match rec {
                Ok(Some(mut envelope)) => self.push(envelope),
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

impl WireEncode for JournalRecord {
    fn encode(&self) {}
}
"#;

    #[test]
    fn structs_impls_and_fns_are_recorded() {
        let f = parse_file("x.rs", SRC);
        assert_eq!(f.structs.len(), 1);
        assert_eq!(f.structs[0].fields[0], ("store".into(), "Mutex<MessageStore>".into()));
        assert!(f.trait_impls.contains(&("WireEncode".into(), "JournalRecord".into())));
        let put = f.fns.iter().find(|d| d.name == "put").unwrap();
        assert_eq!(put.owner.as_deref(), Some("Queue"));
        assert_eq!(put.params, vec![("msg".to_string(), "Message".to_string())]);
        assert_eq!(put.anns, vec!["custody(msg, err-reverts)".to_string()]);
    }

    #[test]
    fn lock_chains_moves_and_drops_are_events() {
        let f = parse_file("x.rs", SRC);
        let put = f.fns.iter().find(|d| d.name == "put").unwrap();
        let body = put.body.as_ref().unwrap();
        // let _index = self.index.read();
        let Stmt::Let { bindings, events, .. } = &body.stmts[0] else { panic!() };
        assert_eq!(bindings, &["_index".to_string()]);
        let Event::Call(c) = &events[0] else { panic!() };
        assert_eq!(c.name, "read");
        assert_eq!(c.recv, Recv::SelfChain(vec!["index".into()]));
        assert!(c.sticky_end);
        // self.check_open(&store)? has a try
        let Stmt::Expr { has_try, .. } = &body.stmts[2] else { panic!() };
        assert!(has_try);
        // self.insert(&mut store, msg, false) moves msg
        let Stmt::Expr { events, .. } = &body.stmts[3] else { panic!() };
        let Event::Call(c) = &events[0] else { panic!() };
        assert_eq!(c.moved, vec!["msg".to_string()]);
        // drop(store)
        let Stmt::Expr { events, .. } = &body.stmts[4] else { panic!() };
        assert!(matches!(&events[0], Event::Drop { var, .. } if var == "store"));
        // tail Ok(()) marked
        assert!(matches!(body.stmts.last(), Some(Stmt::Expr { tail: true, .. })));
    }

    #[test]
    fn for_loops_and_match_arms_parse() {
        let f = parse_file("x.rs", SRC);
        let drain = f.fns.iter().find(|d| d.name == "drain").unwrap();
        let body = drain.body.as_ref().unwrap();
        let Stmt::Loop { header, body: lb, .. } = &body.stmts[0] else { panic!() };
        // synthesized iterator pull
        assert!(header.iter().any(|e| matches!(e, Event::Call(c) if c.name == "next")));
        let Stmt::Match { arms, .. } = &lb.stmts[0] else { panic!() };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].bindings, vec!["envelope".to_string()]);
        assert!(matches!(arms[1].body.stmts[0], Stmt::Break { .. }));
        assert!(matches!(arms[2].body.stmts[0], Stmt::Return { .. }));
    }
}
