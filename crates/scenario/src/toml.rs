//! A small dependency-free TOML-subset deserializer, in the spirit of
//! `cond-lint`'s hand-rolled lexer: enough of the grammar to express
//! scenario specs, with line-numbered errors and nothing else.
//!
//! Supported: comments (`#`), bare/quoted keys, `[table]` and nested
//! `[a.b]` headers, `[[array-of-tables]]` (including nested
//! `[[a.b]]` under the most recent `[[a]]` element), basic strings with
//! the common escapes, integers (with `_` separators), floats, booleans,
//! homogeneous-or-not arrays, and inline tables `{k = v, …}`.
//!
//! Not supported (and not needed by scenario specs): dotted keys in
//! assignment position, multi-line strings, literal strings, dates,
//! hex/octal/binary integers.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A table (standard, inline, or array-of-tables element).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers widen), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a table, if it is one.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Looks up `key` in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "toml line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// [`TomlError`] with the offending line on any syntax violation,
/// duplicate key, or unsupported construct.
pub fn parse(src: &str) -> Result<Value, TomlError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // The table path currently being filled, e.g. ["oracle", "metrics"];
    // segments indexing into array-of-tables always address the last
    // element.
    let mut current: Vec<String> = Vec::new();

    for (idx, raw_line) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(path_str) = rest.strip_suffix("]]") else {
                return Err(err(lineno, "unterminated [[table]] header"));
            };
            let path = parse_path(path_str, lineno)?;
            push_array_table(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(rest) = line.strip_prefix('[') {
            let Some(path_str) = rest.strip_suffix(']') else {
                return Err(err(lineno, "unterminated [table] header"));
            };
            let path = parse_path(path_str, lineno)?;
            ensure_table(&mut root, &path, lineno)?;
            current = path;
        } else {
            let Some(eq) = line.find('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = parse_key(line[..eq].trim(), lineno)?;
            let mut chars: Vec<char> = line[eq + 1..].trim().chars().collect();
            let value = parse_value(&mut chars, &mut 0, lineno)?;
            let table = navigate(&mut root, &current, lineno)?;
            if table.contains_key(&key) {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
            table.insert(key, value);
        }
    }
    Ok(Value::Table(root))
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_path(s: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let mut out = Vec::new();
    for part in s.split('.') {
        out.push(parse_key(part.trim(), lineno)?);
    }
    Ok(out)
}

fn parse_key(s: &str, lineno: usize) -> Result<String, TomlError> {
    if let Some(inner) = s.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Ok(inner.to_owned());
    }
    if s.is_empty() {
        return Err(err(lineno, "empty key"));
    }
    if s.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-') {
        Ok(s.to_owned())
    } else {
        Err(err(lineno, format!("invalid bare key `{s}`")))
    }
}

/// Walks `path` from the root, creating intermediate tables, and returns
/// the table to assign keys into. A path segment naming an array of
/// tables addresses its most recent element.
fn navigate<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, Value>, TomlError> {
    let mut table = root;
    for seg in path {
        let entry = table
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        table = match entry {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(err(lineno, format!("`{seg}` is not a table array"))),
            },
            other => {
                return Err(err(
                    lineno,
                    format!("`{seg}` is a {}, not a table", other.type_name()),
                ))
            }
        };
    }
    Ok(table)
}

fn ensure_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<(), TomlError> {
    navigate(root, path, lineno).map(|_| ())
}

/// Appends a fresh element to the array of tables at `path` (creating
/// the array if needed); parents resolve like [`navigate`].
fn push_array_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<(), TomlError> {
    let Some((last, parents)) = path.split_last() else {
        return Err(err(lineno, "empty [[table]] header"));
    };
    let parent = navigate(root, parents, lineno)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Table(BTreeMap::new()));
            Ok(())
        }
        other => Err(err(
            lineno,
            format!("`{last}` is a {}, not a table array", other.type_name()),
        )),
    }
}

/// Parses one value starting at `chars[*pos]`, leaving `*pos` just past
/// it (trailing whitespace consumed).
fn parse_value(chars: &mut Vec<char>, pos: &mut usize, lineno: usize) -> Result<Value, TomlError> {
    skip_ws(chars, pos);
    match chars.get(*pos) {
        None => Err(err(lineno, "missing value")),
        Some('"') => parse_string(chars, pos, lineno),
        Some('[') => parse_array(chars, pos, lineno),
        Some('{') => parse_inline_table(chars, pos, lineno),
        Some(_) => parse_scalar(chars, pos, lineno),
    }
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

fn parse_string(
    chars: &[char],
    pos: &mut usize,
    lineno: usize,
) -> Result<Value, TomlError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match chars.get(*pos) {
            None => return Err(err(lineno, "unterminated string")),
            Some('"') => {
                *pos += 1;
                return Ok(Value::Str(out));
            }
            Some('\\') => {
                *pos += 1;
                let c = match chars.get(*pos) {
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('"') => '"',
                    Some('\\') => '\\',
                    other => {
                        return Err(err(
                            lineno,
                            format!("unsupported escape `\\{}`", other.copied().unwrap_or(' ')),
                        ))
                    }
                };
                out.push(c);
                *pos += 1;
            }
            Some(c) => {
                out.push(*c);
                *pos += 1;
            }
        }
    }
}

fn parse_array(
    chars: &mut Vec<char>,
    pos: &mut usize,
    lineno: usize,
) -> Result<Value, TomlError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    loop {
        skip_ws(chars, pos);
        match chars.get(*pos) {
            None => return Err(err(lineno, "unterminated array")),
            Some(']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            Some(',') => {
                *pos += 1;
            }
            Some(_) => items.push(parse_value(chars, pos, lineno)?),
        }
    }
}

fn parse_inline_table(
    chars: &mut Vec<char>,
    pos: &mut usize,
    lineno: usize,
) -> Result<Value, TomlError> {
    *pos += 1; // '{'
    let mut table = BTreeMap::new();
    loop {
        skip_ws(chars, pos);
        match chars.get(*pos) {
            None => return Err(err(lineno, "unterminated inline table")),
            Some('}') => {
                *pos += 1;
                return Ok(Value::Table(table));
            }
            Some(',') => {
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while chars
                    .get(*pos)
                    .is_some_and(|c| *c != '=' && *c != ',' && *c != '}')
                {
                    *pos += 1;
                }
                if chars.get(*pos) != Some(&'=') {
                    return Err(err(lineno, "inline table entry missing `=`"));
                }
                let key_str: String = chars[start..*pos].iter().collect();
                let key = parse_key(key_str.trim(), lineno)?;
                *pos += 1; // '='
                let value = parse_value(chars, pos, lineno)?;
                if table.insert(key.clone(), value).is_some() {
                    return Err(err(lineno, format!("duplicate key `{key}`")));
                }
            }
        }
    }
}

fn parse_scalar(
    chars: &[char],
    pos: &mut usize,
    lineno: usize,
) -> Result<Value, TomlError> {
    let start = *pos;
    while chars
        .get(*pos)
        .is_some_and(|c| !c.is_whitespace() && *c != ',' && *c != ']' && *c != '}')
    {
        *pos += 1;
    }
    let word: String = chars[start..*pos].iter().collect();
    match word.as_str() {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = word.chars().filter(|c| *c != '_').collect();
    if digits.contains('.') || digits.contains('e') || digits.contains('E') {
        if let Ok(v) = digits.parse::<f64>() {
            return Ok(Value::Float(v));
        }
    }
    if let Ok(v) = digits.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    Err(err(lineno, format!("unrecognized value `{word}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_tables() {
        let doc = r#"
name = "demo"            # trailing comment
seed = 1_000
rate = 0.25
quick = true

[oracle]
dlq_empty = true

[oracle.limits]
max = 10
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("seed").unwrap().as_int(), Some(1000));
        assert_eq!(v.get("rate").unwrap().as_float(), Some(0.25));
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(true));
        let oracle = v.get("oracle").unwrap();
        assert_eq!(oracle.get("dlq_empty").unwrap().as_bool(), Some(true));
        assert_eq!(
            oracle.get("limits").unwrap().get("max").unwrap().as_int(),
            Some(10)
        );
    }

    #[test]
    fn parses_arrays_of_tables_and_nested_aot() {
        let doc = r#"
[[actors]]
name = "a"

[[actors.condition.members]]
queue = "Q.1"

[[actors.condition.members]]
queue = "Q.2"

[[actors]]
name = "b"
"#;
        let v = parse(doc).unwrap();
        let actors = v.get("actors").unwrap().as_array().unwrap();
        assert_eq!(actors.len(), 2);
        let members = actors[0]
            .get("condition")
            .unwrap()
            .get("members")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[1].get("queue").unwrap().as_str(), Some("Q.2"));
        assert_eq!(actors[1].get("name").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn parses_inline_tables_and_arrays() {
        let doc = r#"
via = ["QM.R1", "QM.R2"]
fault = { at_ms = 500, action = "partition", point = "tcp:B" }
nums = [1, 2, 3]
"#;
        let v = parse(doc).unwrap();
        let via = v.get("via").unwrap().as_array().unwrap();
        assert_eq!(via[1].as_str(), Some("QM.R2"));
        let fault = v.get("fault").unwrap();
        assert_eq!(fault.get("at_ms").unwrap().as_int(), Some(500));
        assert_eq!(fault.get("point").unwrap().as_str(), Some("tcp:B"));
        assert_eq!(
            v.get("nums").unwrap().as_array().unwrap().len(),
            3
        );
    }

    #[test]
    fn string_escapes_and_hash_inside_strings() {
        let v = parse("s = \"a # not comment\\n\"").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a # not comment\n"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("x = \"unterminated").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("a = 1\na = 2").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(parse("[unclosed").is_err());
        assert!(parse("[[unclosed]").is_err());
        assert!(parse("k = nonsense?!").is_err());
    }
}
