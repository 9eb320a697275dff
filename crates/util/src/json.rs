//! Hand-rolled JSON emission and parsing, shared workspace-wide.
//!
//! The offline container cannot add a serialization dependency, so
//! everything that emits JSON builds a [`JsonValue`] tree by hand and prints
//! it. The type started life in `bench::report` for experiment output; it
//! moved here once the core crate needed the same conventions to serve run
//! snapshots through the control-plane service. The scenario-file
//! sweep runner added the other direction: [`parse`] reads a document back
//! into a [`JsonValue`] tree, reporting line/column on malformed input.
//!
//! Conventions, kept deliberately small:
//!
//! * objects preserve insertion order, so documents are byte-stable across
//!   runs — tests can compare serialized snapshots directly;
//! * non-finite numbers serialize as `null` (JSON has no NaN), matching
//!   what the power-blackout fault injection produces;
//! * strings are escaped on output, including control characters.

use std::fmt;
use std::io::Write;
use std::path::Path;

/// A JSON document, built by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl JsonValue {
    /// Builds an array from anything iterable over convertible items:
    /// `JsonValue::array([1.0, 2.0])`, `JsonValue::array(names)`.
    pub fn array<I>(items: I) -> JsonValue
    where
        I: IntoIterator,
        I::Item: Into<JsonValue>,
    {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Builds an insertion-ordered object from `(key, value)` pairs:
    /// `JsonValue::object([("n", 3.0.into())])`.
    pub fn object<K, I>(fields: I) -> JsonValue
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, JsonValue)>,
    {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (`None` for missing keys and non-objects)
    /// — enough for tests to poke at nested documents without a parser.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array (`None` out of bounds and for non-arrays).
    pub fn at(&self, index: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as a finite number (`None` for everything else).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) if v.is_finite() => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions.
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64).then_some(v as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, for arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in insertion order, for objects.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Str(s) => write_json_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Where and why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at line {}, col {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document into a [`JsonValue`] tree.
///
/// The grammar matches what [`JsonValue`] can emit: objects keep key
/// insertion order (duplicate keys are rejected), numbers become `f64`,
/// and `\uXXXX` escapes (including surrogate pairs) decode to chars.
/// Trailing non-whitespace after the document is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] carrying the 1-based line/column of the first
/// offending byte and a description of what was expected.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == want => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(self.err(format!(
                "expected '{}', found '{}'",
                want as char, b as char
            ))),
            None => Err(self.err(format!("expected '{}', found end of input", want as char))),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for want in word.bytes() {
            match self.peek() {
                Some(b) if b == want => {
                    self.bump();
                }
                _ => return Err(self.err(format!("expected literal '{word}'"))),
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            self.bump();
            v = (v << 4) | u16::from(d);
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000
                                + ((u32::from(hi) - 0xD800) << 10)
                                + (u32::from(lo) - 0xDC00);
                            char::from_u32(cp)
                        } else {
                            char::from_u32(u32::from(hi))
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble the multi-byte UTF-8 sequence starting at b.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8 in string")),
                    };
                    let mut buf = vec![b];
                    for _ in 1..len {
                        match self.bump() {
                            Some(cont @ 0x80..=0xBF) => buf.push(cont),
                            _ => return Err(self.err("invalid utf-8 in string")),
                        }
                    }
                    match std::str::from_utf8(&buf) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            _ => Err(self.err(format!("invalid number \"{text}\""))),
        }
    }
}

/// Writes a JSON document to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates any I/O failure from directory creation or the write.
pub fn emit_json(path: &Path, value: &JsonValue) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{value}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structure() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("fig\"5\"".into())),
            (
                "rows".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Bool(true),
                    JsonValue::Null,
                    JsonValue::Num(f64::NAN),
                ]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"name\":\"fig\\\"5\\\"\",\"rows\":[1.5,true,null,null]}"
        );
    }

    #[test]
    fn builders_compose_nested_documents() {
        let v = JsonValue::object([
            ("nodes", JsonValue::array(["n0", "n1"])),
            ("shares", JsonValue::Arr(vec![JsonValue::array([0.5, 1.5])])),
            ("quantum", 7usize.into()),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"nodes\":[\"n0\",\"n1\"],\"shares\":[[0.5,1.5]],\"quantum\":7}"
        );
        assert_eq!(v.get("quantum"), Some(&JsonValue::Num(7.0)));
        assert_eq!(
            v.get("shares").and_then(|s| s.at(0)).and_then(|s| s.at(1)),
            Some(&JsonValue::Num(1.5))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.at(0), None, "objects do not index");
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::Str("a\u{1}b\nc".into());
        assert_eq!(v.to_string(), "\"a\\u0001b\\nc\"");
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let v = JsonValue::object([
            ("name", JsonValue::Str("fig\"5\"\n".into())),
            (
                "rows",
                JsonValue::Arr(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Num(-3.25e-2),
                    JsonValue::Bool(true),
                    JsonValue::Null,
                ]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parse_decodes_escapes_and_unicode() {
        let v = parse(r#"["aAb", "🦑", "café", "日本"]"#).unwrap();
        assert_eq!(v.at(0).unwrap().as_str().unwrap(), "aAb");
        assert_eq!(v.at(1).unwrap().as_str().unwrap(), "🦑");
        assert_eq!(v.at(2).unwrap().as_str().unwrap(), "café");
        assert_eq!(v.at(3).unwrap().as_str().unwrap(), "日本");
    }

    #[test]
    fn parse_reports_line_and_column() {
        let err = parse("{\n  \"a\": 1,\n  \"b\" 2\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 7));
        assert_eq!(
            err.to_string(),
            "json parse error at line 3, col 7: expected ':', found '2'"
        );
    }

    #[test]
    fn parse_rejects_duplicates_trailing_and_bad_numbers() {
        assert!(parse(r#"{"a":1,"a":2}"#)
            .unwrap_err()
            .to_string()
            .contains("duplicate object key \"a\""));
        assert!(parse("[1] extra")
            .unwrap_err()
            .to_string()
            .contains("trailing characters"));
        assert!(parse("[1.2.3]")
            .unwrap_err()
            .to_string()
            .contains("invalid number"));
        assert!(parse("")
            .unwrap_err()
            .to_string()
            .contains("unexpected end of input"));
        assert!(parse("[1,]")
            .unwrap_err()
            .message
            .contains("unexpected character"));
    }

    #[test]
    fn accessors_type_check() {
        let v = parse(r#"{"n": 3, "f": 1.5, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(
            v.get("f").unwrap().as_usize(),
            None,
            "fractions are not usize"
        );
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.entries().unwrap().len(), 5);
    }

    #[test]
    fn emit_writes_file() {
        let dir = std::env::temp_dir().join("cuttlesys_util_json_test");
        let path = dir.join("nested").join("out.json");
        emit_json(&path, &JsonValue::Arr(vec![JsonValue::Num(3.0)])).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim(), "[3]");
        std::fs::remove_dir_all(&dir).ok();
    }
}
