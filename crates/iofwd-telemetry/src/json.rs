//! The workspace's one JSON codec: a value type, a parser for the full
//! grammar, and the string escaper every writer calls.
//!
//! Writers here stay `format!`-based (each knows its own layout); what
//! they share is [`quote`], so there is one set of escaping rules and
//! [`Json::parse`] is its inverse. Integers are kept exact: a literal
//! with no fraction or exponent parses to [`Json::Int`], so a `u64`
//! counter or an `i64` gauge never rounds through `f64`.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    /// An integer literal; `i128` holds both `u64::MAX` and `i64::MIN`.
    Int(i128),
    /// A literal with a fraction or an exponent.
    Num(f64),
    Bool(bool),
    Null,
}

/// Nesting bound for [`Json::parse`]: the parser recurses per level, and
/// its input comes from files and sockets.
const MAX_DEPTH: usize = 128;

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Any number, as a float (an integer beyond 2^53 rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An integer literal in `u64` range, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// An integer literal in `i64` range, exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.nested(Parser::object),
            b'[' => self.nested(Parser::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    /// After an element: `,` continues, `close` ends.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            b if b == close => {
                self.pos += 1;
                Ok(false)
            }
            other => Err(format!(
                "expected `,` or `{}`, got `{}` at byte {}",
                close as char, other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            if !self.more(b'}')? {
                return Ok(Json::Obj(pairs));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if !self.more(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole; the
            // input is a `&str`, and both delimiters are ASCII, so the
            // run is valid UTF-8.
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            let Some(&delim) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            if delim == b'"' {
                return Ok(out);
            }
            let e = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    self.pos += 4;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).ok_or_else(|| "bad \\u code point".to_string())?);
                }
                other => return Err(format!("unknown escape `\\{}`", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let v = Json::parse(
            " {\"s\":\"a\\u00e9\\/\\b\",\"i\":-7,\"f\":1.5e3,\"t\":true,\"n\":null,\
             \"a\":[1,[],{}]} ",
        )
        .expect("parse");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aé/\u{8}"));
        assert_eq!(v.get("i").and_then(Json::as_i64), Some(-7));
        assert_eq!(v.get("i").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_stay_exact_at_the_type_limits() {
        let doc = format!("[{},{}]", u64::MAX, i64::MIN);
        let v = Json::parse(&doc).expect("parse");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[0].as_i64(), None);
        assert_eq!(items[1].as_i64(), Some(i64::MIN));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "{\"a\":}", "[1,]", "[1 2]", "\"open", "\"\\q\"", "tru", "1 2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep).unwrap_err().contains("nested deeper"));
    }

    #[test]
    fn quote_is_inverted_by_parse() {
        let s = "weird \"name\"\\\n\t\r\u{1}µ";
        assert_eq!(Json::parse(&quote(s)), Ok(Json::Str(s.to_string())));
    }
}
