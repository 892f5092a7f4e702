//! The workspace's one JSON codec: a value tree ([`Json`]), its parser
//! ([`parse_json`]) and the string escaper ([`escape_json`]) behind every
//! JSON surface — the `hhl-request`/`hhl-response v1` wire format, the
//! `hhl-report v1` document and the `BENCH_*.json` baselines.
//!
//! Only reading builds a tree. Each format renders from its own fixed
//! template with [`escape_json`], so its bytes stay exactly as specified,
//! and readers walk the parsed tree, so they do not depend on layout.
//! Numbers keep their raw spelling ([`Json::Num`]): each reader parses
//! them into the type it needs, which keeps float round-tripping out of
//! the codec and lets re-rendering reproduce the input byte-for-byte.

use std::fmt::Write as _;
use std::str::FromStr;

/// Escapes a string for embedding in a JSON double-quoted literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Numbers keep their raw spelling: each reader
/// parses them into the type it needs, so the codec never round-trips a
/// float.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, unparsed.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order (duplicates kept; lookups take
    /// the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` (the first one when duplicated); `None` when
    /// the key is absent or `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number parsed from its raw spelling, if `self` is a number that
    /// fits `T`.
    pub fn as_num<T: FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Field `key` as a string, or an error naming the key.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} must be a string")),
        }
    }

    /// Field `key` parsed from its number spelling, or an error naming the
    /// key and the spelling.
    pub fn num_at<T: FromStr>(&self, key: &str) -> Result<T, String> {
        match self.field(key)? {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| format!("bad number {key:?}: {raw:?}")),
            _ => Err(format!("field {key:?} must be a number")),
        }
    }

    /// Field `key` as an array, or an error naming the key.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], String> {
        match self.field(key)? {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("field {key:?} must be an array")),
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected {want:?} at byte {}, got {c:?}", self.pos)),
            None => Err(format!("expected {want:?}, got end of input")),
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|c| c.to_digit(16))
                .ok_or("bad \\u escape")?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = self.hex4()?;
                        // A high surrogate followed by a low one is one
                        // non-BMP character (how `json.dumps` and most
                        // encoders write it). Anything else that is not a
                        // scalar value — a lone surrogate of either half —
                        // maps to the replacement character, not an error.
                        if (0xd800..0xdc00).contains(&code)
                            && self.src[self.pos..].starts_with("\\u")
                        {
                            let rewind = self.pos;
                            self.pos += 2;
                            match self.hex4() {
                                Ok(low) if (0xdc00..0xe000).contains(&low) => {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                }
                                _ => self.pos = rewind,
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some('{') => {
                self.bump();
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(':')?;
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some('}') => return Ok(Json::Obj(fields)),
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some(']') => return Ok(Json::Arr(items)),
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some('-' | '+' | '.' | 'e' | 'E' | '0'..='9')) {
                    self.bump();
                }
                Ok(Json::Num(self.src[start..self.pos].to_owned()))
            }
            Some(c) => Err(format!("unexpected character {c:?}")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut cursor = Cursor { src: text, pos: 0 };
    let value = cursor.value()?;
    cursor.skip_ws();
    if cursor.pos != text.len() {
        return Err(format!("trailing input at byte {}", cursor.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string_of(literal: &str) -> String {
        match parse_json(literal) {
            Ok(Json::Str(s)) => s,
            other => panic!("{literal}: {other:?}"),
        }
    }

    #[test]
    fn escape_and_unescape_are_inverse() {
        for nasty in [
            "a\"b\\c\nd\te\u{1}f ⊢ g",
            "a\"b\\c\nd\te\u{1}f ⊢ g\n",
            "",
            "\r\u{7f}\u{1f}😀",
        ] {
            let literal = format!("\"{}\"", escape_json(nasty));
            assert_eq!(string_of(&literal), nasty, "{literal}");
        }
    }

    #[test]
    fn surrogate_pairs_join_into_one_character() {
        assert_eq!(string_of(r#""\ud83d\ude00""#), "😀");
        assert_eq!(string_of(r#""a\ud83d\ude00b""#), "a😀b");
        assert_eq!(string_of(r#""\udbff\udfff""#), "\u{10ffff}");
    }

    #[test]
    fn lone_surrogates_become_the_replacement_character() {
        for (literal, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            // A high surrogate before a non-surrogate escape leaves that
            // escape to decode on its own.
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(string_of(literal), want, "{literal}");
        }
        assert!(parse_json(r#""\ud83d\uzz00""#).is_err());
    }

    #[test]
    fn typed_accessors_name_the_offending_key() {
        let doc = parse_json(r#"{"s":"x","n":12,"f":1.5,"a":[1],"s":"dup"}"#).unwrap();
        assert_eq!(doc.str_at("s"), Ok("x"), "duplicates: first wins");
        assert_eq!(doc.num_at::<u64>("n"), Ok(12));
        assert_eq!(doc.num_at::<f64>("f"), Ok(1.5));
        assert_eq!(doc.arr_at("a").map(<[Json]>::len), Ok(1));
        assert_eq!(
            doc.num_at::<u8>("f"),
            Err("bad number \"f\": \"1.5\"".to_owned())
        );
        assert_eq!(
            doc.str_at("n"),
            Err("field \"n\" must be a string".to_owned())
        );
        assert_eq!(doc.arr_at("zz"), Err("missing field \"zz\"".to_owned()));
        assert_eq!(Json::Null.get("s"), None);
    }
}
