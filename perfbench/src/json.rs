//! Minimal JSON output for the benchmark's manifests and results. Input
//! is read back with the verifier's own codec (`hhl_cli::api::parse_json`).

use std::fmt::Write;

use hhl_cli::api::Json;

/// Quotes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON array of strings.
pub fn str_array<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s.as_ref())).collect();
    format!("[{}]", quoted.join(","))
}

/// A JSON array of numbers.
pub fn num_array<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(|n| n.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// Builds one JSON object from already-rendered values, in insertion
/// order.
#[derive(Default)]
pub struct Obj(pub Vec<(String, String)>);

impl Obj {
    /// Adds a raw (already rendered) value.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Obj {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Adds a string value.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, quote(value))
    }

    /// Adds a numeric value.
    pub fn num(self, key: &str, value: impl std::fmt::Display) -> Obj {
        self.raw(key, value.to_string())
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Looks up `key` in a parsed JSON object.
pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A string field of a parsed object.
pub fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    match get(doc, key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("manifest field `{key}` must be a string")),
    }
}

/// A string-array field of a parsed object.
pub fn get_strs(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    match get(doc, key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("manifest field `{key}` must hold strings")),
            })
            .collect(),
        _ => Err(format!("manifest field `{key}` must be an array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_objects_parse_back() {
        let doc = Obj::default()
            .str("name", "a \"quoted\"\nline\t\u{1}")
            .num("n", 3)
            .raw("xs", str_array(&["x", "y"]))
            .render();
        let parsed = hhl_cli::api::parse_json(&doc).unwrap();
        assert_eq!(
            get_str(&parsed, "name").unwrap(),
            "a \"quoted\"\nline\t\u{1}"
        );
        assert!(matches!(get(&parsed, "n"), Some(Json::Num(n)) if n == "3"));
        assert_eq!(get_strs(&parsed, "xs").unwrap(), vec!["x", "y"]);
    }
}
