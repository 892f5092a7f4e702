//! The raw `.hhlp` script surface: lexical format, parsing, rule table.
//!
//! ```text
//! file    ::= header? line*
//! header  ::= 'hhlp' INT                      # format version, currently 1
//! line    ::= '' | '#' …                      # blank / comment
//!           | 'step' LABEL RULE (KEY '=' value)*
//! value   ::= '{' text '}'                    # assertion / expr / command
//!           | WORD (',' WORD)*                # labels, identifiers, ints
//! ```
//!
//! `LABEL`, `RULE`, `KEY` and `WORD` are runs of `[A-Za-z0-9_.·-]`; braced
//! text runs to the *matching* `}` — braces nest, so commands spelling
//! loop/choice blocks (`{ C }*`, `{ C1 } + { C2 }`) round-trip. One step
//! per line; the **last** step is the proof's root.

use std::fmt;

/// The rule names accepted in scripts, with the paper figure each comes
/// from. Shared by the elaborator (dispatch), the emitter (serialization)
/// and the CLI/README documentation.
pub const RULE_TABLE: &[(&str, &str)] = &[
    ("skip", "Fig. 2 Skip"),
    ("seq", "Fig. 2 Seq"),
    ("choice", "Fig. 2 Choice"),
    ("cons", "Fig. 2 Cons"),
    ("cons-pre", "Fig. 2 Cons (precondition only)"),
    ("exists", "Fig. 2 Exist"),
    ("iter", "Fig. 2 Iter"),
    ("assign-s", "Fig. 3 AssignS"),
    ("havoc-s", "Fig. 3 HavocS"),
    ("assume-s", "Fig. 3 AssumeS"),
    ("while-sync", "Fig. 5 WhileSync"),
    ("if-sync", "Fig. 5 IfSync"),
    ("while-forall-exists", "Fig. 5 While-∀*∃*"),
    ("while-exists", "Fig. 5 While-∃"),
    ("while-desugared", "Fig. 5 WhileDesugared"),
    ("and", "Fig. 11 And"),
    ("or", "Fig. 11 Or"),
    ("union", "Fig. 11 Union"),
    ("big-union", "Fig. 11 BigUnion"),
    ("indexed-union", "Fig. 11 IndexedUnion"),
    ("frame-safe", "Fig. 11 FrameSafe"),
    ("specialize", "Fig. 11 Specialize"),
    ("lupdate-s", "Fig. 11 LUpdateS"),
    ("true", "Fig. 11 True"),
    ("false", "Fig. 11 False"),
    ("empty", "Fig. 11 Empty"),
    ("forall", "Fig. 11 Forall"),
    ("frame-t", "Fig. 14 Frame(⇓)"),
    ("while-sync-term", "Fig. 14 WhileSyncTerm"),
    ("oracle", "semantic admission (Def. 5)"),
];

/// A parsed argument value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arg {
    /// Braced free text `{…}` — an assertion, expression, command or note,
    /// parsed by the elaborator with the matching surface parser.
    Text(String),
    /// Bare words — step labels, identifiers or integers. A comma-separated
    /// list parses into multiple words.
    Words(Vec<String>),
}

/// One `step` line.
#[derive(Clone, Debug)]
pub struct Step {
    /// The step's label, referenced by later steps.
    pub label: String,
    /// Rule name (see [`RULE_TABLE`]).
    pub rule: String,
    /// Named arguments in source order.
    pub args: Vec<(String, Arg)>,
    /// 1-based source line, for error spans.
    pub line: usize,
}

/// A parsed `.hhlp` script: an ordered list of steps, last one the root.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// The steps, in source order.
    pub steps: Vec<Step>,
}

/// Error produced by script parsing or elaboration, spanning the offending
/// source position.
#[derive(Clone, Debug)]
pub struct ScriptError {
    /// 1-based source line (0 for file-level errors).
    pub line: usize,
    /// 1-based column, when known (0 otherwise).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (0, _) => write!(f, "proof script error: {}", self.message),
            (l, 0) => write!(f, "proof script error at line {l}: {}", self.message),
            (l, c) => write!(
                f,
                "proof script error at line {l}, col {c}: {}",
                self.message
            ),
        }
    }
}

impl std::error::Error for ScriptError {}

pub(crate) fn err<T>(
    line: usize,
    col: usize,
    message: impl Into<String>,
) -> Result<T, ScriptError> {
    Err(ScriptError {
        line,
        col,
        message: message.into(),
    })
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '·')
}

/// Cursor over one source line, tracking the column for error spans.
struct LineCursor<'a> {
    line: usize,
    src: &'a str,
    /// Byte offset into `src`.
    pos: usize,
}

impl<'a> LineCursor<'a> {
    fn col(&self) -> usize {
        self.src[..self.pos].chars().count() + 1
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn word(&mut self, what: &str) -> Result<&'a str, ScriptError> {
        self.skip_ws();
        let start = self.pos;
        let end = self
            .rest()
            .find(|c| !is_word_char(c))
            .map_or(self.src.len(), |i| start + i);
        if end == start {
            return err(self.line, self.col(), format!("expected {what}"));
        }
        self.pos = end;
        Ok(&self.src[start..end])
    }

    fn value(&mut self) -> Result<Arg, ScriptError> {
        self.skip_ws();
        if self.rest().starts_with('{') {
            // Braces nest: command text spells loop/choice blocks as
            // `{ C }* ` / `{ C1 } + { C2 }`, so the value runs to the
            // *matching* close brace, not the first one.
            let start = self.pos + 1;
            let mut depth = 0usize;
            for (i, c) in self.rest().char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            let end = self.pos + i;
                            self.pos = end + 1;
                            return Ok(Arg::Text(self.src[start..end].trim().to_owned()));
                        }
                    }
                    _ => {}
                }
            }
            err(self.line, self.col(), "unterminated `{`")
        } else {
            let mut words = vec![self.word("argument value")?.to_owned()];
            while self.rest().starts_with(',') {
                self.pos += 1;
                words.push(self.word("argument value after `,`")?.to_owned());
            }
            Ok(Arg::Words(words))
        }
    }
}

/// Parses a `.hhlp` script.
///
/// # Errors
///
/// [`ScriptError`] spanning the first offending line and column.
///
/// # Examples
///
/// ```
/// use hhl_proofs::parse_script;
/// let s = parse_script("hhlp 1\n# Fig. 2 Skip\nstep s1 skip p={low(l)}\n").unwrap();
/// assert_eq!(s.steps.len(), 1);
/// assert_eq!(s.steps[0].rule, "skip");
/// ```
pub fn parse_script(src: &str) -> Result<Script, ScriptError> {
    let mut steps = Vec::new();
    let mut seen_content = false;
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut cur = LineCursor {
            line,
            src: raw,
            pos: 0,
        };
        let head = cur.word("`step` (or a `hhlp <version>` header)")?;
        if head == "hhlp" {
            if seen_content {
                return err(line, 1, "`hhlp` header must be the first content line");
            }
            seen_content = true;
            let version = cur.word("format version")?;
            if version != "1" {
                return err(
                    line,
                    cur.col(),
                    format!("unsupported format version {version:?} (this tool reads hhlp 1)"),
                );
            }
            if !cur.at_end() {
                return err(line, cur.col(), "trailing input after `hhlp` header");
            }
            continue;
        }
        seen_content = true;
        if head != "step" {
            return err(line, 1, format!("expected `step`, found {head:?}"));
        }
        let label = cur.word("step label")?.to_owned();
        let rule = cur.word("rule name")?.to_owned();
        let mut args = Vec::new();
        while !cur.at_end() {
            let key = cur.word("argument key")?.to_owned();
            cur.skip_ws();
            if !cur.rest().starts_with('=') {
                return err(
                    cur.line,
                    cur.col(),
                    format!("expected `=` after key `{key}`"),
                );
            }
            cur.pos += 1;
            if args.iter().any(|(k, _)| *k == key) {
                return err(cur.line, cur.col(), format!("duplicate argument `{key}`"));
            }
            args.push((key, cur.value()?));
        }
        steps.push(Step {
            label,
            rule,
            args,
            line,
        });
    }
    if steps.is_empty() {
        return err(0, 0, "empty proof script: no `step` lines");
    }
    Ok(Script { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_steps_with_mixed_args() {
        let s = parse_script(
            "hhlp 1\n\
             step a1 assign-s x=l e={l * 2} post={low(l)}\n\
             step root cons pre={low(l)} post={low(l)} from=a1\n",
        )
        .unwrap();
        assert_eq!(s.steps.len(), 2);
        assert_eq!(s.steps[0].label, "a1");
        assert_eq!(
            s.steps[0].args[1],
            ("e".to_owned(), Arg::Text("l * 2".to_owned()))
        );
        assert_eq!(
            s.steps[1].args[2],
            ("from".to_owned(), Arg::Words(vec!["a1".to_owned()]))
        );
        assert_eq!(s.steps[1].line, 3);
    }

    #[test]
    fn braced_values_nest() {
        // Command text spells loops as `{ C }*` — the value must run to the
        // matching brace, not the first `}` (regression: oracle steps over
        // loop programs were unparseable).
        let s = parse_script(
            "step s oracle pre={true} cmd={{ assume x > 0; x := x - 1 }*; assume !(x > 0)} \
             post={true} note={admitted}\n",
        )
        .unwrap();
        assert_eq!(
            s.steps[0].args[1],
            (
                "cmd".to_owned(),
                Arg::Text("{ assume x > 0; x := x - 1 }*; assume !(x > 0)".to_owned())
            )
        );
    }

    #[test]
    fn parses_comma_separated_premises() {
        let s = parse_script("step s seq premises=a,b,c\n").unwrap();
        let Arg::Words(ws) = &s.steps[0].args[0].1 else {
            panic!("premises must be words");
        };
        assert_eq!(ws, &["a", "b", "c"]);
    }

    #[test]
    fn spans_point_at_the_offense() {
        let e = parse_script("step s1 skip p={low(l)\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unterminated"), "{e}");

        let e = parse_script("step s1 skip p low(l)\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected `=`"), "{e}");

        let e = parse_script("hhlp 2\n").unwrap_err();
        assert!(e.message.contains("unsupported format version"), "{e}");

        let e = parse_script("walk s1 skip\n").unwrap_err();
        assert!(e.message.contains("expected `step`"), "{e}");
    }

    #[test]
    fn rejects_duplicate_keys_and_empty_scripts() {
        let e = parse_script("step s1 skip p={true} p={false}\n").unwrap_err();
        assert!(e.message.contains("duplicate argument"), "{e}");
        assert!(parse_script("# only comments\n").is_err());
    }

    #[test]
    fn header_must_lead() {
        let e = parse_script("step s1 skip p={true}\nhhlp 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("first content line"), "{e}");
    }

    #[test]
    fn rule_table_is_deduplicated() {
        let mut names: Vec<&str> = RULE_TABLE.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULE_TABLE.len());
    }
}
