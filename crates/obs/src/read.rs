//! Typed reading of the per-event log lines, the inverse of [`line`].
//!
//! A probe or decision line is read straight from the shim's pull
//! [`Tokenizer`]: the top-level keys are matched as borrowed slices, in
//! any order, and each known key's value is kept as a [`Field`]. No
//! `Value` is built for a scalar and no `String` for a key or a string
//! without escapes; an array or object member (a report body) is kept
//! as its compact text, a [`RawJson`], not as a tree. The result is
//! what indexing a parsed `Value` gives: the first of duplicate keys
//! wins, unknown keys are skipped (but still checked), a missing key
//! reads as `null`, and a line that is not an object has no members at
//! all. Errors are the shim's own, so a line that is not JSON fails
//! with the message, line and column `serde_json::from_str` gives.
//!
//! [`line`]: crate::line

use std::borrow::Cow;
use std::fmt;
use std::ops::Index;

use inet::Addr;
use serde_json::{RawJson, Token, Tokenizer, Value};

use crate::event::Phase;

/// The value of one top-level member.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) enum Field<'a> {
    /// `null`, or the key is missing.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as the shim parses it.
    Number(f64),
    /// A string, borrowed from the line unless it holds escapes.
    Str(Cow<'a, str>),
    /// An object or array, kept as its compact text (a report body).
    Raw(RawJson),
}

impl Field<'_> {
    /// `true` for `null` and for a missing key.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Field::Null)
    }

    /// The string, if this is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, exactly as [`Value::as_u64`] converts it.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Number(n) => Value::Number(*n).as_u64(),
            _ => None,
        }
    }

    /// The field as a `Value`.
    pub(crate) fn into_value(self) -> Value {
        match self {
            Field::Null => Value::Null,
            Field::Bool(b) => Value::Bool(b),
            Field::Number(n) => Value::Number(n),
            Field::Str(s) => Value::String(s.into_owned()),
            Field::Raw(raw) => Value::Raw(raw),
        }
    }
}

impl fmt::Display for Field<'_> {
    /// Compact JSON, as the shim prints the same value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.clone().into_value().fmt(f)
    }
}

labels! {
    /// The keys an exchange-log line may carry: every probe and decision
    /// key, the line type and the report line's body. Probe lines carry
    /// their keys in this order, so the key after the previous one is
    /// tried first. The header shares `type`, `vantage` and `proto`.
    pub(crate) enum Key {
        Tick = "tick",
        Session = "session",
        Vantage = "vantage",
        Dst = "dst",
        Ttl = "ttl",
        Proto = "proto",
        Flow = "flow",
        Attempt = "attempt",
        Outcome = "outcome",
        From = "from",
        Phase = "phase",
        Cause = "cause",
        TimeoutCause = "timeout_cause",
        Unreach = "unreach",
        Type = "type",
        Hop = "hop",
        Subject = "subject",
        Verdict = "verdict",
        Evidence = "evidence",
        Report = "report",
    }
}

labels! {
    /// The `type` of a line that is not a probe line.
    pub(crate) enum LineType {
        Header = "header",
        Decision = "decision",
        Report = "report",
    }
}

/// How many [`Key`]s there are.
const KEYS: usize = Key::ALL.len();

/// The index of the key named `name`, trying index `hint` first.
fn key_index(name: &str, hint: usize) -> Option<usize> {
    match Key::ALL.get(hint) {
        Some(key) if key.label() == name => Some(hint),
        _ => Key::from_label(name).map(Key::index),
    }
}

/// One log line's members, by [`Key`].
#[derive(Debug, Default)]
pub(crate) struct Line<'a> {
    fields: [Field<'a>; KEYS],
}

impl<'a> Line<'a> {
    /// Reads one line into these members, which must be empty (a fresh
    /// `Line::default()`), checking all of the line as JSON. The members
    /// are filled in place: a line is a few hundred bytes, and returning
    /// it by value would copy them on every read.
    pub(crate) fn read(&mut self, text: &'a str) -> Result<(), serde_json::Error> {
        let mut tokens = Tokenizer::new(text);
        let first = tokens.next_token()?;
        if first == Token::ObjectStart {
            let mut seen = 0u32;
            let mut hint = 0;
            loop {
                match tokens.next_token()? {
                    Token::ObjectEnd => break,
                    Token::Key(name) => {
                        let value = tokens.next_token()?;
                        match key_index(&name, hint) {
                            Some(key) if seen & (1 << key) == 0 => {
                                seen |= 1 << key;
                                hint = key + 1;
                                self.fields[key] = field(&mut tokens, value)?;
                            }
                            _ => tokens.skip(value)?,
                        }
                    }
                    _ => unreachable!("an object holds keys"),
                }
            }
        } else {
            tokens.skip(first)?;
        }
        match tokens.next_token()? {
            Token::End => Ok(()),
            _ => unreachable!("the tokenizer ends the document after its value"),
        }
    }

    /// Moves one member's value out, leaving `null`.
    pub(crate) fn take(&mut self, key: Key) -> Field<'a> {
        std::mem::take(&mut self.fields[key.index()])
    }

    /// A string member, before its value is checked.
    pub(crate) fn str(&self, key: Key) -> Result<&str, String> {
        self[key].as_str().ok_or_else(|| format!("{key}: expected string"))
    }

    /// A string member that is one of a label set's labels.
    pub(crate) fn label<T>(
        &self,
        key: Key,
        from_label: fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let label = self.str(key)?;
        from_label(label).ok_or_else(|| format!("{key}: unknown value {label:?}"))
    }

    /// A `null`-able label: `None` for `null`, else the label's parse.
    pub(crate) fn opt_label<T>(
        &self,
        key: Key,
        from_label: fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let field = &self[key];
        let label = field.as_str().and_then(from_label);
        self.opt(key, || label.ok_or_else(|| format!("{key}: unknown value {field}")))
    }

    /// An unsigned integer member no larger than `max`.
    pub(crate) fn uint(&self, key: Key, max: u64) -> Result<u64, String> {
        let n = self[key].as_u64().ok_or_else(|| format!("{key}: expected unsigned integer"))?;
        if n > max {
            return Err(format!("{key}: {n} out of range"));
        }
        Ok(n)
    }

    /// A `null`-able unsigned integer.
    pub(crate) fn opt_uint(&self, key: Key) -> Result<Option<u64>, String> {
        self.opt(key, || self.uint(key, u64::MAX))
    }

    /// An address member, as a dotted quad.
    pub(crate) fn addr(&self, key: Key) -> Result<Addr, String> {
        self.str(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// A `null`-able address.
    pub(crate) fn opt_addr(&self, key: Key) -> Result<Option<Addr>, String> {
        self.opt(key, || self.addr(key))
    }

    /// `None` for a `null` member, else what `read` makes of it.
    fn opt<T>(
        &self,
        key: Key,
        read: impl FnOnce() -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        (!self[key].is_null()).then(read).transpose()
    }
}

impl<'a> Index<Key> for Line<'a> {
    type Output = Field<'a>;

    fn index(&self, key: Key) -> &Field<'a> {
        &self.fields[key.index()]
    }
}

/// The value `first` starts, as a field.
fn field<'a>(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Field<'a>, serde_json::Error> {
    Ok(match first {
        Token::Null => Field::Null,
        Token::Bool(b) => Field::Bool(b),
        Token::Number(n) => Field::Number(n),
        Token::String(s) => Field::Str(s),
        container => Field::Raw(tokens.raw(container)?),
    })
}

/// Checks a line's logged phase against the one its other fields
/// derive: the phase is written for readers, never read as a fact.
pub(crate) fn check_phase(logged: Option<Phase>, derived: Option<Phase>) -> Result<(), String> {
    if logged == derived {
        return Ok(());
    }
    let label = |p: Option<Phase>| p.map_or("null", Phase::label);
    Err(format!("phase: logged as {}, derived as {}", label(logged), label(derived)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Result<Line<'_>, serde_json::Error> {
        let mut line = Line::default();
        line.read(text).map(|()| line)
    }

    #[test]
    fn first_key_wins_and_unknown_keys_are_skipped() {
        let line = read(r#"{"x":[1,{"y":2}],"ttl":3,"ttl":"no","phase":"a\"b"}"#).unwrap();
        assert_eq!(line[Key::Ttl], Field::Number(3.0));
        assert_eq!(line[Key::Phase].as_str(), Some("a\"b"));
        assert!(line[Key::Tick].is_null());
    }

    #[test]
    fn non_objects_have_no_members() {
        for text in ["[1,2]", "\"tick\"", "7", "null"] {
            let line = read(text).unwrap();
            assert!(line.fields.iter().all(Field::is_null), "{text}");
        }
    }

    #[test]
    fn errors_are_the_shims() {
        for text in ["{\"ttl\":1,}", "{\"report\":[1,}", "[1] x", "{\"ttl\":-}", ""] {
            let want = serde_json::from_str(text).unwrap_err().to_string();
            assert_eq!(read(text).unwrap_err().to_string(), want, "{text}");
        }
    }

    #[test]
    fn fields_print_like_values() {
        let line = read(r#"{"phase":"\u0007","cause":1.5e3,"hop":{"a":[true]}}"#).unwrap();
        assert_eq!(line[Key::Phase].to_string(), r#""\u0007""#);
        assert_eq!(line[Key::Cause].to_string(), "1500");
        assert_eq!(line[Key::Hop].to_string(), r#"{"a":[true]}"#);
    }
}
