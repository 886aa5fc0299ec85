//! The vendored `serde_json` shim against its earlier, straightforward
//! implementation, kept here as the oracle: a parser that decodes
//! strings one scalar at a time and hands every number to
//! `str::parse::<f64>`, and writers that format every number and push
//! strings one `char` at a time. The shim's fast paths must print the
//! oracle's exact bytes, read back the same values bit for bit, and
//! reject bad input with the oracle's exact message, line and column.

use proptest::prelude::*;
use serde_json::{json, Value};

/// The reference parser and writers.
mod oracle {
    use serde_json::Value;

    pub fn from_str(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        /// The error's `Display`: message, line and column.
        fn err(&self, msg: impl Into<String>) -> String {
            let mut line = 1;
            let mut col = 1;
            for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            format!("{} at line {line} column {col}", msg.into())
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err("expected value"))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, String> {
            if depth > MAX_DEPTH {
                return Err(self.err("recursion limit exceeded"));
            }
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(_) => Err(self.err("expected value")),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let cp = self.hex4()?;
                                let ch = if (0xD800..0xDC00).contains(&cp) {
                                    if !(self.peek() == Some(b'\\')
                                        && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                    {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                } else {
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                };
                                out.push(ch);
                                continue;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(self.err("control character in string"));
                    }
                    Some(_) => {
                        let start = self.pos;
                        self.pos += 1;
                        while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.err("invalid utf8"))?,
                        );
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut cp = 0u32;
            for _ in 0..4 {
                match self.peek().and_then(|b| (b as char).to_digit(16)) {
                    Some(d) => {
                        cp = cp * 16 + d;
                        self.pos += 1;
                    }
                    None => return Err(self.err("invalid \\u escape")),
                }
            }
            Ok(cp)
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("expected fraction digit"));
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("expected exponent digit"));
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>().map(Value::Number).map_err(|_| self.err("invalid number"))
        }
    }

    pub fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, None, 0);
        out
    }

    pub fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, Some(2), 0);
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Raw(_) => unreachable!("the oracle writes trees"),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, value, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
    }

    fn write_number(out: &mut String, n: f64) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// `Debug` prints every `f64` so that it reads back to the same bits,
/// `-0.0` included, so equal renderings mean bit-identical trees.
fn bits(v: &Value) -> String {
    format!("{v:?}")
}

fn pick<T: Copy>(r: &mut TestRunner, options: &[T]) -> T {
    options[r.below(options.len() as u64) as usize]
}

const MAX_EXACT: u64 = 1 << 53;

/// Finite numbers: integers up to ±2^53 (often at a digit-count edge),
/// `-0`, fractions, exponents, and arbitrary finite bit patterns.
fn number(r: &mut TestRunner) -> f64 {
    let sign = if r.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
    match r.below(6) {
        0 => {
            let edge: [u64; 7] = [0, 1, 9, 10, 99, 999_999_999_999_999, 1_000_000_000_000_000];
            sign * pick(r, &edge) as f64
        }
        1 => sign * pick(r, &[MAX_EXACT - 1, MAX_EXACT, MAX_EXACT + 2, 9e15 as u64]) as f64,
        2 => sign * r.below(MAX_EXACT + 1) as f64,
        3 => sign * r.below(1 << 20) as f64 / pick(r, &[2.0, 3.0, 10.0, 1e7, 1024.0]),
        4 => pick(r, &[-0.0, 0.1, 1e21, 1.5e300, 5e-324, f64::MAX, f64::MIN_POSITIVE, 1e-7]),
        _ => loop {
            let x = f64::from_bits(r.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// Text mixing plain characters with quotes, backslashes, every control
/// character, DEL and multi-byte characters up to the astral plane.
fn text(r: &mut TestRunner) -> String {
    let len = r.below(16);
    (0..len)
        .map(|_| match r.below(5) {
            0 => pick(r, &['"', '\\', '/', '\u{7f}', 'é', '→', '😀', '\u{fffd}', '\u{10ffff}']),
            1 => char::from(r.below(0x20) as u8),
            2 => char::from_u32(r.below(0x11_0000) as u32).unwrap_or('x'),
            _ => char::from(0x20 + r.below(0x5f) as u8),
        })
        .collect()
}

fn value(r: &mut TestRunner, depth: u32) -> Value {
    let leaf = depth == 0 || r.below(3) == 0;
    match r.below(if leaf { 4 } else { 6 }) {
        0 => pick(r, &[None, Some(true), Some(false)]).map_or(Value::Null, Value::Bool),
        1 | 2 => Value::Number(number(r)),
        3 => Value::String(text(r)),
        4 => Value::Array((0..r.below(5)).map(|_| value(r, depth - 1)).collect()),
        _ => Value::Object((0..r.below(5)).map(|_| (text(r), value(r, depth - 1))).collect()),
    }
}

struct AnyValue;

impl Strategy for AnyValue {
    type Value = Value;
    fn generate(&self, r: &mut TestRunner) -> Value {
        value(r, 4)
    }
}

/// Changes one leaf of `v`, a scalar or an empty container reached by
/// random members, so that `v` prints differently.
fn change_one_leaf(r: &mut TestRunner, v: &mut Value) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            let i = r.below(items.len() as u64) as usize;
            change_one_leaf(r, &mut items[i]);
        }
        Value::Object(members) if !members.is_empty() => {
            let i = r.below(members.len() as u64) as usize;
            change_one_leaf(r, &mut members[i].1);
        }
        Value::String(s) => s.push('x'),
        leaf => *leaf = Value::String(String::new()),
    }
}

/// A tree, and a copy of it with one leaf changed.
struct OneLeafApart;

impl Strategy for OneLeafApart {
    type Value = (Value, Value);
    fn generate(&self, r: &mut TestRunner) -> (Value, Value) {
        let v = value(r, 4);
        let mut changed = v.clone();
        change_one_leaf(r, &mut changed);
        (v, changed)
    }
}

/// The raw form of the document `text`, as the tokenizer reads it.
fn raw_of(text: &str) -> Value {
    let mut tokens = serde_json::Tokenizer::new(text);
    let first = tokens.next_token().unwrap();
    Value::Raw(tokens.raw(first).unwrap())
}

/// A signed run of 1 to 20 digits, leading zeros allowed.
struct DigitString;

impl Strategy for DigitString {
    type Value = String;
    fn generate(&self, r: &mut TestRunner) -> String {
        let mut s = String::new();
        if r.next_u64() & 1 == 1 {
            s.push('-');
        }
        let len = 1 + r.below(20);
        let zeros = if r.below(4) == 0 { r.below(len) } else { 0 };
        for i in 0..len {
            let d = if i < zeros { 0 } else { r.below(10) };
            s.push(char::from(b'0' + d as u8));
        }
        s
    }
}

/// A valid document, compact or pretty, with up to eight edits: cut
/// short, bytes flipped, bytes inserted.
struct EditedDocument;

impl Strategy for EditedDocument {
    type Value = String;
    fn generate(&self, r: &mut TestRunner) -> String {
        let v = value(r, 4);
        edited_print(r, &v)
    }
}

/// `v` printed compact or pretty, with up to eight edits.
fn edited_print(r: &mut TestRunner, v: &Value) -> String {
    let doc = if r.next_u64() & 1 == 1 { oracle::to_string_pretty(v) } else { v.to_string() };
    let mut bytes = doc.into_bytes();
    for _ in 0..r.below(9) {
        let at = r.below(bytes.len() as u64 + 1) as usize;
        match r.below(3) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= (r.next_u64() as u8).max(1),
            _ => {
                let b = pick(r, &[b'"', b'\\', b'u', b'0', b'-', b'.', b'e', b'\n', 0x01]);
                bytes.insert(at, b);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Gives every key and string of `v` one of a few short spellings, most
/// of them without escapes, so that take reads often find what they
/// look for.
fn plain_names(r: &mut TestRunner, v: &mut Value) {
    const NAMES: &[&str] = &["", "a", "ab", "b", "é😀", "a\"b", "tab\t"];
    match v {
        Value::String(s) => *s = pick(r, NAMES).to_string(),
        Value::Array(items) => items.iter_mut().for_each(|item| plain_names(r, item)),
        Value::Object(members) => {
            for (key, value) in members {
                *key = pick(r, NAMES).to_string();
                plain_names(r, value);
            }
        }
        _ => {}
    }
}

/// An [`EditedDocument`], half the time with [`plain_names`], and the
/// reads to make in it, one a byte: `next_token` for half the bytes and
/// once they run out, a take read for the rest.
struct TakesAndTokens;

impl Strategy for TakesAndTokens {
    type Value = (String, Vec<u8>);
    fn generate(&self, r: &mut TestRunner) -> (String, Vec<u8>) {
        let mut v = value(r, 4);
        if r.next_u64() & 1 == 1 {
            plain_names(r, &mut v);
        }
        let doc = edited_print(r, &v);
        let picks = (0..r.below(2 * doc.len() as u64 + 2)).map(|_| r.next_u64() as u8).collect();
        (doc, picks)
    }
}

/// The tokens `next_token` alone gives for `doc`, through `End` or the
/// first error.
fn tokens_of(doc: &str) -> Vec<Result<serde_json::Token<'_>, String>> {
    let mut tokens = serde_json::Tokenizer::new(doc);
    let mut all = Vec::new();
    loop {
        let token = tokens.next_token().map_err(|e| e.to_string());
        let last = matches!(token, Ok(serde_json::Token::End) | Err(_));
        all.push(token);
        if last {
            return all;
        }
    }
}

/// Reads `doc` with the reads `picks` choose (see [`TakesAndTokens`]).
/// A take that succeeds must read the token `next_token` would give, and
/// one that fails must leave the tokenizer as it was: the tokens and the
/// first error must be those of `next_token` alone. The key, string and
/// `true`/`false` takes must succeed wherever that token is next and
/// spelled without escapes.
fn assert_takes_agree_with_next_token(doc: &str, picks: &[u8]) {
    use serde_json::Token;
    use std::borrow::Cow;

    let want = tokens_of(doc);
    let mut tokens = serde_json::Tokenizer::new(doc);
    let mut picks = picks.iter().copied();
    let mut at = 0;
    while at < want.len() {
        let next = &want[at];
        let pick = picks.next().unwrap_or(0);
        let took = match pick % 8 {
            4 => {
                // The next key, a prefix of it, a longer key or another.
                let key = match next {
                    Ok(Token::Key(k))
                        if !k.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) =>
                    {
                        k.to_string()
                    }
                    _ => "a".to_string(),
                };
                let key = match pick / 8 % 4 {
                    0 => key,
                    1 => key.char_indices().last().map_or(key.clone(), |(i, _)| key[..i].into()),
                    2 => key + "b",
                    _ => "ab".into(),
                };
                let took = tokens.take_key(&key);
                let key_next = matches!(next, Ok(Token::Key(Cow::Borrowed(k))) if *k == key);
                assert_eq!(took, key_next, "{doc:?}: take_key({key:?}) before {next:?}");
                took
            }
            5 => {
                let got = tokens.take_str();
                let want = match next {
                    Ok(Token::String(Cow::Borrowed(s))) => Some(*s),
                    _ => None,
                };
                assert_eq!(got, want, "{doc:?}: take_str before {next:?}");
                got.is_some()
            }
            6 => {
                let got = tokens.take_u64();
                if let Some(n) = got {
                    let same =
                        matches!(next, Ok(Token::Number(x)) if x.to_bits() == (n as f64).to_bits());
                    assert!(same, "{doc:?}: take_u64 gave {n} before {next:?}");
                }
                got.is_some()
            }
            7 => {
                let got = tokens.take_bool();
                let want = match next {
                    Ok(Token::Bool(b)) => Some(*b),
                    _ => None,
                };
                assert_eq!(got, want, "{doc:?}: take_bool before {next:?}");
                got.is_some()
            }
            _ => {
                let got = tokens.next_token().map_err(|e| e.to_string());
                assert_eq!(&got, next, "{doc:?}: token {at}");
                true
            }
        };
        at += usize::from(took);
    }
}

/// Reads `doc` with [`serde_json::Tokenizer::raw`]: its text, or the error.
fn read_raw(doc: &str) -> Result<String, String> {
    let mut tokens = serde_json::Tokenizer::new(doc);
    let raw = tokens.next_token().and_then(|first| tokens.raw(first));
    let end = raw.and_then(|raw| tokens.next_token().map(|end| (raw, end)));
    match end {
        Ok((raw, serde_json::Token::End)) => Ok(raw.as_str().to_string()),
        Ok((_, token)) => panic!("{doc:?}: {token:?} after the document"),
        Err(e) => Err(e.to_string()),
    }
}

/// The shim parses `doc` to the oracle's tree bit for bit or fails with
/// its error, and the raw reader keeps that tree's compact text or fails
/// with the same error.
fn assert_parses_like_the_oracle(doc: &str) {
    let shim = serde_json::from_str(doc);
    let raw = shim.as_ref().map(Value::to_string).map_err(|e| e.to_string());
    assert_eq!(read_raw(doc), raw, "{doc:?}");
    match (shim, oracle::from_str(doc)) {
        (Ok(got), Ok(want)) => assert_eq!(bits(&got), bits(&want), "{doc:?}"),
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want, "{doc:?}"),
        (got, want) => panic!("{doc:?}: shim {got:?}, oracle {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn writers_print_the_oracles_bytes_and_read_back(v in AnyValue) {
        let compact = serde_json::to_string(&v);
        prop_assert_eq!(&compact, &oracle::to_string(&v));
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&pretty, &oracle::to_string_pretty(&v));
        for doc in [&compact, &pretty] {
            let back = serde_json::from_str(doc).unwrap();
            prop_assert_eq!(bits(&back), bits(&oracle::from_str(doc).unwrap()));
            // Only `-0` loses its sign in print; `==` ignores that.
            prop_assert_eq!(&back, &v);
        }
    }

    #[test]
    fn a_raw_value_prints_and_compares_as_its_tree((v, changed) in OneLeafApart) {
        let compact = serde_json::to_string(&v);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        for raw in [raw_of(&compact), raw_of(&pretty)] {
            prop_assert_eq!(&raw.to_string(), &compact);
            prop_assert_eq!(&serde_json::to_string(&raw), &compact);
            let mut bytes = Vec::new();
            serde_json::write_compact(&mut bytes, &raw);
            prop_assert_eq!(&bytes, compact.as_bytes());
            prop_assert_eq!(&serde_json::to_string_pretty(&raw).unwrap(), &pretty);

            // Both ways round: `==` matches on the pair.
            prop_assert_eq!(&raw, &v);
            prop_assert_eq!(&v, &raw);
            prop_assert_eq!(&raw, &raw_of(&compact));
            prop_assert_ne!(&raw, &changed);
            prop_assert_ne!(&changed, &raw);
            prop_assert_ne!(&raw, &raw_of(&changed.to_string()));
            // Parsed again, it is the tree: structural `==`, no raw side.
            prop_assert_eq!(&raw.to_tree(), &v);
            prop_assert_ne!(&raw.to_tree(), &changed);

            // Embedded in a tree, as a report line embeds its report.
            let line = |report: &Value| json!({"type": "report", "session": 3u8, "report": report});
            prop_assert_eq!(line(&raw).to_string(), line(&v).to_string());
            let pretty_line = |report: &Value| serde_json::to_string_pretty(&line(report)).unwrap();
            prop_assert_eq!(pretty_line(&raw), pretty_line(&v));
        }
    }

    #[test]
    fn digit_strings_parse_to_the_bits_of_str_parse(s in DigitString) {
        let want = s.parse::<f64>().unwrap().to_bits();
        prop_assert_eq!(serde_json::from_str(&s).unwrap().as_f64().map(f64::to_bits), Some(want));
    }

    #[test]
    fn edited_documents_parse_or_fail_like_the_oracle(doc in EditedDocument) {
        assert_parses_like_the_oracle(&doc);
    }

    #[test]
    fn take_reads_agree_with_next_token((doc, picks) in TakesAndTokens) {
        assert_takes_agree_with_next_token(&doc, &picks);
    }
}

/// The take reads at their edges: a key that is a prefix or an
/// extension of the next one, a key split from its `:` by whitespace or
/// missing it, numbers that are not plain or have 16 digits, literals
/// cut short, strings left open, values one level past the nesting
/// limit, and every read after the document's end. Each is tried
/// before every token.
#[test]
fn take_reads_at_their_edges_agree_with_next_token() {
    let deep = |depth: usize| format!("{}\"x\"{}", "[".repeat(depth), "]".repeat(depth));
    let docs = [
        r#"{"ab":1,"a":2,"abc":3}"#.to_string(),
        "{ \"a\" \r\n\t:  true ,\n\"b\"\t: false }".into(),
        r#"{"a" 1}"#.into(),
        r#"{"a":1,}"#.into(),
        "[0,01,-0,-1,1.0,1e0,1E0,999999999999999,1000000000000000,18446744073709551616,1x]".into(),
        "[tru, fals, true, false, truex]".into(),
        r#"["plain", "esc\"aped", "tab	", "open"#.into(),
        r#"{"a":"a"}"#.into(),
        "7 8".into(),
        deep(128),
        deep(129),
        format!("{}{{\"a\":1}}{}", "[".repeat(128), "]".repeat(128)),
    ];
    for doc in &docs {
        let len = tokens_of(doc).len();
        for pick in [4, 12, 20, 28, 5, 6, 7] {
            // Each read once before every token, then `next_token`.
            let picks: Vec<u8> = (0..len).flat_map(|_| [pick, 0]).collect();
            assert_takes_agree_with_next_token(doc, &picks);
        }
    }
}

/// The integer fast path's edges, and `-0`, one by one.
#[test]
fn integer_edges_parse_to_the_bits_of_str_parse() {
    for s in [
        "0",
        "-0",
        "-000",
        "000000000000000",
        "999999999999999",
        "-999999999999999",
        "1000000000000000",
        "9007199254740991",
        "9007199254740993",
        "-9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
    ] {
        let want = s.parse::<f64>().unwrap().to_bits();
        assert_eq!(serde_json::from_str(s).unwrap().as_f64().map(f64::to_bits), Some(want), "{s}");
    }
}

/// Every byte inside a string, raw and after a backslash, and every
/// malformed number shape, parse or fail like the oracle.
/// The shim scans strings eight bytes at a time: put every ASCII byte,
/// and a multi-byte character, at every offset of a string longer than
/// two such words, as a value and as a key.
#[test]
fn every_byte_at_every_offset_of_a_long_string_parses_like_the_oracle() {
    let specials = (0..=0x7fu8).map(char::from).chain(['é', '😀']);
    for c in specials {
        for at in 0..20 {
            let text = format!("{}{c}{}", "x".repeat(at), "y".repeat(19 - at));
            assert_parses_like_the_oracle(&format!("\"{text}\""));
            assert_parses_like_the_oracle(&format!("{{\"{text}\":1}}"));
        }
    }
}

#[test]
fn every_byte_in_a_string_parses_like_the_oracle() {
    for b in 0..=0x7fu8 {
        let c = char::from(b);
        assert_parses_like_the_oracle(&format!("\"a{c}b\""));
        assert_parses_like_the_oracle(&format!("\"a\\{c}b\""));
        assert_parses_like_the_oracle(&format!("[1{c}]"));
        assert_parses_like_the_oracle(&format!("[-{c}]"));
        assert_parses_like_the_oracle(&format!("{{\"k\":\n 1.{c}}}"));
    }
    for doc in
        ["\"\\ud83d\\ude00\"", "\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"", "\"é😀\""]
    {
        assert_parses_like_the_oracle(doc);
    }
}

/// A raw value has no members, whatever its text holds.
#[test]
fn a_raw_value_has_no_members() {
    let raw = raw_of(r#"{"hops":[{"addr":"10.0.0.1"}],"n":3,"s":"x","b":true}"#);
    assert!(raw["hops"].is_null() && raw[0].is_null());
    assert!(raw.get("n").is_none() && raw.get(0).is_none());
    assert_eq!(raw.as_array(), None);
    assert_eq!((raw.as_str(), raw.as_bool(), raw.as_u64(), raw.as_f64()), (None, None, None, None));
    assert!(!raw_of("null").is_null());
}

#[test]
#[should_panic(expected = "cannot index a raw JSON text with a string key")]
fn a_raw_value_cannot_be_indexed_for_writing() {
    let mut raw = raw_of("{}");
    raw["n"] = json!(1);
}
