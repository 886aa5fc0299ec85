//! Direct JSON rendering for the per-event log lines.
//!
//! Probe and decision lines are appended straight to a caller-owned
//! buffer. The bytes are exactly what the vendored `serde_json` shim
//! prints for the equivalent `Value`: keys in the order the writer
//! emits them, `null` for absent values, integers without a decimal
//! point, and strings escaped like its `write_string` (the short
//! escapes, lowercase `\u00XX` for other control characters, DEL and
//! non-ASCII passed through). The one exception is integers above
//! 2^53, which the shim's `f64` numbers round and [`uint`] prints
//! exactly. Nothing here allocates beyond the buffer's own growth.

use inet::Addr;

/// Appends `n` in decimal.
pub(crate) fn uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `n` in decimal, or `null`.
pub(crate) fn opt_uint(out: &mut String, n: Option<u64>) {
    match n {
        Some(n) => uint(out, n),
        None => out.push_str("null"),
    }
}

/// Appends a quoted label. Labels are snake_case ASCII and need no
/// escaping.
pub(crate) fn label(out: &mut String, label: &str) {
    out.push('"');
    out.push_str(label);
    out.push('"');
}

/// Appends a quoted label, or `null`.
pub(crate) fn opt_label(out: &mut String, label: Option<&str>) {
    match label {
        Some(l) => self::label(out, l),
        None => out.push_str("null"),
    }
}

/// Appends an address as a quoted dotted quad.
pub(crate) fn addr(out: &mut String, addr: Addr) {
    out.push('"');
    for (i, octet) in addr.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        uint(out, octet.into());
    }
    out.push('"');
}

/// Appends an address as a quoted dotted quad, or `null`.
pub(crate) fn opt_addr(out: &mut String, a: Option<Addr>) {
    match a {
        Some(a) => addr(out, a),
        None => out.push_str("null"),
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)].into());
            out.push(HEX[usize::from(b & 0xf)].into());
        } else {
            out.push_str(short);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}
