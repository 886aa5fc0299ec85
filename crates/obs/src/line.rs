//! Direct JSON rendering for the per-event log lines.
//!
//! Probe and decision lines are appended straight to a caller-owned
//! buffer. The bytes are exactly what the vendored `serde_json` shim
//! prints for the equivalent `Value`: keys in the order the writer
//! emits them, `null` for absent values, and integers and strings
//! through the shim's own writers. The one exception is integers above
//! 2^53, which the shim's `f64` numbers round and [`uint`] prints
//! exactly. Nothing here allocates beyond the buffer's own growth.

use inet::Addr;
pub(crate) use serde_json::{write_string as string, write_u64 as uint};

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
