//! Direct JSON rendering for the per-event log lines.
//!
//! A probe line, and a decision line up to its evidence, is a fixed list
//! of keys whose values all have a bounded width: integers, addresses
//! and snake_case labels. Those fixed fields are put together in a
//! [`Fixed`] stack buffer and appended to the destination in one copy;
//! a decision's evidence is escaped into the destination straight
//! after. The destination is a [`LineOut`]: the caller's `String` for
//! `write_line`, or the exchange writer's byte buffer.
//!
//! The bytes are exactly what the vendored `serde_json` shim prints for
//! the equivalent `Value`: keys in the order the writer emits them,
//! `null` for absent values, and integers and strings through the
//! shim's own writers (`write_u64_at` prints an integer in place in the
//! stack buffer). The one exception is integers above 2^53, which the
//! shim's `f64` numbers round and [`Fixed::uint`] prints exactly.
//! Nothing here allocates beyond the destination's own growth.

use inet::Addr;
pub(crate) use serde_json::write_string as string;
use serde_json::{write_u64_at, Output};

use crate::read::Key;

/// A line's fixed fields, rendered on the stack.
pub(crate) struct Fixed {
    bytes: [u8; Fixed::CAP],
    len: usize,
}

impl Fixed {
    /// Room for the widest fixed part: a probe line with every integer
    /// at `u64::MAX`, every address at 15 characters, an unreachable
    /// outcome (the only one with both a source and a flavour) and the
    /// longest label of each other kind is 328 bytes (`widest_lines_fit`
    /// checks it).
    const CAP: usize = 384;

    /// A line opened with its first key: `{"key":`.
    #[inline]
    pub(crate) fn open(first: Key) -> Fixed {
        let mut f = Fixed { bytes: [0; Fixed::CAP], len: 0 };
        f.key(first);
        f.bytes[0] = b'{';
        f
    }

    /// The fields rendered so far.
    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.bytes[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    /// Appends the next key with its punctuation: `,"key":`.
    #[inline]
    pub(crate) fn key(&mut self, key: Key) {
        self.raw(key.member());
    }

    /// Appends literal text.
    #[inline]
    pub(crate) fn raw(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends `n` in decimal.
    #[inline]
    pub(crate) fn uint(&mut self, n: u64) {
        self.len += write_u64_at(&mut self.bytes[self.len..], n);
    }

    /// Appends a quoted label. Labels are snake_case ASCII and need no
    /// escaping.
    #[inline]
    pub(crate) fn label(&mut self, label: &str) {
        self.raw("\"");
        self.raw(label);
        self.raw("\"");
    }

    /// Appends an address as a quoted dotted quad.
    #[inline]
    pub(crate) fn addr(&mut self, addr: Addr) {
        self.raw("\"");
        self.bytes(addr.dotted().as_bytes());
        self.raw("\"");
    }

    /// Appends `value` as `write` renders it, or `null`. Always inlined,
    /// so each field stays a run of constant copies in its writer.
    #[inline(always)]
    pub(crate) fn opt<T>(&mut self, value: Option<T>, write: impl FnOnce(&mut Fixed, T)) {
        match value {
            Some(v) => write(self, v),
            None => self.raw("null"),
        }
    }
}

/// Where a line is rendered: a `String`, or a byte buffer that takes the
/// fixed fields without checking them again for UTF-8.
pub(crate) trait LineOut: Output {
    /// Appends the fixed fields in one copy.
    fn fixed(&mut self, f: &Fixed);
}

impl LineOut for String {
    #[inline]
    fn fixed(&mut self, f: &Fixed) {
        self.push_str(std::str::from_utf8(f.as_bytes()).expect("fixed fields are ASCII"));
    }
}

impl LineOut for Vec<u8> {
    #[inline]
    fn fixed(&mut self, f: &Fixed) {
        self.extend_from_slice(f.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use wire::Protocol;

    use crate::{Cause, DecisionEvent, DecisionVerdict, ProbeEvent, ProbeOutcome};
    use crate::{TimeoutCause, UnreachReason};

    fn longest<T: Copy>(all: &[T], label: fn(T) -> &'static str) -> T {
        *all.iter().max_by_key(|&&v| label(v).len()).expect("not empty")
    }

    /// Every field at its widest: the fixed part must fit `Fixed::CAP`
    /// (rendering would panic otherwise), and the probe line is exactly
    /// as long as the bound the capacity is documented with.
    #[test]
    fn widest_lines_fit() {
        let wide = inet::Addr::new(255, 255, 255, 255);
        let probe = ProbeEvent {
            tick: u64::MAX,
            session: Some(u64::MAX),
            vantage: wide,
            dst: wide,
            ttl: u8::MAX,
            protocol: Protocol::Icmp,
            flow: u16::MAX,
            attempt: u8::MAX,
            outcome: ProbeOutcome::Unreachable {
                from: wide,
                kind: longest(&UnreachReason::ALL, UnreachReason::label),
            },
            cause: Some(longest(&Cause::ALL, Cause::label)),
            timeout_cause: Some(longest(&TimeoutCause::ALL, TimeoutCause::label)),
        };
        let mut line = String::new();
        probe.write_line(&mut line);
        assert_eq!(line.len(), 328, "{line}");

        let decision = DecisionEvent {
            session: Some(u64::MAX),
            hop: u8::MAX,
            cause: Some(longest(&Cause::ALL, Cause::label)),
            subject: Some(wide),
            verdict: longest(&DecisionVerdict::ALL, DecisionVerdict::label),
            evidence: String::new(),
        };
        let mut line = String::new();
        decision.write_line(&mut line);
        assert!(line.len() < super::Fixed::CAP, "{line}");
    }
}
