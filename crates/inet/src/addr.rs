//! The [`Addr`] type: a 32-bit IPv4 address.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::ParseError;

/// A 32-bit IPv4 address.
///
/// `Addr` is a thin, `Copy` wrapper over the host-order `u32` representation
/// of an IPv4 address. It orders numerically (`10.0.0.9 < 10.0.0.10`), which
/// is the ordering the subnet-exploration algorithm relies on when it sweeps
/// a candidate prefix.
///
/// ```
/// use inet::Addr;
/// let a: Addr = "192.168.1.6".parse().unwrap();
/// assert_eq!(a.mate31(), "192.168.1.7".parse().unwrap());
/// assert_eq!(a.octets(), [192, 168, 1, 6]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The unspecified address `0.0.0.0`, used as a placeholder for
    /// anonymous (non-responding) hops.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Builds an address from its host-order `u32` value.
    pub const fn from_u32(v: u32) -> Self {
        Addr(v)
    }

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the host-order `u32` value.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The paper's `mate31(l)`: the unique other address sharing a 31-bit
    /// prefix with `self` (the last bit flipped).
    ///
    /// By *Mate-31 Adjacency* (§3.2), if two mate-31 addresses are both
    /// alive then they are on the same subnet.
    pub const fn mate31(self) -> Addr {
        Addr(self.0 ^ 1)
    }

    /// The paper's `mate30(l)`: the *other usable* address of the
    /// enclosing /30 point-to-point block (both low bits flipped).
    ///
    /// For a /30 `{network, a, b, broadcast}` this maps `a ↔ b` — the two
    /// assignable addresses of a /30 link — and `network ↔ broadcast`.
    /// TraceNET only ever applies it to addresses it believes are assigned
    /// interfaces, i.e. `a` or `b`.
    pub const fn mate30(self) -> Addr {
        Addr(self.0 ^ 3)
    }

    /// Saturating addition on the numeric value.
    pub const fn saturating_add(self, n: u32) -> Addr {
        Addr(self.0.saturating_add(n))
    }

    /// Checked successor address.
    pub fn checked_add(self, n: u32) -> Option<Addr> {
        self.0.checked_add(n).map(Addr)
    }

    /// Number of leading prefix bits shared with `other` (0..=32).
    ///
    /// `common_prefix_len(a, a) == 32`; mate-31 pairs share exactly 31 bits.
    pub const fn common_prefix_len(self, other: Addr) -> u8 {
        (self.0 ^ other.0).leading_zeros() as u8
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Addr {
    type Err = ParseError;

    /// Four decimal octets of one to three digits each, joined by dots,
    /// read in one pass. Leading zeros ("01") are rejected the way
    /// inet_pton rejects them.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        let mut addr = 0u32;
        let mut at = 0;
        for octet in 0..4 {
            if octet > 0 {
                if bytes.get(at) != Some(&b'.') {
                    return Err(ParseError::BadAddress);
                }
                at += 1;
            }
            let start = at;
            let mut value = 0u32;
            while let Some(d) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
                if at - start == 3 {
                    return Err(ParseError::BadAddress);
                }
                value = value * 10 + u32::from(d - b'0');
                at += 1;
            }
            let digits = at - start;
            if digits == 0 || (digits > 1 && bytes[start] == b'0') || value > 255 {
                return Err(ParseError::BadAddress);
            }
            addr = addr << 8 | value;
        }
        if at != bytes.len() {
            return Err(ParseError::BadAddress);
        }
        Ok(Addr(addr))
    }
}

impl From<Ipv4Addr> for Addr {
    fn from(a: Ipv4Addr) -> Self {
        Addr(u32::from(a))
    }
}

impl From<Addr> for Ipv4Addr {
    fn from(a: Addr) -> Self {
        Ipv4Addr::from(a.0)
    }
}

impl From<[u8; 4]> for Addr {
    fn from(o: [u8; 4]) -> Self {
        Addr(u32::from_be_bytes(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_display_parse() {
        for s in ["0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.100.200"] {
            let a: Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "1.2.3.x",
            "01.2.3.4",
            " 1.2.3.4",
            "1..2.3",
            "1.2.3.1234",
            "1.2.3.4x",
        ] {
            assert!(s.parse::<Addr>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn mate31_is_an_involution() {
        let a = Addr::new(10, 1, 2, 6);
        assert_eq!(a.mate31().mate31(), a);
        assert_eq!(a.mate31(), Addr::new(10, 1, 2, 7));
        assert_eq!(Addr::new(10, 1, 2, 7).mate31(), a);
    }

    #[test]
    fn mate30_pairs_usable_slash30_addresses() {
        // In the /30 block 10.1.2.4/30 the usable addresses are .5 and .6.
        let a = Addr::new(10, 1, 2, 5);
        assert_eq!(a.mate30(), Addr::new(10, 1, 2, 6));
        assert_eq!(a.mate30().mate30(), a);
        // Boundary addresses map to each other.
        assert_eq!(Addr::new(10, 1, 2, 4).mate30(), Addr::new(10, 1, 2, 7));
    }

    #[test]
    fn mates_share_expected_prefix_lengths() {
        let a = Addr::new(172, 16, 9, 130);
        assert_eq!(a.common_prefix_len(a.mate31()), 31);
        assert!(a.common_prefix_len(a.mate30()) >= 30);
        assert_eq!(a.common_prefix_len(a), 32);
        assert_eq!(Addr::new(0, 0, 0, 0).common_prefix_len(Addr::new(128, 0, 0, 0)), 0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Addr::new(10, 0, 0, 9) < Addr::new(10, 0, 0, 10));
        assert!(Addr::new(9, 255, 255, 255) < Addr::new(10, 0, 0, 0));
    }

    #[test]
    fn std_conversions() {
        let a = Addr::new(8, 8, 4, 4);
        let s: Ipv4Addr = a.into();
        assert_eq!(Addr::from(s), a);
        assert_eq!(Addr::from([8, 8, 4, 4]), a);
    }

    #[test]
    fn arithmetic() {
        let a = Addr::new(255, 255, 255, 254);
        assert_eq!(a.checked_add(1), Some(Addr::new(255, 255, 255, 255)));
        assert_eq!(a.checked_add(2), None);
        assert_eq!(a.saturating_add(9).to_u32(), u32::MAX);
    }
}
