//! The [`Prefix`] type: a CIDR block, the paper's subnet `S^p`.

use std::fmt;
use std::str::FromStr;

use crate::{Addr, ParseError};

/// A CIDR prefix `base/len` — the paper's notation `S^p` for a subnet with a
/// `/p` subnet mask (§3.2, *Hierarchical Addressing*).
///
/// The base address is always stored in canonical (masked) form, so two
/// prefixes compare equal iff they denote the same block.
///
/// ```
/// use inet::{Addr, Prefix};
/// let p: Prefix = "10.1.2.64/30".parse().unwrap();
/// assert_eq!(p.network(), "10.1.2.64".parse().unwrap());
/// assert_eq!(p.broadcast(), "10.1.2.67".parse().unwrap());
/// assert_eq!(p.size(), 4);
/// assert!(p.contains("10.1.2.66".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    base: Addr,
    len: u8,
}

impl Prefix {
    /// Creates the prefix of length `len` containing `addr`.
    ///
    /// This is the operation subnet exploration performs when it "forms a
    /// temporary subnet `S'` covering the pivot with prefix `m`"
    /// (Algorithm 1, line 4).
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub const fn containing(addr: Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length must be at most 32");
        Prefix { base: Addr::from_u32(addr.to_u32() & Self::mask_u32(len)), len }
    }

    /// Creates a prefix from an already-canonical base address.
    ///
    /// Returns `None` if `base` has host bits set below `len`.
    pub fn new(base: Addr, len: u8) -> Option<Prefix> {
        if len > 32 {
            return None;
        }
        let p = Prefix::containing(base, len);
        (p.base == base).then_some(p)
    }

    const fn mask_u32(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The prefix length `p` (0..=32).
    #[allow(clippy::len_without_is_empty)] // CIDR length, not a container
    pub const fn len(self) -> u8 {
        self.len
    }

    /// The subnet mask as an address (e.g. `255.255.255.252` for /30).
    pub const fn mask(self) -> Addr {
        Addr::from_u32(Self::mask_u32(self.len))
    }

    /// The network (lowest) address of the block.
    pub const fn network(self) -> Addr {
        self.base
    }

    /// The prefix as `a.b.c.d/p` text, rendered on the stack by
    /// [`Addr::dotted`].
    ///
    /// ```
    /// use inet::Prefix;
    /// let p: Prefix = "10.1.2.64/30".parse().unwrap();
    /// assert_eq!(p.dotted().as_str(), "10.1.2.64/30");
    /// ```
    #[inline]
    pub fn dotted(self) -> crate::Dotted {
        let mut text = self.base.dotted();
        text.push_len(self.len);
        text
    }

    /// The broadcast (highest) address of the block.
    pub const fn broadcast(self) -> Addr {
        Addr::from_u32(self.base.to_u32() | !Self::mask_u32(self.len))
    }

    /// Total number of addresses in the block, the paper's `2^(32-p)`.
    ///
    /// Returned as `u64` so a /0 does not overflow.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside this block.
    pub const fn contains(self, addr: Addr) -> bool {
        addr.to_u32() & Self::mask_u32(self.len) == self.base.to_u32()
    }

    /// Whether `other` is fully contained in (or equal to) this block.
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.base)
    }

    /// Whether `addr` is one of the block's boundary addresses (network or
    /// broadcast address).
    ///
    /// Heuristic **H9** (*boundary address reduction*) states a collected
    /// subnet may not contain a boundary address unless it is a /31 — /31
    /// point-to-point links use both addresses (RFC 3021).
    pub fn is_boundary(self, addr: Addr) -> bool {
        self.len < 31 && (addr == self.network() || addr == self.broadcast())
    }

    /// The enclosing prefix one bit shorter (`/p` → `/p-1`), or `None` for /0.
    ///
    /// This is the "grow one level" step of subnet exploration.
    pub fn parent(self) -> Option<Prefix> {
        match self.len {
            0 => None,
            l => Some(Prefix::containing(self.base, l - 1)),
        }
    }

    /// Splits the block into its two `/p+1` halves, or `None` for /32.
    ///
    /// This is the split H9 performs when a grown subnet turns out to
    /// contain a boundary address.
    pub fn halves(self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let l = self.len + 1;
        let lo = Prefix::containing(self.base, l);
        let hi = Prefix::containing(Addr::from_u32(self.base.to_u32() | (1 << (32 - l))), l);
        Some((lo, hi))
    }

    /// Iterates every address of the block in increasing order, including
    /// network and broadcast addresses.
    pub fn addrs(self) -> PrefixHosts {
        PrefixHosts { next: Some(self.network()), last: self.broadcast() }
    }

    /// Iterates the addresses subnet exploration should directly probe: for
    /// /31 and /32 every address, otherwise everything but the network and
    /// broadcast addresses.
    pub fn probe_addrs(self) -> PrefixHosts {
        if self.len >= 31 {
            self.addrs()
        } else {
            PrefixHosts {
                next: self.network().checked_add(1),
                last: Addr::from_u32(self.broadcast().to_u32() - 1),
            }
        }
    }
}

impl fmt::Display for Prefix {
    /// The text of [`Prefix::dotted`]. Width and alignment flags are
    /// ignored, as they always were.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dotted().as_str())
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(ParseError::BadPrefixLen)?;
        let addr: Addr = addr.parse()?;
        if len.is_empty() || len.len() > 2 || !len.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::BadPrefixLen);
        }
        let len: u8 = len.parse().map_err(|_| ParseError::BadPrefixLen)?;
        if len > 32 {
            return Err(ParseError::BadPrefixLen);
        }
        Ok(Prefix::containing(addr, len))
    }
}

/// Iterator over the addresses of a [`Prefix`], yielded in increasing order.
#[derive(Clone, Debug)]
pub struct PrefixHosts {
    next: Option<Addr>,
    last: Addr,
}

impl Iterator for PrefixHosts {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        let cur = self.next?;
        if cur > self.last {
            self.next = None;
            return None;
        }
        self.next = cur.checked_add(1);
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self.next {
            Some(next) if next <= self.last => (self.last.to_u32() - next.to_u32()) as usize + 1,
            _ => 0,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for PrefixHosts {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn containing_canonicalizes() {
        assert_eq!(Prefix::containing(a("10.1.2.67"), 30), p("10.1.2.64/30"));
        assert_eq!(Prefix::containing(a("10.1.2.67"), 32), p("10.1.2.67/32"));
        assert_eq!(Prefix::containing(a("10.1.2.67"), 0), p("0.0.0.0/0"));
    }

    #[test]
    fn new_rejects_noncanonical_base() {
        assert!(Prefix::new(a("10.0.0.1"), 30).is_none());
        assert!(Prefix::new(a("10.0.0.4"), 30).is_some());
        assert!(Prefix::new(a("10.0.0.4"), 33).is_none());
    }

    #[test]
    fn network_broadcast_mask() {
        let s = p("192.168.4.16/28");
        assert_eq!(s.network(), a("192.168.4.16"));
        assert_eq!(s.broadcast(), a("192.168.4.31"));
        assert_eq!(s.mask(), a("255.255.255.240"));
        assert_eq!(s.size(), 16);
    }

    #[test]
    fn slash_zero_and_slash_32_extremes() {
        let all = p("0.0.0.0/0");
        assert_eq!(all.size(), 1u64 << 32);
        assert!(all.contains(a("255.255.255.255")));
        assert!(all.parent().is_none());

        let one = p("1.2.3.4/32");
        assert_eq!(one.size(), 1);
        assert_eq!(one.network(), one.broadcast());
        assert!(one.halves().is_none());
        assert_eq!(one.addrs().collect::<Vec<_>>(), vec![a("1.2.3.4")]);
    }

    #[test]
    fn contains_and_covers() {
        let s = p("10.0.0.0/24");
        assert!(s.contains(a("10.0.0.255")));
        assert!(!s.contains(a("10.0.1.0")));
        assert!(s.covers(p("10.0.0.128/25")));
        assert!(s.covers(s));
        assert!(!s.covers(p("10.0.0.0/23")));
        assert!(!p("10.0.0.128/25").covers(p("10.0.0.0/24")));
    }

    #[test]
    fn boundary_detection_exempts_slash_31() {
        let s30 = p("10.0.0.4/30");
        assert!(s30.is_boundary(a("10.0.0.4")));
        assert!(s30.is_boundary(a("10.0.0.7")));
        assert!(!s30.is_boundary(a("10.0.0.5")));

        let s31 = p("10.0.0.4/31");
        assert!(!s31.is_boundary(a("10.0.0.4")));
        assert!(!s31.is_boundary(a("10.0.0.5")));
    }

    #[test]
    fn parent_grows_one_level() {
        assert_eq!(p("10.0.0.6/31").parent(), Some(p("10.0.0.4/30")));
        assert_eq!(p("10.0.0.4/30").parent(), Some(p("10.0.0.0/29")));
    }

    #[test]
    fn halves_split_cleanly() {
        let (lo, hi) = p("10.0.0.0/29").halves().unwrap();
        assert_eq!(lo, p("10.0.0.0/30"));
        assert_eq!(hi, p("10.0.0.4/30"));
        assert!(p("10.0.0.0/29").covers(lo) && p("10.0.0.0/29").covers(hi));
    }

    #[test]
    fn addr_iteration_orders_and_counts() {
        let s = p("10.0.0.8/30");
        let all: Vec<_> = s.addrs().collect();
        assert_eq!(all, vec![a("10.0.0.8"), a("10.0.0.9"), a("10.0.0.10"), a("10.0.0.11")]);
        assert_eq!(s.addrs().len(), 4);

        // probe_addrs skips boundaries below /31...
        let probed: Vec<_> = s.probe_addrs().collect();
        assert_eq!(probed, vec![a("10.0.0.9"), a("10.0.0.10")]);
        // ...but not for /31.
        let s31 = p("10.0.0.8/31");
        assert_eq!(s31.probe_addrs().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["10.0.0.0", "10.0.0.0/", "10.0.0.0/33", "10.0.0.0/x", "10.0.0.0/+1", "/24"] {
            assert!(s.parse::<Prefix>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in ["0.0.0.0/0", "10.1.2.64/30", "255.255.255.255/32"] {
            assert_eq!(p(s).to_string(), s);
        }
        // Display is canonical even when parsed from a host address.
        assert_eq!("10.1.2.67/30".parse::<Prefix>().unwrap().to_string(), "10.1.2.64/30");
    }
}
