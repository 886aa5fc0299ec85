//! IPv4 header encode/decode.

use inet::Addr;

use crate::checksum;
use crate::DecodeError;

/// Length in bytes of the option-less IPv4 header this crate emits.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers modeled by this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl Protocol {
    /// The IANA protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// Maps a protocol number back, if modeled.
    pub const fn from_number(n: u8) -> Option<Protocol> {
        match n {
            1 => Some(Protocol::Icmp),
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }

    /// The lowercase name exchange logs and the `--protocol` flag use.
    pub const fn label(self) -> &'static str {
        match self {
            Protocol::Icmp => "icmp",
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
        }
    }

    /// Maps a [`label`](Protocol::label) back, if modeled.
    pub fn from_label(s: &str) -> Option<Protocol> {
        [Protocol::Icmp, Protocol::Tcp, Protocol::Udp].into_iter().find(|p| p.label() == s)
    }
}

/// An IPv4 header (no options).
///
/// Only the fields probing actually exercises are first-class; TOS,
/// fragmentation and options are fixed at the values a probe tool emits
/// (zero TOS, don't-fragment clear, no options). The `ident` field is kept
/// because Paris-style traceroute manipulates it to pin flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// IP identification field.
    pub ident: u16,
    /// Time to live — the field tracenet's indirect probing scopes.
    pub ttl: u8,
    /// Transport protocol of the payload.
    pub protocol: Protocol,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
}

impl Ipv4Header {
    /// Encodes the header plus `payload_len` into the 20-byte wire form,
    /// including a valid header checksum.
    pub fn encode(&self, payload_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let total = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[2..4].copy_from_slice(&total.to_be_bytes());
        b[4..6].copy_from_slice(&self.ident.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol.number();
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::internet_checksum(&b);
        b[10..12].copy_from_slice(&c.to_be_bytes());
        b
    }

    /// Decodes a header from the front of `buf`.
    ///
    /// Returns the header and the payload slice (bounded by the
    /// total-length field). Options are accepted and skipped; the header
    /// checksum must verify.
    pub fn decode(buf: &[u8]) -> Result<(Ipv4Header, &[u8]), DecodeError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(DecodeError::NotIpv4);
        }
        let ihl = ((buf[0] & 0x0f) as usize) * 4;
        if !(IPV4_HEADER_LEN..=60).contains(&ihl) || buf.len() < ihl {
            return Err(DecodeError::BadHeaderLen);
        }
        if !checksum::verify(&buf[..ihl]) {
            return Err(DecodeError::BadChecksum);
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total < ihl || total > buf.len() {
            return Err(DecodeError::BadTotalLen);
        }
        let protocol =
            Protocol::from_number(buf[9]).ok_or(DecodeError::UnsupportedProtocol(buf[9]))?;
        let header = Ipv4Header {
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol,
            src: Addr::from([buf[12], buf[13], buf[14], buf[15]]),
            dst: Addr::from([buf[16], buf[17], buf[18], buf[19]]),
        };
        Ok((header, &buf[ihl..total]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            ident: 0xbeef,
            ttl: 7,
            protocol: Protocol::Icmp,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(192, 0, 2, 33),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample();
        let mut bytes = h.encode(4).to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let (got, payload) = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(got, h);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn decode_respects_total_length_over_trailing_bytes() {
        let h = sample();
        let mut bytes = h.encode(2).to_vec();
        bytes.extend_from_slice(&[9, 9, 0xAA, 0xBB]); // 2 real + 2 trailing
        let (_, payload) = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(payload, &[9, 9]);
    }

    #[test]
    fn rejects_truncated() {
        let bytes = sample().encode(0);
        assert_eq!(Ipv4Header::decode(&bytes[..10]), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().encode(0);
        bytes[0] = 0x65;
        assert_eq!(Ipv4Header::decode(&bytes), Err(DecodeError::NotIpv4));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut bytes = sample().encode(0);
        bytes[0] = 0x44; // IHL 4 words < 5
        assert_eq!(Ipv4Header::decode(&bytes), Err(DecodeError::BadHeaderLen));
    }

    #[test]
    fn rejects_corrupt_checksum() {
        let mut bytes = sample().encode(0);
        bytes[8] ^= 0xff; // mutate TTL without fixing checksum
        assert_eq!(Ipv4Header::decode(&bytes), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let h = sample();
        let bytes = h.encode(8); // declares 28 bytes
        let only_header = &bytes[..IPV4_HEADER_LEN];
        assert_eq!(Ipv4Header::decode(only_header), Err(DecodeError::BadTotalLen));
    }

    #[test]
    fn rejects_unknown_protocol() {
        let mut bytes = sample().encode(0).to_vec();
        bytes[9] = 47; // GRE
                       // re-fix checksum
        bytes[10] = 0;
        bytes[11] = 0;
        let c = checksum::internet_checksum(&bytes[..IPV4_HEADER_LEN]);
        bytes[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Ipv4Header::decode(&bytes), Err(DecodeError::UnsupportedProtocol(47)));
    }

    #[test]
    fn protocol_numbers() {
        for p in [Protocol::Icmp, Protocol::Tcp, Protocol::Udp] {
            assert_eq!(Protocol::from_number(p.number()), Some(p));
        }
        assert_eq!(Protocol::from_number(0), None);
    }
}
