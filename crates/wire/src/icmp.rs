//! ICMP messages: echo request/reply, TTL exceeded, destination
//! unreachable — the full response vocabulary of §3.1 of the paper.

use crate::checksum;
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use crate::DecodeError;

/// The IP header and first eight transport bytes an ICMP error message
/// quotes from the offending datagram (RFC 792).
///
/// Probing tools rely on the quote to match an asynchronous ICMP error back
/// to the probe that triggered it: for UDP probes the ports live in those
/// eight bytes, for ICMP probes the echo identifier/sequence do, for TCP the
/// source/destination ports and sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotedDatagram {
    /// The offending datagram's IP header as quoted.
    pub header: Ipv4Header,
    /// The first eight bytes of the offending datagram's transport payload.
    pub transport: [u8; 8],
}

/// ICMP destination-unreachable codes modeled by this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnreachableCode {
    /// Code 0 — network unreachable.
    Net,
    /// Code 1 — host unreachable. H7/H8 treat this like silence.
    Host,
    /// Code 3 — port unreachable; the *success* reply to a UDP probe that
    /// reached its destination.
    Port,
    /// Code 13 — communication administratively prohibited (filtering
    /// firewalls).
    AdminProhibited,
}

impl UnreachableCode {
    const fn code(self) -> u8 {
        match self {
            UnreachableCode::Net => 0,
            UnreachableCode::Host => 1,
            UnreachableCode::Port => 3,
            UnreachableCode::AdminProhibited => 13,
        }
    }

    const fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(UnreachableCode::Net),
            1 => Some(UnreachableCode::Host),
            3 => Some(UnreachableCode::Port),
            13 => Some(UnreachableCode::AdminProhibited),
            _ => None,
        }
    }
}

/// An ICMP message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Type 8 — echo request: tracenet's direct probe.
    EchoRequest {
        /// Echo identifier (per-session).
        ident: u16,
        /// Echo sequence number (per-probe).
        seq: u16,
    },
    /// Type 0 — echo reply: the `ECHO_RPLY` outcome of the heuristics.
    EchoReply {
        /// Echo identifier copied from the request.
        ident: u16,
        /// Echo sequence copied from the request.
        seq: u16,
    },
    /// Type 11 code 0 — time exceeded in transit: the `TTL_EXCD` outcome.
    TtlExceeded {
        /// Quote of the expired datagram.
        quoted: QuotedDatagram,
    },
    /// Type 3 — destination unreachable.
    Unreachable {
        /// The unreachable sub-code.
        code: UnreachableCode,
        /// Quote of the rejected datagram.
        quoted: QuotedDatagram,
    },
}

impl IcmpMessage {
    /// Encoded length of an ICMP error: the 8-byte ICMP header, then the
    /// quoted IP header and eight transport bytes.
    pub(crate) const ERROR_LEN: usize = 8 + IPV4_HEADER_LEN + 8;

    /// Encoded length: 8 bytes for an echo, [`IcmpMessage::ERROR_LEN`]
    /// for an error.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            IcmpMessage::EchoRequest { .. } | IcmpMessage::EchoReply { .. } => 8,
            IcmpMessage::TtlExceeded { .. } | IcmpMessage::Unreachable { .. } => Self::ERROR_LEN,
        }
    }

    /// Writes the message (ICMP header + body), with a valid checksum,
    /// into `b` of exactly [`IcmpMessage::wire_len`] bytes.
    pub(crate) fn write(&self, b: &mut [u8]) {
        let (head, body) = b.split_at_mut(8);
        head.fill(0);
        match *self {
            IcmpMessage::EchoRequest { ident, seq } | IcmpMessage::EchoReply { ident, seq } => {
                head[0] = if matches!(self, IcmpMessage::EchoRequest { .. }) { 8 } else { 0 };
                head[4..6].copy_from_slice(&ident.to_be_bytes());
                head[6..8].copy_from_slice(&seq.to_be_bytes());
            }
            IcmpMessage::TtlExceeded { quoted } => {
                head[0] = 11;
                Self::write_quote(body, &quoted);
            }
            IcmpMessage::Unreachable { code, quoted } => {
                head[0] = 3;
                head[1] = code.code();
                Self::write_quote(body, &quoted);
            }
        }
        let c = checksum::internet_checksum(b);
        b[2..4].copy_from_slice(&c.to_be_bytes());
    }

    /// The first eight encoded bytes, as an ICMP error quoting this
    /// message carries them.
    pub(crate) fn quote_bytes(&self) -> [u8; 8] {
        let mut b = [0u8; Self::ERROR_LEN];
        let b = &mut b[..self.wire_len()];
        self.write(b);
        let mut q = [0u8; 8];
        q.copy_from_slice(&b[..8]);
        q
    }

    fn write_quote(b: &mut [u8], quoted: &QuotedDatagram) {
        let (header, transport) = b.split_at_mut(IPV4_HEADER_LEN);
        header.copy_from_slice(&quoted.header.encode(8));
        transport.copy_from_slice(&quoted.transport);
    }

    fn decode_quote(body: &[u8]) -> Result<QuotedDatagram, DecodeError> {
        let (header, payload) = Ipv4Header::decode(body)?;
        if payload.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let mut transport = [0u8; 8];
        transport.copy_from_slice(&payload[..8]);
        Ok(QuotedDatagram { header, transport })
    }

    /// Decodes an ICMP message from `buf` (exactly the IP payload).
    pub fn decode(buf: &[u8]) -> Result<IcmpMessage, DecodeError> {
        if buf.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        if !checksum::verify(buf) {
            return Err(DecodeError::BadChecksum);
        }
        let (ty, code) = (buf[0], buf[1]);
        match (ty, code) {
            (8, 0) | (0, 0) => {
                let ident = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest { ident, seq }
                } else {
                    IcmpMessage::EchoReply { ident, seq }
                })
            }
            (11, 0) => Ok(IcmpMessage::TtlExceeded { quoted: Self::decode_quote(&buf[8..])? }),
            (3, c) => {
                let code = UnreachableCode::from_code(c)
                    .ok_or(DecodeError::UnsupportedIcmp { icmp_type: ty, code: c })?;
                Ok(IcmpMessage::Unreachable { code, quoted: Self::decode_quote(&buf[8..])? })
            }
            _ => Err(DecodeError::UnsupportedIcmp { icmp_type: ty, code }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Protocol;
    use inet::Addr;

    fn encode(m: &IcmpMessage) -> Vec<u8> {
        let mut b = vec![0; m.wire_len()];
        m.write(&mut b);
        b
    }

    fn quoted() -> QuotedDatagram {
        QuotedDatagram {
            header: Ipv4Header {
                ident: 0x1234,
                ttl: 1,
                protocol: Protocol::Udp,
                src: Addr::new(10, 0, 0, 1),
                dst: Addr::new(198, 51, 100, 7),
            },
            transport: [0x82, 0x35, 0x82, 0x9b, 0x00, 0x10, 0xde, 0xad],
        }
    }

    #[test]
    fn echo_roundtrip() {
        for m in [
            IcmpMessage::EchoRequest { ident: 77, seq: 4242 },
            IcmpMessage::EchoReply { ident: 0xffff, seq: 0 },
        ] {
            let b = encode(&m);
            assert_eq!(IcmpMessage::decode(&b).unwrap(), m);
        }
    }

    #[test]
    fn ttl_exceeded_roundtrip_preserves_quote() {
        let m = IcmpMessage::TtlExceeded { quoted: quoted() };
        let b = encode(&m);
        let got = IcmpMessage::decode(&b).unwrap();
        assert_eq!(got, m);
        match got {
            IcmpMessage::TtlExceeded { quoted: q } => {
                assert_eq!(q.header.src, Addr::new(10, 0, 0, 1));
                assert_eq!(q.transport[0..2], [0x82, 0x35]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unreachable_codes_roundtrip() {
        for code in [
            UnreachableCode::Net,
            UnreachableCode::Host,
            UnreachableCode::Port,
            UnreachableCode::AdminProhibited,
        ] {
            let m = IcmpMessage::Unreachable { code, quoted: quoted() };
            assert_eq!(IcmpMessage::decode(&encode(&m)).unwrap(), m);
        }
    }

    #[test]
    fn rejects_unknown_unreachable_code() {
        let m = IcmpMessage::Unreachable { code: UnreachableCode::Port, quoted: quoted() };
        let mut b = encode(&m);
        b[1] = 9; // unknown code
        b[2] = 0;
        b[3] = 0;
        let c = checksum::internet_checksum(&b);
        b[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(
            IcmpMessage::decode(&b),
            Err(DecodeError::UnsupportedIcmp { icmp_type: 3, code: 9 })
        );
    }

    #[test]
    fn rejects_truncated_and_corrupt() {
        let m = IcmpMessage::EchoRequest { ident: 1, seq: 2 };
        let b = encode(&m);
        assert_eq!(IcmpMessage::decode(&b[..4]), Err(DecodeError::Truncated));
        let mut b2 = b.clone();
        b2[7] ^= 1;
        assert_eq!(IcmpMessage::decode(&b2), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn rejects_quote_with_short_transport() {
        let m = IcmpMessage::TtlExceeded { quoted: quoted() };
        let mut b = encode(&m);
        b.truncate(b.len() - 3); // cut into the 8 transport bytes
                                 // fix outer checksum for the truncated body
        b[2] = 0;
        b[3] = 0;
        let c = checksum::internet_checksum(&b);
        b[2..4].copy_from_slice(&c.to_be_bytes());
        // Quote decode fails: IPv4 total len now exceeds remaining bytes.
        assert!(IcmpMessage::decode(&b).is_err());
    }

    #[test]
    fn rejects_unmodeled_type() {
        let mut b = vec![13u8, 0, 0, 0, 0, 0, 0, 0]; // timestamp request
        let c = checksum::internet_checksum(&b);
        b[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(
            IcmpMessage::decode(&b),
            Err(DecodeError::UnsupportedIcmp { icmp_type: 13, code: 0 })
        );
    }
}
