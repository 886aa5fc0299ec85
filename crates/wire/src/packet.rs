//! The top-level [`Packet`] type: an IPv4 header plus transport payload.

use crate::icmp::{IcmpMessage, QuotedDatagram};
use crate::ipv4::{Ipv4Header, Protocol, IPV4_HEADER_LEN};
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::DecodeError;

/// The longest packet without a UDP payload, in bytes: an ICMP error
/// with its quote (20 B of IP header, 8 B of ICMP header, 28 B quoted).
/// Every probe the probers build and every reply the simulator sends
/// fits a stack buffer of this size.
pub const MAX_PACKET_LEN: usize = IPV4_HEADER_LEN + IcmpMessage::ERROR_LEN;

/// A transport payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// A TCP segment.
    Tcp(TcpSegment),
}

impl Payload {
    /// The IP protocol number for this payload.
    pub fn protocol(&self) -> Protocol {
        match self {
            Payload::Icmp(_) => Protocol::Icmp,
            Payload::Udp(_) => Protocol::Udp,
            Payload::Tcp(_) => Protocol::Tcp,
        }
    }
}

/// A full IPv4 packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The IP header. Its `protocol` field is authoritative for encoding
    /// and always agrees with the payload variant after `decode`.
    pub header: Ipv4Header,
    /// The transport payload.
    pub payload: Payload,
}

impl Packet {
    /// Creates a packet, forcing the header protocol to match the payload.
    pub fn new(mut header: Ipv4Header, payload: Payload) -> Packet {
        header.protocol = payload.protocol();
        Packet { header, payload }
    }

    /// Length of the encoded packet in bytes.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN
            + match &self.payload {
                Payload::Icmp(m) => m.wire_len(),
                Payload::Udp(d) => d.wire_len(),
                Payload::Tcp(_) => TcpSegment::WIRE_LEN,
            }
    }

    /// Encodes to wire bytes in the front of `buf` and returns them, or
    /// `None`, writing nothing, when `buf` is shorter than
    /// [`Packet::wire_len`]. A buffer of [`MAX_PACKET_LEN`] bytes holds
    /// any packet without a UDP payload.
    pub fn encode_into<'b>(&self, buf: &'b mut [u8]) -> Option<&'b [u8]> {
        let out = buf.get_mut(..self.wire_len())?;
        let (head, body) = out.split_at_mut(IPV4_HEADER_LEN);
        let (src, dst) = (self.header.src, self.header.dst);
        match &self.payload {
            Payload::Icmp(m) => m.write(body),
            Payload::Udp(d) => d.write(src, dst, body),
            Payload::Tcp(s) => s.write(src, dst, body),
        }
        head.copy_from_slice(&self.header.encode(body.len()));
        Some(out)
    }

    /// Encodes to wire bytes in a new `Vec`: [`Packet::encode_into`] on
    /// a buffer sized to the packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.wire_len()];
        self.encode_into(&mut out).expect("the buffer is sized to the packet");
        out
    }

    /// Decodes from wire bytes, validating all checksums.
    pub fn decode(buf: &[u8]) -> Result<Packet, DecodeError> {
        let (header, body) = Ipv4Header::decode(buf)?;
        let payload = match header.protocol {
            Protocol::Icmp => Payload::Icmp(IcmpMessage::decode(body)?),
            Protocol::Udp => Payload::Udp(UdpDatagram::decode(body, header.src, header.dst)?),
            Protocol::Tcp => Payload::Tcp(TcpSegment::decode(body, header.src, header.dst)?),
        };
        Ok(Packet { header, payload })
    }

    /// Builds the [`QuotedDatagram`] an ICMP error raised by *this* packet
    /// would carry: this packet's IP header plus its first eight transport
    /// bytes.
    pub fn quoted(&self) -> QuotedDatagram {
        let transport = match &self.payload {
            Payload::Icmp(m) => m.quote_bytes(),
            Payload::Udp(d) => d.quote_bytes(self.header.src, self.header.dst),
            Payload::Tcp(s) => s.quote_bytes(self.header.src, self.header.dst),
        };
        QuotedDatagram { header: self.header, transport }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;
    use inet::Addr;

    fn header(proto: Protocol) -> Ipv4Header {
        Ipv4Header {
            ident: 42,
            ttl: 5,
            protocol: proto,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(192, 0, 2, 9),
        }
    }

    #[test]
    fn icmp_packet_roundtrip() {
        let p = Packet::new(
            header(Protocol::Icmp),
            Payload::Icmp(IcmpMessage::EchoRequest { ident: 7, seq: 9 }),
        );
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn udp_packet_roundtrip() {
        let p = Packet::new(
            header(Protocol::Udp),
            Payload::Udp(UdpDatagram { src_port: 555, dst_port: 33434, payload: vec![1, 2] }),
        );
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn tcp_packet_roundtrip() {
        let p = Packet::new(
            header(Protocol::Tcp),
            Payload::Tcp(TcpSegment {
                src_port: 3,
                dst_port: 80,
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
            }),
        );
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn new_fixes_mismatched_protocol() {
        let p = Packet::new(
            header(Protocol::Tcp), // wrong on purpose
            Payload::Icmp(IcmpMessage::EchoReply { ident: 1, seq: 1 }),
        );
        assert_eq!(p.header.protocol, Protocol::Icmp);
    }

    #[test]
    fn nested_error_quote_roundtrips_through_wire() {
        // Build a UDP probe, wrap its quote in a TTL-exceeded ICMP error,
        // send that inside a full packet, and recover the original ports.
        let probe = Packet::new(
            header(Protocol::Udp),
            Payload::Udp(UdpDatagram { src_port: 0x8235, dst_port: 0x829b, payload: vec![0; 4] }),
        );
        let err = Packet::new(
            Ipv4Header {
                ident: 0,
                ttl: 64,
                protocol: Protocol::Icmp,
                src: Addr::new(10, 9, 9, 9),
                dst: probe.header.src,
            },
            Payload::Icmp(IcmpMessage::TtlExceeded { quoted: probe.quoted() }),
        );
        let decoded = Packet::decode(&err.encode()).unwrap();
        match decoded.payload {
            Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) => {
                assert_eq!(quoted.header.dst, probe.header.dst);
                assert_eq!(&quoted.transport[..4], &[0x82, 0x35, 0x82, 0x9b]);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn icmp_echo_quote_is_zero_padded() {
        let p = Packet::new(
            header(Protocol::Icmp),
            Payload::Icmp(IcmpMessage::EchoRequest { ident: 0xaaaa, seq: 0xbbbb }),
        );
        let q = p.quoted();
        // type 8, code 0, checksum, ident, seq — exactly eight bytes.
        assert_eq!(q.transport[0], 8);
        assert_eq!(&q.transport[4..6], &[0xaa, 0xaa]);
        assert_eq!(&q.transport[6..8], &[0xbb, 0xbb]);
    }
}
