//! Property tests: every packet this crate can express survives an
//! encode → decode round trip, the buffer encoder writes exactly the
//! bytes of `encode`, and decoding never panics on arbitrary bytes.

use inet::Addr;
use proptest::prelude::*;
use wire::{
    builder, IcmpMessage, Ipv4Header, Packet, Payload, Protocol, TcpFlags, TcpSegment, UdpDatagram,
    UnreachableCode, IPV4_HEADER_LEN, MAX_PACKET_LEN,
};

/// `encode_into` writes `encode()`'s bytes to the front of a longer
/// buffer and nothing past them, and refuses a buffer one byte short
/// without writing to it.
fn encodes_in_place(p: &Packet) {
    let bytes = p.encode();
    prop_assert_eq!(bytes.len(), p.wire_len());
    let mut buf = vec![0xa5; bytes.len() + 8];
    prop_assert_eq!(p.encode_into(&mut buf), Some(&bytes[..]));
    prop_assert!(buf[bytes.len()..].iter().all(|&b| b == 0xa5));
    let mut short = vec![0xa5; bytes.len() - 1];
    prop_assert_eq!(p.encode_into(&mut short), None);
    prop_assert!(short.iter().all(|&b| b == 0xa5));
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr::from_u32)
}

fn arb_header(proto: Protocol) -> impl Strategy<Value = Ipv4Header> {
    (any::<u16>(), any::<u8>(), arb_addr(), arb_addr()).prop_map(move |(ident, ttl, src, dst)| {
        Ipv4Header { ident, ttl, protocol: proto, src, dst }
    })
}

fn arb_unreachable_code() -> impl Strategy<Value = UnreachableCode> {
    prop_oneof![
        Just(UnreachableCode::Net),
        Just(UnreachableCode::Host),
        Just(UnreachableCode::Port),
        Just(UnreachableCode::AdminProhibited),
    ]
}

fn arb_quoted() -> impl Strategy<Value = wire::QuotedDatagram> {
    (arb_header(Protocol::Udp), proptest::array::uniform8(any::<u8>()))
        .prop_map(|(header, transport)| wire::QuotedDatagram { header, transport })
}

fn arb_icmp() -> impl Strategy<Value = IcmpMessage> {
    prop_oneof![
        (any::<u16>(), any::<u16>())
            .prop_map(|(ident, seq)| IcmpMessage::EchoRequest { ident, seq }),
        (any::<u16>(), any::<u16>()).prop_map(|(ident, seq)| IcmpMessage::EchoReply { ident, seq }),
        arb_quoted().prop_map(|quoted| IcmpMessage::TtlExceeded { quoted }),
        (arb_unreachable_code(), arb_quoted())
            .prop_map(|(code, quoted)| IcmpMessage::Unreachable { code, quoted }),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_icmp().prop_map(Payload::Icmp),
        (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(
            |(s, d, p)| Payload::Udp(UdpDatagram { src_port: s, dst_port: d, payload: p })
        ),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
            |(s, d, seq, ack, f)| Payload::Tcp(TcpSegment {
                src_port: s,
                dst_port: d,
                seq,
                ack,
                flags: TcpFlags::from_bits(f),
            })
        ),
    ]
}

proptest! {
    #[test]
    fn packet_encode_decode_roundtrip(
        header in arb_header(Protocol::Icmp),
        payload in arb_payload(),
    ) {
        let p = Packet::new(header, payload);
        encodes_in_place(&p);
        let bytes = p.encode();
        let back = Packet::decode(&bytes).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Packet::decode(&bytes);
    }

    #[test]
    fn decode_rejects_any_single_bit_flip(
        header in arb_header(Protocol::Icmp),
        payload in arb_payload(),
        bit in 0usize..160,
    ) {
        let p = Packet::new(header, payload);
        let mut bytes = p.encode();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // A flipped bit must never be silently decoded as the original
        // packet (checksums may still accept a *different* valid packet
        // only if the flip lands in a field covered by no invariant — for
        // IPv4/ICMP/UDP/TCP with checksums, any flip must either error or
        // change the decoded value).
        if let Ok(q) = Packet::decode(&bytes) { prop_assert_ne!(q, p) }
    }

    #[test]
    fn probe_builders_roundtrip(
        src in arb_addr(), dst in arb_addr(), ttl in 1u8..=64,
        a in any::<u16>(), b in any::<u16>(),
    ) {
        for probe in [
            builder::icmp_probe(src, dst, ttl, a, b),
            builder::udp_probe(src, dst, ttl, a, b),
            builder::tcp_probe(src, dst, ttl, a, b),
        ] {
            let bytes = probe.encode();
            prop_assert_eq!(Packet::decode(&bytes).unwrap(), probe.clone());
            // The quote is the probe's header and its first eight
            // transport bytes as encoded.
            let quoted = probe.quoted();
            prop_assert_eq!(quoted.header, probe.header);
            prop_assert_eq!(&quoted.transport[..], &bytes[IPV4_HEADER_LEN..IPV4_HEADER_LEN + 8]);
            // And the error wrapping each probe round trips too, and fits
            // the fixed buffer with the probe.
            let err = builder::ttl_exceeded(&probe, src);
            encodes_in_place(&probe);
            encodes_in_place(&err);
            prop_assert!(probe.wire_len() <= MAX_PACKET_LEN);
            prop_assert_eq!(err.wire_len(), MAX_PACKET_LEN);
            prop_assert_eq!(Packet::decode(&err.encode()).unwrap(), err);
        }
    }

    #[test]
    fn quoted_transport_identifies_probe(
        src in arb_addr(), dst in arb_addr(),
        sport in any::<u16>(), dport in any::<u16>(),
    ) {
        // The whole reason ICMP errors quote eight bytes: the prober can
        // recover which probe triggered the error.
        let probe = builder::udp_probe(src, dst, 3, sport, dport);
        let err = builder::ttl_exceeded(&probe, dst);
        let decoded = Packet::decode(&err.encode()).unwrap();
        if let Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) = decoded.payload {
            prop_assert_eq!(u16::from_be_bytes([quoted.transport[0], quoted.transport[1]]), sport);
            prop_assert_eq!(u16::from_be_bytes([quoted.transport[2], quoted.transport[3]]), dport);
            prop_assert_eq!(quoted.header.dst, dst);
        } else {
            prop_assert!(false, "expected TTL exceeded");
        }
    }
}
