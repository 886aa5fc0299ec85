//! UDP datagram encode/decode.

use inet::Addr;

use crate::checksum;
use crate::ipv4::Protocol;
use crate::DecodeError;

/// A UDP datagram (header plus payload).
///
/// UDP traceroute/tracenet probes are datagrams aimed at a likely-unused
/// high port; a destination that receives one answers with ICMP Port
/// Unreachable. The source port doubles as the flow/probe identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port (probe/flow identifier for traceroute-family tools).
    pub src_port: u16,
    /// Destination port (classically 33434 + hop for traceroute).
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Encoded length: the 8-byte header plus the payload.
    pub(crate) fn wire_len(&self) -> usize {
        8 + self.payload.len()
    }

    /// Writes the datagram, with a valid checksum over the given
    /// pseudo-header addresses, into `b` of exactly
    /// [`UdpDatagram::wire_len`] bytes.
    pub(crate) fn write(&self, src: Addr, dst: Addr, b: &mut [u8]) {
        let (head, body) = b.split_at_mut(8);
        head.copy_from_slice(&self.quote_bytes(src, dst));
        body.copy_from_slice(&self.payload);
    }

    /// Decodes from `buf` (exactly the IP payload), verifying length and
    /// checksum against the pseudo-header addresses.
    pub fn decode(buf: &[u8], src: Addr, dst: Addr) -> Result<UdpDatagram, DecodeError> {
        if buf.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if len < 8 || len > buf.len() {
            return Err(DecodeError::BadTotalLen);
        }
        let stored = u16::from_be_bytes([buf[6], buf[7]]);
        if stored != 0 {
            let pseudo = checksum::pseudo_header_sum(src, dst, Protocol::Udp, len as u16);
            if !checksum::verify_with_pseudo(&buf[..len], pseudo) {
                return Err(DecodeError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: buf[8..len].to_vec(),
        })
    }

    /// The 8-byte header, checksum included: the first eight bytes of the
    /// encoded form, as an ICMP error quotes them (source port,
    /// destination port, length, checksum).
    pub fn quote_bytes(&self, src: Addr, dst: Addr) -> [u8; 8] {
        let len = self.wire_len() as u16;
        let mut h = [0u8; 8];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&len.to_be_bytes());
        let pseudo = checksum::pseudo_header_sum(src, dst, Protocol::Udp, len);
        let mut c = checksum::with_pseudo(&self.payload, checksum::sum_words(&h, pseudo));
        if c == 0 {
            c = 0xffff; // RFC 768: transmitted as all-ones when computed zero
        }
        h[6..8].copy_from_slice(&c.to_be_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Addr = Addr::new(10, 0, 0, 1);
    const DST: Addr = Addr::new(203, 0, 113, 5);

    fn encode(d: &UdpDatagram, src: Addr, dst: Addr) -> Vec<u8> {
        let mut b = vec![0; d.wire_len()];
        d.write(src, dst, &mut b);
        b
    }

    #[test]
    fn roundtrip_with_payload() {
        let d = UdpDatagram { src_port: 54321, dst_port: 33434, payload: vec![1, 2, 3] };
        let b = encode(&d, SRC, DST);
        assert_eq!(UdpDatagram::decode(&b, SRC, DST).unwrap(), d);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: vec![] };
        let b = encode(&d, SRC, DST);
        assert_eq!(b.len(), 8);
        assert_eq!(UdpDatagram::decode(&b, SRC, DST).unwrap(), d);
    }

    #[test]
    fn checksum_binds_addresses() {
        let d = UdpDatagram { src_port: 9, dst_port: 10, payload: vec![0xaa] };
        let b = encode(&d, SRC, DST);
        // Decoding against a different pseudo-header must fail.
        assert_eq!(
            UdpDatagram::decode(&b, SRC, Addr::new(203, 0, 113, 6)),
            Err(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn rejects_short_and_bad_len() {
        assert_eq!(UdpDatagram::decode(&[0; 7], SRC, DST), Err(DecodeError::Truncated));
        let d = UdpDatagram { src_port: 9, dst_port: 10, payload: vec![] };
        let mut b = encode(&d, SRC, DST);
        b[4..6].copy_from_slice(&4u16.to_be_bytes()); // len < 8
        assert_eq!(UdpDatagram::decode(&b, SRC, DST), Err(DecodeError::BadTotalLen));
    }

    #[test]
    fn quote_bytes_match_encoding() {
        let d = UdpDatagram { src_port: 0x8235, dst_port: 0x829b, payload: vec![7; 4] };
        let enc = encode(&d, SRC, DST);
        assert_eq!(d.quote_bytes(SRC, DST), enc[..8]);
    }
}
