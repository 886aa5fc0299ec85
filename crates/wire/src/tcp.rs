//! Minimal TCP segments: SYN probes and RST replies.
//!
//! TCP tracenet probes send the "second packet of the TCP handshake"
//! (per §3.1 of the paper, i.e. an unsolicited SYN/ACK-style packet) or a
//! plain SYN; a responsive destination answers with RST. Only the fields
//! that matter to probing are modeled — no options, no payload.

use inet::Addr;

use crate::checksum;
use crate::ipv4::Protocol;
use crate::DecodeError;

/// TCP flag bits (subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// SYN flag only.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag only.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// ACK flag only.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// SYN|ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// RST|ACK.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);

    /// Raw bit value.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Constructs from raw bits (reserved bits masked off).
    pub const fn from_bits(b: u8) -> TcpFlags {
        TcpFlags(b & 0x3f)
    }

    /// Whether SYN is set.
    pub const fn syn(self) -> bool {
        self.0 & 0x02 != 0
    }

    /// Whether RST is set.
    pub const fn rst(self) -> bool {
        self.0 & 0x04 != 0
    }

    /// Whether ACK is set.
    pub const fn ack(self) -> bool {
        self.0 & 0x10 != 0
    }
}

/// A (header-only) TCP segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port (flow/probe identifier).
    pub src_port: u16,
    /// Destination port (e.g. 80 for firewall-penetrating probes).
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK is set).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
}

impl TcpSegment {
    /// Encoded length: the option-less 20-byte header.
    pub(crate) const WIRE_LEN: usize = 20;

    /// Writes the 20-byte header, with a valid checksum over the given
    /// pseudo-header addresses, into `b` of exactly
    /// [`TcpSegment::WIRE_LEN`] bytes.
    pub(crate) fn write(&self, src: Addr, dst: Addr, b: &mut [u8]) {
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        b[12] = 5 << 4; // data offset: 5 words
        b[13] = self.flags.bits();
        b[14..16].copy_from_slice(&1024u16.to_be_bytes()); // window
        b[16..20].fill(0); // checksum, urgent pointer
        let pseudo = checksum::pseudo_header_sum(src, dst, Protocol::Tcp, Self::WIRE_LEN as u16);
        let c = checksum::with_pseudo(b, pseudo);
        b[16..18].copy_from_slice(&c.to_be_bytes());
    }

    /// Decodes from `buf` (exactly the IP payload), verifying the checksum
    /// against the pseudo-header addresses.
    pub fn decode(buf: &[u8], src: Addr, dst: Addr) -> Result<TcpSegment, DecodeError> {
        if buf.len() < 20 {
            return Err(DecodeError::Truncated);
        }
        let offset = ((buf[12] >> 4) as usize) * 4;
        if !(20..=60).contains(&offset) || buf.len() < offset {
            return Err(DecodeError::BadHeaderLen);
        }
        let pseudo = checksum::pseudo_header_sum(src, dst, Protocol::Tcp, buf.len() as u16);
        if !checksum::verify_with_pseudo(buf, pseudo) {
            return Err(DecodeError::BadChecksum);
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags::from_bits(buf[13]),
        })
    }

    /// The first eight bytes as quoted by an ICMP error: ports plus
    /// sequence number.
    pub fn quote_bytes(&self, src: Addr, dst: Addr) -> [u8; 8] {
        let mut b = [0u8; Self::WIRE_LEN];
        self.write(src, dst, &mut b);
        let mut q = [0u8; 8];
        q.copy_from_slice(&b[..8]);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Addr = Addr::new(10, 0, 0, 1);
    const DST: Addr = Addr::new(203, 0, 113, 80);

    fn encode(s: &TcpSegment, src: Addr, dst: Addr) -> Vec<u8> {
        let mut b = vec![0; TcpSegment::WIRE_LEN];
        s.write(src, dst, &mut b);
        b
    }

    #[test]
    fn syn_roundtrip() {
        let s = TcpSegment {
            src_port: 44211,
            dst_port: 80,
            seq: 0xdead_beef,
            ack: 0,
            flags: TcpFlags::SYN,
        };
        let b = encode(&s, SRC, DST);
        assert_eq!(b.len(), 20);
        assert_eq!(TcpSegment::decode(&b, SRC, DST).unwrap(), s);
    }

    #[test]
    fn rst_reply_roundtrip() {
        let s = TcpSegment {
            src_port: 80,
            dst_port: 44211,
            seq: 0,
            ack: 0xdead_bef0,
            flags: TcpFlags::RST_ACK,
        };
        let got = TcpSegment::decode(&encode(&s, DST, SRC), DST, SRC).unwrap();
        assert!(got.flags.rst() && got.flags.ack() && !got.flags.syn());
        assert_eq!(got.ack, 0xdead_bef0);
    }

    #[test]
    fn checksum_binds_addresses() {
        let s = TcpSegment { src_port: 1, dst_port: 2, seq: 3, ack: 4, flags: TcpFlags::SYN };
        let b = encode(&s, SRC, DST);
        // Note: swapping src/dst does NOT break the checksum (the one's
        // complement sum is commutative); a different address does.
        assert_eq!(
            TcpSegment::decode(&b, SRC, Addr::new(203, 0, 113, 81)),
            Err(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn rejects_truncated_and_bad_offset() {
        assert_eq!(TcpSegment::decode(&[0; 19], SRC, DST), Err(DecodeError::Truncated));
        let s = TcpSegment { src_port: 1, dst_port: 2, seq: 3, ack: 4, flags: TcpFlags::SYN };
        let mut b = encode(&s, SRC, DST);
        b[12] = 4 << 4; // offset 16 bytes < minimum
        assert_eq!(TcpSegment::decode(&b, SRC, DST), Err(DecodeError::BadHeaderLen));
    }

    #[test]
    fn flag_accessors() {
        assert!(TcpFlags::SYN_ACK.syn() && TcpFlags::SYN_ACK.ack());
        assert!(!TcpFlags::SYN.ack());
        assert_eq!(TcpFlags::from_bits(0xff).bits(), 0x3f);
    }

    #[test]
    fn quote_bytes_carry_ports_and_seq() {
        let s = TcpSegment {
            src_port: 0xabcd,
            dst_port: 0x0050,
            seq: 0x01020304,
            ack: 0,
            flags: TcpFlags::SYN,
        };
        let q = s.quote_bytes(SRC, DST);
        assert_eq!(q, [0xab, 0xcd, 0x00, 0x50, 1, 2, 3, 4]);
    }
}
