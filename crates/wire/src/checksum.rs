//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header sum.

use inet::Addr;

use crate::ipv4::Protocol;

/// Computes the 16-bit one's-complement Internet checksum over `data`.
///
/// An odd trailing byte is padded with a zero byte, per RFC 1071. The
/// returned value is ready to be stored in a checksum field (i.e. already
/// complemented); a packet whose stored checksum is correct re-sums to
/// zero.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// Verifies `data` whose checksum field is included in the range: the
/// one's-complement sum of valid data is `0xffff` (folds to 0 after
/// complement).
pub(crate) fn verify(data: &[u8]) -> bool {
    fold(sum_words(data, 0)) == 0xffff
}

/// Computes the TCP/UDP pseudo-header partial sum for
/// `src`/`dst`/`protocol`/`length`, to be combined with the segment bytes.
pub fn pseudo_header_sum(src: Addr, dst: Addr, protocol: Protocol, len: u16) -> u32 {
    let s = src.to_u32();
    let d = dst.to_u32();
    (s >> 16) + (s & 0xffff) + (d >> 16) + (d & 0xffff) + protocol.number() as u32 + len as u32
}

/// Checksums `data` seeded with a pseudo-header partial sum.
pub(crate) fn with_pseudo(data: &[u8], pseudo: u32) -> u16 {
    !fold(sum_words(data, pseudo))
}

pub(crate) fn verify_with_pseudo(data: &[u8], pseudo: u32) -> bool {
    fold(sum_words(data, pseudo)) == 0xffff
}

/// Adds `data`'s 16-bit words to `seed` without folding, so a checksum
/// can run over a header and a payload held apart: `data` must then be of
/// even length unless it is the last part.
pub(crate) fn sum_words(data: &[u8], seed: u32) -> u32 {
    let mut sum = seed;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u16::from_be_bytes([w[0], w[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // One's complement sum is 0xddf2, checksum is its complement.
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn zero_data_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0xde, 0xad, 0x00, 0x00, 0x40, 0x01];
        // Append a correct checksum as the final word.
        let c = internet_checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x04;
        assert!(!verify(&data));
    }

    #[test]
    fn pseudo_header_sum_matches_manual() {
        let src = Addr::new(10, 0, 0, 1);
        let dst = Addr::new(10, 0, 0, 2);
        let got = pseudo_header_sum(src, dst, Protocol::Udp, 12);
        let want = 0x0a00u32 + 0x0001 + 0x0a00 + 0x0002 + 17 + 12;
        assert_eq!(got, want);
    }

    #[test]
    fn with_pseudo_verifies() {
        let src = Addr::new(192, 0, 2, 1);
        let dst = Addr::new(192, 0, 2, 99);
        let mut seg = vec![0x82u8, 0x35, 0x82, 0x9b, 0x00, 0x0a, 0x00, 0x00, 0xca, 0xfe];
        let pseudo = pseudo_header_sum(src, dst, Protocol::Udp, seg.len() as u16);
        let c = with_pseudo(&seg, pseudo);
        seg[6..8].copy_from_slice(&c.to_be_bytes());
        assert!(verify_with_pseudo(&seg, pseudo));
        seg[9] ^= 1;
        assert!(!verify_with_pseudo(&seg, pseudo));
    }
}
