//! From-scratch IPv4, ICMP, UDP and TCP wire formats.
//!
//! TraceNET is a raw-packet tool: it sends ICMP Echo Requests, UDP probes to
//! high ports and TCP SYNs, with carefully chosen TTLs, and classifies the
//! replies (Echo Reply, TTL Exceeded, Port/Host Unreachable, TCP RST). This
//! crate implements exactly those formats — encode and decode, with real
//! Internet checksums and real quoted datagrams inside ICMP errors — so the
//! rest of the workspace operates on genuine packet bytes rather than
//! hand-waved structs.
//!
//! Design follows the smoltcp school: plain structs, explicit byte offsets,
//! no macro or type tricks, total decoding (`DecodeError` instead of
//! panics), and encoders that always produce packets the decoder accepts.
//!
//! The top-level type is [`Packet`]: an [`Ipv4Header`] plus a transport
//! [`Payload`]. Probe construction helpers live in [`builder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod checksum;
mod error;
mod icmp;
mod ipv4;
mod packet;
mod tcp;
mod udp;

pub use checksum::{internet_checksum, pseudo_header_sum};
pub use error::DecodeError;
pub use icmp::{IcmpMessage, QuotedDatagram, UnreachableCode};
pub use ipv4::{Ipv4Header, Protocol, IPV4_HEADER_LEN};
pub use packet::{Packet, Payload, MAX_PACKET_LEN};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;
