//! IPv4 address and CIDR prefix arithmetic for the tracenet workspace.
//!
//! This crate provides the address-level vocabulary the TraceNET paper
//! (Tozal & Sarac, IMC 2010) builds on:
//!
//! * [`Addr`] — a 32-bit IPv4 address with ordering, arithmetic and
//!   formatting.
//! * [`Dotted`] — an address or prefix as text in a stack buffer: the one
//!   dotted-quad renderer, behind `Display` and the JSON writers.
//! * [`Prefix`] — a CIDR block (`a.b.c.d/p`), i.e. the paper's notion of a
//!   subnet `S^p` with a `/p` subnet mask (§3.2, *Hierarchical Addressing*).
//! * [`Addr::mate31`] / [`Addr::mate30`] — the paper's *mate-31* and
//!   *mate-30* relations: two addresses sharing a 31- (30-) bit common
//!   prefix (§3.2, *Mate-31 Adjacency*).
//! * [`SubnetRecord`] — an observed or ground-truth subnet: a prefix plus
//!   the set of interface addresses known to live inside it.
//!
//! The crate is `std`-only, has no dependencies, and performs no I/O; it is
//! shared by the simulator, the probing engine, the tracenet algorithms and
//! the evaluation tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod prefix;
mod subnet;

pub use addr::{Addr, Dotted};
pub use error::ParseError;
pub use prefix::{Prefix, PrefixHosts};
pub use subnet::SubnetRecord;
