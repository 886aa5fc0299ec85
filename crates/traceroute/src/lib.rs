//! Baseline tools the paper compares against or builds upon:
//!
//! * [`traceroute`] — TTL-scoped path tracing (one IP address per hop),
//!   Paris-style on one flow or classic with a flow per probe;
//! * [`ping`] — direct-probe aliveness testing;
//! * [`infer_subnets`] — the *offline* subnet-inference post-processing
//!   of the paper's reference \[7\] (Gunes & Sarac, IMC 2007): grouping
//!   addresses collected by traceroute into /31…/p subnets after the
//!   fact. TraceNET's thesis is that doing this *during* collection, with
//!   targeted probing, beats doing it afterwards on whatever addresses
//!   happened to be collected.
//!
//! Everything is written against [`probe::Prober`], exactly like the main
//! tracenet crate, so baselines and tracenet run over the same networks
//! under the same conditions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod infer;
mod ping;
mod trace;

pub use infer::infer_subnets;
pub use ping::{ping, ping_sweep, PingReport};
pub use trace::{traceroute, TraceHop, TracerouteOptions, TracerouteReport};
