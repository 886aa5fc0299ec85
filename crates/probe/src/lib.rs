//! The probing layer: how tracenet, traceroute and ping talk to a
//! network.
//!
//! Everything above this crate is written against the [`Prober`] trait, so
//! the same algorithm code runs over:
//!
//! * [`SimProber`] — encodes genuine wire packets (via the `wire` crate),
//!   injects them into a [`SharedNetwork`] (the simulator's lock-free
//!   engine handle, shared by every vantage and batch worker) and
//!   *validates* the replies (echo identifiers, quoted datagrams) exactly
//!   as a raw-socket prober must;
//! * [`ScriptedProber`] — a hand-authored table of (destination, TTL) →
//!   outcome, used to unit-test algorithm logic in isolation;
//! * [`ReplayProber`] — re-answers a session from a recorded exchange log,
//!   with no simulator behind it.
//!
//! The tracenet session wraps whichever prober it is given in its own
//! per-hop memo and fault budget (§3.5's merged rules); that wrapper
//! lives with the session in the `tracenet` crate.
//!
//! The probe vocabulary (§3.1 of the paper) is captured by
//! [`ProbeOutcome`]: a **direct reply** (echo reply / port unreachable /
//! TCP RST — the paper's `ECHO_RPLY`), a **TTL exceeded** (`TTL_EXCD`), an
//! **unreachable** of some other flavor (an [`obs::UnreachReason`]), or a
//! **timeout**. The type lives in `obs` and is re-exported here, so an
//! exchange-log probe line records exactly the outcome a prober returned.
//! The paper's §3.8 re-probe-on-silence rule lives in the probers' retry
//! budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ident;
mod prober;
mod replay;
mod retry;
mod scripted;
mod sim;

pub use ident::{IdentAllocator, IdentBlock, IdentSpace};
pub use prober::{ProbeStats, Prober};
pub use replay::{ReplayProber, ReplayScript};
pub use retry::{RetryPolicy, DEFAULT_RETRIES};
pub use scripted::ScriptedProber;
pub use sim::{SharedNetwork, SimProber};

pub use obs::ProbeOutcome;
pub use wire::Protocol;
