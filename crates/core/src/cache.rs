//! The cross-session subnet-cache seam.
//!
//! The paper runs one session per destination, and consecutive sessions
//! from the same vantage re-position and re-explore the same subnets hop
//! after hop. A [`SubnetStore`] lets a batch driver (see the `sweep`
//! crate) share already-accepted subnets and per-hop stop-set entries
//! across sessions, the way Doubletree shares stop sets across traces —
//! extending the session's own skip of hops inside subnets it already
//! collected to cross-session scope.
//!
//! The session consults the store *after* its own within-session reuse
//! check and *before* positioning/exploring a hop, and admits whatever
//! the hop produced afterwards. The store decides the reuse policy; the
//! session only asks and tells.

use std::sync::Arc;

use inet::Addr;

use crate::observed::ObservedSubnet;

/// What a store lookup resolved to.
#[derive(Clone, Debug)]
pub enum CacheLookup {
    /// A previous session already resolved this hop (or accepted a
    /// subnet containing its address): reuse `Some(subnet)` verbatim, or
    /// skip positioning without a subnet when the remembered outcome was
    /// barren (`None`). The subnet is shared with the store, so a hit
    /// copies a pointer, not a member list.
    Hit(Option<Arc<ObservedSubnet>>),
    /// Nothing known: position and explore, then [`SubnetStore::admit`].
    Miss,
}

/// A shared, thread-safe store of per-hop exploration outcomes.
///
/// `prev` is the trace address of the preceding hop (`None` at the first
/// hop or after an anonymous hop), `v` the hop's trace-collected address
/// and `d` its TTL — together the inputs that determine positioning, so
/// they key the stop set.
pub trait SubnetStore: Send + Sync {
    /// Asks whether the hop `(prev, v, d)` needs exploring.
    fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup;

    /// Records what exploring the hop `(prev, v, d)` produced (`None`
    /// when positioning failed or the subnet was discarded).
    fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>);
}
