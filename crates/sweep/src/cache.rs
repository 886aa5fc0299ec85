//! The cross-session subnet cache: a Doubletree-style stop set.
//!
//! Consecutive sessions from one vantage share long path prefixes, so
//! they re-position and re-explore the same subnets hop after hop. The
//! cache remembers every `(prev, v, d)` hop that was positioned and
//! explored, mapped to its outcome — including barren outcomes, so a hop
//! that yielded nothing is not re-probed either (the Doubletree stop-set
//! idea applied to subnet exploration). The stop set is the only state
//! that crosses sessions.
//!
//! Keying on the exact hop is what makes the cache
//! *observation-equivalent*: on a network whose responses don't depend
//! on probe history, the outcome of exploring hop `(prev, v, d)` is a
//! pure function of the key, so replaying the first writer's outcome is
//! exactly what the reader would have computed itself. Replaying a
//! subnet across hop keys (say, for any later hop whose address is one
//! of its members) would not be: two sessions can reach one subnet
//! through different hop keys and legitimately collect different
//! (nested) prefixes, and which one a replay picked would depend on
//! which session finished first. The conformance suite pins that the
//! batch output is independent of admit order.
//!
//! An admitted subnet is copied once, into an `Arc` the stop set owns;
//! every hit hands out a clone of that `Arc`, so the sessions that hit
//! one key share one member list. Lookups and admissions take one short
//! mutex-protected critical section over a hash map keyed by the hop
//! packed into one `u128`. The cache keeps no counts: every lookup and
//! admission leaves its mark on the hop it served, and [`CacheStats`] is
//! read back from the reports.

use std::collections::HashMap;
use std::sync::Arc;

use inet::Addr;
use parking_lot::Mutex;
use tracenet::{CacheLookup, ObservedSubnet, SubnetStore, TraceReport};

/// A hop identity packed into 73 bits: the previous trace address behind
/// a presence bit (bits 40..=72), the hop address (bits 8..=39) and the
/// TTL (bits 0..=7) — the inputs that determine positioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct StopKey(u128);

impl StopKey {
    fn new(prev: Option<Addr>, v: Addr, d: u8) -> StopKey {
        let prev = prev.map_or(0, |p| 1 << 32 | u128::from(p.to_u32()));
        StopKey(prev << 40 | u128::from(v.to_u32()) << 8 | u128::from(d))
    }
}

/// Each hop's outcome, barren ones included, under its packed key. The
/// map keeps std's randomly keyed hasher: the addresses in a key come
/// from replies, and whoever answers the probes must not be able to pick
/// keys that collide.
type StopSet = HashMap<StopKey, Option<Arc<ObservedSubnet>>>;

/// What a batch's sessions asked of the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that supplied a reusable subnet.
    pub hits: u64,
    /// Lookups that replayed a remembered barren hop (skip, no subnet).
    pub skips: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

impl CacheStats {
    /// The counts the sessions behind `reports` made, read from their
    /// hops, for sessions that ran with the cache on: a cached hop was a
    /// hit (or, without a subnet, a skip); any other hop with an address
    /// that no earlier hop's subnet covered was a miss. An aborted
    /// session leaves no hops, so its lookups are not counted.
    pub(crate) fn from_reports(reports: &[TraceReport]) -> CacheStats {
        let mut stats = CacheStats::default();
        for hop in reports.iter().flat_map(|r| &r.hops) {
            if hop.cached {
                match hop.subnet {
                    Some(_) => stats.hits += 1,
                    None => stats.skips += 1,
                }
            } else if hop.addr.is_some() && !hop.repeated {
                stats.misses += 1;
            }
        }
        stats
    }
}

/// A concurrent cross-session stop set; sessions share it behind one
/// `Arc`.
#[derive(Default)]
pub struct SubnetCache {
    /// Exact per-hop outcomes, barren ones included.
    stop_set: Mutex<StopSet>,
}

impl SubnetCache {
    /// An empty cache.
    pub fn new() -> SubnetCache {
        SubnetCache::default()
    }
}

impl SubnetStore for SubnetCache {
    fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup {
        match self.stop_set.lock().get(&StopKey::new(prev, v, d)) {
            Some(outcome) => CacheLookup::Hit(outcome.clone()),
            None => CacheLookup::Miss,
        }
    }

    fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>) {
        // First writer wins: with a history-independent network every
        // writer stores the same outcome anyway, and a stable entry keeps
        // replays consistent within one batch.
        // The outcome is copied into its shared `Arc` only when it wins.
        self.stop_set
            .lock()
            .entry(StopKey::new(prev, v, d))
            .or_insert_with(|| outcome.cloned().map(Arc::new));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::{Prefix, SubnetRecord};
    use tracenet::StopCause;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn subnet(prefix: &str, members: &[&str]) -> ObservedSubnet {
        ObservedSubnet {
            record: SubnetRecord::new(
                prefix.parse::<Prefix>().unwrap(),
                members.iter().map(|m| a(m)),
            )
            .unwrap(),
            pivot: a(members[members.len() - 1]),
            pivot_dist: 3,
            contra_pivot: None,
            ingress: None,
            on_path: true,
            stop: StopCause::Underutilized,
        }
    }

    #[test]
    fn exact_key_replays_the_stored_outcome() {
        let cache = SubnetCache::new();
        let s = subnet("10.0.2.0/29", &["10.0.2.1", "10.0.2.2"]);
        cache.admit(Some(a("10.0.1.1")), a("10.0.2.1"), 3, Some(&s));
        match cache.lookup(Some(a("10.0.1.1")), a("10.0.2.1"), 3) {
            CacheLookup::Hit(Some(got)) => assert_eq!(got.record.prefix(), s.record.prefix()),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert!(matches!(cache.lookup(None, a("10.0.2.1"), 3), CacheLookup::Miss));
    }

    #[test]
    fn packed_keys_keep_every_field_apart() {
        let (zero, v) = (a("0.0.0.0"), a("10.0.0.1"));
        let keys = [
            StopKey::new(None, v, 1),
            StopKey::new(Some(zero), v, 1),
            StopKey::new(Some(a("255.255.255.255")), v, 1),
            StopKey::new(None, v, 255),
            StopKey::new(None, a("255.255.255.255"), 1),
            StopKey::new(Some(v), zero, 1),
        ];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert!(keys.iter().all(|k| k.0 < 1 << 73), "73 bits");
    }

    #[test]
    fn barren_hops_replay_as_skips() {
        let cache = SubnetCache::new();
        cache.admit(None, a("10.0.0.1"), 1, None);
        match cache.lookup(None, a("10.0.0.1"), 1) {
            CacheLookup::Hit(None) => {}
            other => panic!("expected a barren replay, got {other:?}"),
        }
        // A barren entry answers only its own hop; unknown hops miss.
        assert!(matches!(cache.lookup(None, a("10.0.0.2"), 1), CacheLookup::Miss));
    }

    #[test]
    fn lookups_never_cross_hop_keys() {
        // Two sessions can reach one subnet through different hop keys
        // and legitimately collect different nested prefixes; replaying
        // across keys would make the result depend on which session
        // finished first. A member seen at another hop key misses.
        let cache = SubnetCache::new();
        let s = subnet("10.0.2.0/29", &["10.0.2.1", "10.0.2.2", "10.0.2.3"]);
        cache.admit(Some(a("10.0.1.1")), a("10.0.2.3"), 4, Some(&s));
        assert!(matches!(cache.lookup(Some(a("9.9.9.9")), a("10.0.2.2"), 7), CacheLookup::Miss));
        assert!(matches!(cache.lookup(Some(a("10.0.1.1")), a("10.0.2.3"), 5), CacheLookup::Miss));
    }

    #[test]
    fn first_writer_wins_on_one_hop_key() {
        let cache = SubnetCache::new();
        let first = subnet("10.0.2.0/30", &["10.0.2.1", "10.0.2.2"]);
        let second = subnet("10.0.2.0/29", &["10.0.2.1", "10.0.2.5"]);
        cache.admit(None, a("10.0.2.1"), 3, Some(&first));
        cache.admit(None, a("10.0.2.1"), 3, Some(&second));
        cache.admit(None, a("10.0.2.1"), 3, None);
        match cache.lookup(None, a("10.0.2.1"), 3) {
            CacheLookup::Hit(Some(got)) => assert_eq!(got.record.prefix(), first.record.prefix()),
            other => panic!("expected the first outcome, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_admits_and_lookups_stay_consistent() {
        let cache = SubnetCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for k in 0..50u32 {
                        let octet = (t * 50 + k) % 200;
                        let base = format!("10.1.{octet}.0");
                        let s = subnet(
                            &format!("{base}/30"),
                            &[&format!("10.1.{octet}.1"), &format!("10.1.{octet}.2")],
                        );
                        cache.admit(None, s.pivot, 3, Some(&s));
                        match cache.lookup(None, s.pivot, 3) {
                            CacheLookup::Hit(Some(got)) => assert_eq!(got.pivot, s.pivot),
                            other => panic!("a lookup after its own admit resolved {other:?}"),
                        }
                    }
                });
            }
        });
        for octet in 0..200 {
            let pivot = a(&format!("10.1.{octet}.2"));
            assert!(matches!(cache.lookup(None, pivot, 3), CacheLookup::Hit(Some(_))));
        }
    }
}
