//! Deterministic probe-ident allocation over disjoint namespaces.
//!
//! Every concurrent session needs its own ICMP-echo ident (UDP/TCP port
//! discriminator) so replies validate against the right session. Deriving
//! idents by xoring the target index with a per-driver constant covers
//! the *whole* u16 space per driver — xor is a bijection — so two drivers
//! over one network could collide, and a single driver wraps silently
//! after 65 536 targets. The allocator instead carves the
//! ident space into disjoint namespaces and hands out consecutive slots,
//! so idents stay a pure function of the target index — independent of
//! which worker thread picks the target up.

use std::sync::atomic::{AtomicU32, Ordering};

/// A namespace of the 16-bit ident space. The three spaces partition
/// `0..=0xFFFF` exactly: tracenet `0x0000..0x8000`, traceroute
/// `0x8000..0xC000`, aux (pings, sweeps, audits) `0xC000..0x10000`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdentSpace {
    /// Tracenet sessions (32 768 slots).
    Tracenet,
    /// Traceroute baselines (16 384 slots).
    Traceroute,
    /// Auxiliary probing: pings, sweeps, audits (16 384 slots).
    Aux,
}

impl IdentSpace {
    /// All namespaces.
    pub const ALL: [IdentSpace; 3] =
        [IdentSpace::Tracenet, IdentSpace::Traceroute, IdentSpace::Aux];

    /// First ident of the namespace.
    pub const fn base(self) -> u16 {
        match self {
            IdentSpace::Tracenet => 0x0000,
            IdentSpace::Traceroute => 0x8000,
            IdentSpace::Aux => 0xC000,
        }
    }

    /// Number of idents in the namespace.
    pub const fn capacity(self) -> u32 {
        match self {
            IdentSpace::Tracenet => 0x8000,
            IdentSpace::Traceroute | IdentSpace::Aux => 0x4000,
        }
    }

    fn index(self) -> usize {
        match self {
            IdentSpace::Tracenet => 0,
            IdentSpace::Traceroute => 1,
            IdentSpace::Aux => 2,
        }
    }
}

/// Hands out ident blocks per namespace. Reservations are atomic, so one
/// allocator can serve several concurrent batch runs; idents within a
/// block are a pure function of the index, so a batch's idents do not
/// depend on worker scheduling.
#[derive(Debug, Default)]
pub struct IdentAllocator {
    cursors: [AtomicU32; 3],
}

impl IdentAllocator {
    /// A fresh allocator with every namespace at its base.
    pub fn new() -> IdentAllocator {
        IdentAllocator::default()
    }

    /// Reserves `len` consecutive slots in `space`.
    pub fn block(&self, space: IdentSpace, len: usize) -> IdentBlock {
        let start = self.cursors[space.index()].fetch_add(len as u32, Ordering::Relaxed);
        IdentBlock { space, start }
    }

    /// Reserves a single ident.
    pub fn ident(&self, space: IdentSpace) -> u16 {
        self.block(space, 1).get(0)
    }
}

/// A reserved run of idents. `get(k)` wraps within the namespace, so a
/// block never leaks into a neighboring space; distinct `k` below the
/// namespace capacity map to distinct idents.
#[derive(Clone, Copy, Debug)]
pub struct IdentBlock {
    space: IdentSpace,
    start: u32,
}

impl IdentBlock {
    /// The k-th ident of the block.
    ///
    /// Wraps modulo the namespace capacity: a tracenet block repeats its
    /// idents after 32 768 targets, so a paper-scale batch (34 084
    /// targets) gives targets k and k + 32 768 the same ident. In the
    /// simulator that is harmless. A reply is returned to the prober that
    /// injected the probe, never matched against other sessions, and a
    /// repeated ident only repeats a flow hash input, which stays a pure
    /// function of the target index.
    pub fn get(&self, k: usize) -> u16 {
        let cap = self.space.capacity() as u64;
        let slot = (self.start as u64 + k as u64) % cap;
        self.space.base() + slot as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn namespaces_partition_the_ident_space() {
        let mut seen = 0u64;
        for space in IdentSpace::ALL {
            assert_eq!(space.base() as u32 % space.capacity(), 0, "{space:?} base aligned");
            seen += space.capacity() as u64;
        }
        assert_eq!(seen, 1 << 16, "the namespaces cover u16 exactly");
        // Pairwise disjoint: each space's range ends before the next base.
        assert_eq!(IdentSpace::Tracenet.base() as u32 + IdentSpace::Tracenet.capacity(), 0x8000);
        assert_eq!(
            IdentSpace::Traceroute.base() as u32 + IdentSpace::Traceroute.capacity(),
            0xC000
        );
        assert_eq!(IdentSpace::Aux.base() as u32 + IdentSpace::Aux.capacity(), 0x1_0000);
    }

    #[test]
    fn block_idents_are_unique_up_to_capacity() {
        let alloc = IdentAllocator::new();
        let block = alloc.block(IdentSpace::Traceroute, 10_000);
        let idents: BTreeSet<u16> = (0..10_000).map(|k| block.get(k)).collect();
        assert_eq!(idents.len(), 10_000, "no collisions below capacity");
        for &i in &idents {
            assert!((0x8000..0xC000).contains(&i), "ident {i:#06x} stays in its namespace");
        }
    }

    #[test]
    fn blocks_from_one_allocator_do_not_overlap() {
        let alloc = IdentAllocator::new();
        let a = alloc.block(IdentSpace::Tracenet, 100);
        let b = alloc.block(IdentSpace::Tracenet, 100);
        let ia: BTreeSet<u16> = (0..100).map(|k| a.get(k)).collect();
        let ib: BTreeSet<u16> = (0..100).map(|k| b.get(k)).collect();
        assert!(ia.is_disjoint(&ib), "sequential blocks are disjoint");
    }

    #[test]
    fn idents_are_a_pure_function_of_the_index() {
        let a = IdentAllocator::new().block(IdentSpace::Tracenet, 50);
        let b = IdentAllocator::new().block(IdentSpace::Tracenet, 50);
        for k in 0..50 {
            assert_eq!(a.get(k), b.get(k), "fresh allocators agree at index {k}");
        }
    }

    #[test]
    fn wraparound_stays_inside_the_namespace() {
        let alloc = IdentAllocator::new();
        let block = alloc.block(IdentSpace::Aux, 100_000);
        for k in [0usize, 0x3FFF, 0x4000, 99_999] {
            let i = block.get(k);
            assert!((0xC000..=0xFFFF).contains(&i), "ident {i:#06x} escaped at index {k}");
        }
        assert_eq!(block.get(0), block.get(IdentSpace::Aux.capacity() as usize));
    }

    #[test]
    fn tracenet_idents_wrap_after_32768_targets() {
        let block = IdentAllocator::new().block(IdentSpace::Tracenet, 34_084);
        let cap = IdentSpace::Tracenet.capacity() as usize;
        assert_eq!(cap, 32_768);
        for k in [0usize, 1, 1_315, 34_083 - cap] {
            let (i, j) = (block.get(k), block.get(k + cap));
            assert_eq!(i, j, "index {k} and {} share an ident", k + cap);
            assert!(j < 0x8000, "ident {j:#06x} stays in the tracenet namespace");
        }
    }
}
