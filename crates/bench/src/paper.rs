//! The paper's published numbers, for side-by-side comparison in the
//! experiment output and EXPERIMENTS.md.

/// Table 1 (Internet2): exact-match rates.
pub const T1_EXACT_INCL: f64 = 0.737;
/// Table 1: exact-match rate excluding totally unresponsive subnets.
pub const T1_EXACT_EXCL: f64 = 0.949;
/// Table 2 (GEANT): exact-match rates.
pub const T2_EXACT_INCL: f64 = 0.535;
/// Table 2: excluding unresponsive.
pub const T2_EXACT_EXCL: f64 = 0.973;

/// §4.1.2 similarity rates: (Internet2 prefix, GEANT prefix, Internet2
/// size, GEANT size).
pub const SIMILARITY: (f64, f64, f64, f64) = (0.83, 0.900, 0.86, 0.907);

/// Table 3: subnets collected per ISP and protocol at PlanetLab Rice,
/// rows in [`ISP_ORDER`] order, columns ICMP/UDP/TCP.
pub const T3: [[u64; 3]; 4] = [[4482, 1834, 13], [1593, 106, 4], [3587, 1062, 11], [2333, 777, 40]];

/// ISP display order of Table 3 and Figures 7–8.
pub const ISP_ORDER: [&str; 4] = ["sprintlink", "ntt", "level3", "abovenet"];

/// Figure 6's Venn region counts:
/// (rice_only, umass_only, uoregon_only, rice∩umass, rice∩uoregon,
/// umass∩uoregon, all three).
pub const FIG6: [usize; 7] = [1818, 2746, 2420, 1525, 1431, 2310, 6342];

/// §4.2's quoted agreement rates: ~60% seen by all three, ~80% verified
/// by at least one other vantage.
pub const FIG6_RATES: (f64, f64) = (0.60, 0.80);

/// Figure 9's anchor points at Rice: /30 count, /29 count, /28 count —
/// "a big decrease between /30 and /29 from 4499 to 1546 and even
/// bigger decrease between /29 and /28 from 1546 to 154".
pub const FIG9_RICE_ANCHORS: [(u8, u64); 3] = [(30, 4499), (29, 1546), (28, 154)];
