//! The paper's similarity metrics — §4.1.2, equations (1)–(5).
//!
//! Each original subnet is a feature; its prefix length (or size) is the
//! feature value. The *distance factor* of a subnet depends on how it
//! was collected (equation 1 / 4), distances combine by the Minkowski
//! distance of order k (equation 2), and similarity is the k = 1
//! normalization of equations (3) and (5). Only k = 1 is used, where
//! equation (2) is the plain sum those two functions take.

use crate::classify::{Classification, MatchClass};

/// Prefix-length bounds (`p_u`, `p_l`) found in the original topology —
/// e.g. Internet2 has `p_u = 31, p_l = 24`.
#[derive(Clone, Copy, Debug)]
pub struct PrefixBounds {
    /// Longest prefix length present (`p_u`).
    pub upper: u8,
    /// Shortest prefix length present (`p_l`).
    pub lower: u8,
}

impl PrefixBounds {
    /// Derives the bounds from the original prefixes of a classification
    /// set.
    pub fn from_classifications(cls: &[Classification]) -> PrefixBounds {
        let lens: Vec<u8> = cls.iter().map(|c| c.original.len()).collect();
        PrefixBounds {
            upper: lens.iter().copied().max().unwrap_or(31),
            lower: lens.iter().copied().min().unwrap_or(24),
        }
    }
}

/// Equation (1): the prefix distance factor `d(S_i)`.
pub fn prefix_distance(c: &Classification, bounds: PrefixBounds) -> f64 {
    let so = c.original.len() as f64;
    match c.class {
        MatchClass::Exact => 0.0,
        MatchClass::Underestimated | MatchClass::Overestimated | MatchClass::Merged => {
            let sc = c.collected[0].len() as f64;
            (so - sc).abs()
        }
        MatchClass::Missing => {
            // "For missing subnets we take the maximum of distances to
            // the boundaries in favor of dissimilarity."
            let du = (so - bounds.upper as f64).abs();
            let dl = (so - bounds.lower as f64).abs();
            du.max(dl)
        }
        MatchClass::Split => {
            // |s^o − max{s^c}|.
            let max_sc = c.collected.iter().map(|p| p.len()).max().expect("split has pieces");
            (so - max_sc as f64).abs()
        }
    }
}

/// Equation (4): the size distance factor `d̂(S_i)` (sensitive to the
/// subnet sizes, not just prefix lengths: |/29|−|/30| = 4 vs
/// |/23|−|/24| = 256).
pub fn size_distance(c: &Classification, bounds: PrefixBounds) -> f64 {
    let size = |len: u8| (1u64 << (32 - len)) as f64;
    let so = size(c.original.len());
    match c.class {
        MatchClass::Exact => 0.0,
        MatchClass::Underestimated | MatchClass::Overestimated | MatchClass::Merged => {
            (so - size(c.collected[0].len())).abs()
        }
        MatchClass::Missing => {
            let hi = size(bounds.lower) - so;
            let lo = so - size(bounds.upper);
            hi.max(lo)
        }
        MatchClass::Split => {
            let biggest = c.collected.iter().map(|p| size(p.len())).fold(0.0f64, f64::max);
            (so - biggest).abs()
        }
    }
}

/// Equation (3): normalized prefix similarity (k = 1); 1 = identical,
/// 0 = totally dissimilar.
pub fn prefix_similarity(cls: &[Classification], bounds: PrefixBounds) -> f64 {
    let num: f64 = cls.iter().map(|c| prefix_distance(c, bounds)).sum();
    let den: f64 = cls
        .iter()
        .map(|c| {
            let so = c.original.len() as f64;
            (so - bounds.lower as f64).max(bounds.upper as f64 - so)
        })
        .sum();
    if den == 0.0 {
        return 1.0;
    }
    1.0 - num / den
}

/// Equation (5): normalized size similarity (k = 1).
pub fn size_similarity(cls: &[Classification], bounds: PrefixBounds) -> f64 {
    let size = |len: u8| (1u64 << (32 - len)) as f64;
    let num: f64 = cls.iter().map(|c| size_distance(c, bounds)).sum();
    let den: f64 = cls
        .iter()
        .map(|c| {
            let so = size(c.original.len());
            (size(bounds.lower) - so).max(so - size(bounds.upper))
        })
        .sum();
    if den == 0.0 {
        return 1.0;
    }
    1.0 - num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::Prefix;

    fn cls(original: &str, collected: &[&str], class: MatchClass) -> Classification {
        Classification {
            original: original.parse().unwrap(),
            collected: collected.iter().map(|c| c.parse::<Prefix>().unwrap()).collect(),
            class,
            unresponsive: false,
        }
    }

    const B: PrefixBounds = PrefixBounds { upper: 31, lower: 24 };

    #[test]
    fn exact_has_zero_distance() {
        let c = cls("10.0.0.0/30", &["10.0.0.0/30"], MatchClass::Exact);
        assert_eq!(prefix_distance(&c, B), 0.0);
        assert_eq!(size_distance(&c, B), 0.0);
    }

    #[test]
    fn under_and_over_use_absolute_prefix_difference() {
        let u = cls("10.0.0.0/28", &["10.0.0.0/30"], MatchClass::Underestimated);
        assert_eq!(prefix_distance(&u, B), 2.0);
        assert_eq!(size_distance(&u, B), (16 - 4) as f64);
        let o = cls("10.0.0.0/30", &["10.0.0.0/29"], MatchClass::Overestimated);
        assert_eq!(prefix_distance(&o, B), 1.0);
        assert_eq!(size_distance(&o, B), 4.0);
    }

    #[test]
    fn missing_takes_the_worse_boundary() {
        // /30 original: distance to pu=31 is 1, to pl=24 is 6 → 6.
        let m = cls("10.0.0.0/30", &[], MatchClass::Missing);
        assert_eq!(prefix_distance(&m, B), 6.0);
        // Size: max(2^8 − 2^2, 2^2 − 2^1) = 252.
        assert_eq!(size_distance(&m, B), 252.0);
    }

    #[test]
    fn split_uses_the_extreme_piece() {
        let s = cls("10.0.0.0/28", &["10.0.0.0/30", "10.0.0.8/31"], MatchClass::Split);
        // Equation (1): |28 − max{30, 31}| = 3.
        assert_eq!(prefix_distance(&s, B), 3.0);
        // Equation (4): |16 − max{4, 2}| = 12.
        assert_eq!(size_distance(&s, B), 12.0);
    }

    #[test]
    fn similarity_is_one_for_all_exact_and_degrades() {
        let all_exact = vec![
            cls("10.0.0.0/30", &["10.0.0.0/30"], MatchClass::Exact),
            cls("10.0.1.0/29", &["10.0.1.0/29"], MatchClass::Exact),
        ];
        let b = PrefixBounds::from_classifications(&all_exact);
        assert_eq!(prefix_similarity(&all_exact, b), 1.0);
        assert_eq!(size_similarity(&all_exact, b), 1.0);

        let mixed = vec![
            cls("10.0.0.0/30", &["10.0.0.0/30"], MatchClass::Exact),
            cls("10.0.1.0/29", &[], MatchClass::Missing),
        ];
        let s = prefix_similarity(&mixed, B);
        assert!(s < 1.0 && s > 0.0, "similarity {s} should be fractional");
        assert!(size_similarity(&mixed, B) < 1.0);
    }

    #[test]
    fn bounds_derivation() {
        let cs = vec![
            cls("10.0.0.0/30", &[], MatchClass::Missing),
            cls("10.0.1.0/26", &[], MatchClass::Missing),
        ];
        let b = PrefixBounds::from_classifications(&cs);
        assert_eq!(b.upper, 30);
        assert_eq!(b.lower, 26);
    }
}

#[cfg(test)]
mod paper_table_tests {
    //! Applies the paper's equations to the paper's *own published
    //! tables*, documenting two things: our implementation reproduces
    //! the published Internet2 similarity from the published Table 1,
    //! and the published GEANT similarity (0.900) is NOT what the
    //! published Table 2 yields under equation (3) — see EXPERIMENTS.md.

    use super::*;
    use crate::classify::{Classification, MatchClass};
    use inet::Prefix;

    /// Builds `n` classifications of one kind at prefix length `len`;
    /// under/over entries collect at `collected_len`.
    fn batch(
        n: usize,
        len: u8,
        class: MatchClass,
        collected_len: Option<u8>,
    ) -> Vec<Classification> {
        (0..n)
            .map(|k| {
                // Distinct prefixes; the metric only reads lengths.
                let base = inet::Addr::from_u32(0x0a00_0000 + (k as u32) * 0x100);
                let original = Prefix::containing(base, len);
                let collected = match (class, collected_len) {
                    (MatchClass::Missing, _) => vec![],
                    (_, Some(cl)) => vec![Prefix::containing(base, cl)],
                    (_, None) => vec![original],
                };
                Classification { original, collected, class, unresponsive: false }
            })
            .collect()
    }

    /// The paper's Table 1 rows, fed to equation (3): the published
    /// Internet2 prefix similarity is 0.83 and we land on it.
    #[test]
    fn papers_table1_yields_the_published_internet2_similarity() {
        let mut cls = Vec::new();
        // exmt row: 2 /28, 16 /29, 92 /30, 22 /31.
        cls.extend(batch(2, 28, MatchClass::Exact, None));
        cls.extend(batch(16, 29, MatchClass::Exact, None));
        cls.extend(batch(92, 30, MatchClass::Exact, None));
        cls.extend(batch(22, 31, MatchClass::Exact, None));
        // miss rows (miss + miss\unrs): 5 /24, 1 /25, 2 /27, 3 /28,
        // 4 /29, 8 /30, 1 /31.
        for (n, len) in [(5, 24), (1, 25), (2, 27), (3, 28), (4, 29), (8, 30), (1, 31)] {
            cls.extend(batch(n, len, MatchClass::Missing, None));
        }
        // undes rows: 1 /24 and 21 /28 (2 undes + 19 undes\unrs),
        // collected roughly two sizes small (the paper's dissected /28s
        // held 2-5 addresses → /30ish pieces).
        cls.extend(batch(1, 24, MatchClass::Underestimated, Some(26)));
        cls.extend(batch(21, 28, MatchClass::Underestimated, Some(30)));
        // ovres row: 1 /30 collected as /29.
        cls.extend(batch(1, 30, MatchClass::Overestimated, Some(29)));
        assert_eq!(cls.len(), 179);

        let bounds = PrefixBounds { upper: 31, lower: 24 };
        let s = prefix_similarity(&cls, bounds);
        assert!(
            (0.80..=0.86).contains(&s),
            "paper's Table 1 under eq.(3) gives {s}, published 0.83"
        );
    }

    /// The paper's Table 2 rows, fed to equation (3): ≈ 0.60, not the
    /// published 0.900 — the reproduction finding of EXPERIMENTS.md.
    #[test]
    fn papers_table2_does_not_yield_the_published_geant_similarity() {
        let mut cls = Vec::new();
        // exmt: 41 /29, 104 /30.
        cls.extend(batch(41, 29, MatchClass::Exact, None));
        cls.extend(batch(104, 30, MatchClass::Exact, None));
        // miss: 10 /28, 54 /29, 34 /30.
        cls.extend(batch(10, 28, MatchClass::Missing, None));
        cls.extend(batch(54, 29, MatchClass::Missing, None));
        cls.extend(batch(34, 30, MatchClass::Missing, None));
        // undes: 14 /28 (3 + 11) as /30 pieces, 14 /29 as /30.
        cls.extend(batch(14, 28, MatchClass::Underestimated, Some(30)));
        cls.extend(batch(14, 29, MatchClass::Underestimated, Some(30)));
        assert_eq!(cls.len(), 271);

        let bounds = PrefixBounds { upper: 30, lower: 28 };
        let s = prefix_similarity(&cls, bounds);
        assert!(
            (0.45..=0.70).contains(&s),
            "paper's Table 2 under eq.(3) gives {s} — nowhere near 0.900"
        );
    }
}
