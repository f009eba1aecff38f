//! Multi-word lane arithmetic for the compiled backend.
//!
//! [`Lanes<W>`] holds `64 * W` independent 3-valued stimulus streams in
//! a **two-plane** encoding of `W` machine words per plane:
//!
//! | value | `hi` bit | `lo` bit |
//! |-------|----------|----------|
//! | 0     | 0        | 1        |
//! | 1     | 1        | 0        |
//! | X     | 1        | 1        |
//!
//! (`hi=lo=0` never occurs.) A lane is *known* iff `hi ^ lo`. NOT swaps
//! the planes; AND/OR/XOR/MUX reduce to plane formulas, each equal to
//! [`Logic`](crate::Logic)'s 3-valued tables in every lane (the
//! exhaustive cross-check in this module's tests), which is what lets
//! the compiled backend's lane `l` follow the scalar simulator's
//! trajectory for the same stimulus.
//!
//! All hot methods are `#[inline]` loops over fixed-size arrays: the
//! compiler unrolls and auto-vectorizes them, which is where the
//! per-stream cost drop at `W ∈ {2, 4, 8}` comes from.

/// Per-lane boolean mask over `W` words (one bit per stimulus lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask<const W: usize>(pub [u64; W]);

impl<const W: usize> Mask<W> {
    /// All lanes clear.
    pub const NONE: Mask<W> = Mask([0; W]);

    /// Mask covering the first `lanes` lanes (lane `l` = bit `l % 64`
    /// of word `l / 64`).
    pub fn first(lanes: usize) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            let lo = w * 64;
            if lanes >= lo + 64 {
                *word = !0;
            } else if lanes > lo {
                *word = (1u64 << (lanes - lo)) - 1;
            }
        }
        Mask(m)
    }

    /// `true` when no lane is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Lane-wise AND.
    #[inline]
    #[must_use]
    pub fn and(self, o: Mask<W>) -> Mask<W> {
        let mut m = self.0;
        for (a, b) in m.iter_mut().zip(o.0) {
            *a &= b;
        }
        Mask(m)
    }

    /// Lane-wise OR.
    #[inline]
    #[must_use]
    pub fn or(self, o: Mask<W>) -> Mask<W> {
        let mut m = self.0;
        for (a, b) in m.iter_mut().zip(o.0) {
            *a |= b;
        }
        Mask(m)
    }

    /// Lane-wise NOT. An inherent method (not `std::ops::Not`) so mask
    /// chains read left-to-right without importing the trait.
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Mask<W> {
        let mut m = self.0;
        for a in m.iter_mut() {
            *a = !*a;
        }
        Mask(m)
    }

    /// Number of set lanes.
    #[inline]
    pub fn count(self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Index of the lowest set lane, or `None` when empty.
    pub fn lowest(self) -> Option<usize> {
        for (w, &word) in self.0.iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// `64 * W` lanes of 3-valued logic in two `W`-word bit-planes: a lane's
/// value is 0 for `(hi, lo) = (0, 1)`, 1 for `(1, 0)`, X for `(1, 1)`
/// (`(0, 0)` never occurs; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<const W: usize> {
    /// Plane set for 1 and X.
    pub hi: [u64; W],
    /// Plane set for 0 and X.
    pub lo: [u64; W],
}

impl<const W: usize> Lanes<W> {
    /// All lanes 0.
    pub const ZERO: Lanes<W> = Lanes {
        hi: [0; W],
        lo: [!0; W],
    };
    /// All lanes 1.
    pub const ONE: Lanes<W> = Lanes {
        hi: [!0; W],
        lo: [0; W],
    };
    /// All lanes X.
    pub const X: Lanes<W> = Lanes {
        hi: [!0; W],
        lo: [!0; W],
    };

    /// Same value in every lane.
    pub fn splat(v: crate::Logic) -> Lanes<W> {
        match v {
            crate::Logic::Zero => Lanes::ZERO,
            crate::Logic::One => Lanes::ONE,
            crate::Logic::X => Lanes::X,
        }
    }

    /// Known (non-X) values from per-word bit vectors: lane `l` = bit
    /// `l % 64` of `bits[l / 64]`.
    pub fn from_bits(bits: [u64; W]) -> Lanes<W> {
        let mut lo = bits;
        for w in lo.iter_mut() {
            *w = !*w;
        }
        Lanes { hi: bits, lo }
    }

    /// Value in lane `l`.
    pub fn get(self, lane: usize) -> crate::Logic {
        let (w, b) = (lane / 64, lane % 64);
        match ((self.hi[w] >> b) & 1, (self.lo[w] >> b) & 1) {
            (0, _) => crate::Logic::Zero,
            (1, 0) => crate::Logic::One,
            _ => crate::Logic::X,
        }
    }

    /// Lanes holding a known value.
    #[inline]
    pub fn known(self) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, mw) in m.iter_mut().enumerate() {
            *mw = self.hi[w] ^ self.lo[w];
        }
        Mask(m)
    }

    /// Lanes holding exactly 1.
    #[inline]
    pub fn is_one(self) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, mw) in m.iter_mut().enumerate() {
            *mw = self.hi[w] & !self.lo[w];
        }
        Mask(m)
    }

    /// Lanes holding exactly 0.
    #[inline]
    pub fn is_zero(self) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, mw) in m.iter_mut().enumerate() {
            *mw = self.lo[w] & !self.hi[w];
        }
        Mask(m)
    }

    /// Lanes holding X.
    #[inline]
    pub fn is_x(self) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, mw) in m.iter_mut().enumerate() {
            *mw = self.hi[w] & self.lo[w];
        }
        Mask(m)
    }

    /// Lanes where `self` and `other` hold the same 3-valued value
    /// (X == X).
    #[inline]
    pub fn eq_lanes(self, o: Lanes<W>) -> Mask<W> {
        let mut m = [0u64; W];
        for (w, mw) in m.iter_mut().enumerate() {
            *mw = !(self.hi[w] ^ o.hi[w]) & !(self.lo[w] ^ o.lo[w]);
        }
        Mask(m)
    }

    /// Lane-wise 3-valued AND.
    #[inline]
    #[must_use]
    pub fn and(self, b: Lanes<W>) -> Lanes<W> {
        let mut r = self;
        for w in 0..W {
            r.hi[w] &= b.hi[w];
            r.lo[w] |= b.lo[w];
        }
        r
    }

    /// Lane-wise 3-valued OR.
    #[inline]
    #[must_use]
    pub fn or(self, b: Lanes<W>) -> Lanes<W> {
        let mut r = self;
        for w in 0..W {
            r.hi[w] |= b.hi[w];
            r.lo[w] &= b.lo[w];
        }
        r
    }

    /// Lane-wise 3-valued XOR.
    #[inline]
    #[must_use]
    pub fn xor(self, b: Lanes<W>) -> Lanes<W> {
        let mut r = Lanes::X;
        for w in 0..W {
            r.hi[w] = (self.hi[w] & b.lo[w]) | (self.lo[w] & b.hi[w]);
            r.lo[w] = (self.hi[w] & b.hi[w]) | (self.lo[w] & b.lo[w]);
        }
        r
    }

    /// Lane-wise 3-valued NOT: swap the planes. An inherent method (not
    /// `std::ops::Not`) so lane chains read left-to-right without
    /// importing the trait.
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Lanes<W> {
        Lanes {
            hi: self.lo,
            lo: self.hi,
        }
    }

    /// Conditional NOT: [`Lanes::not`] when `c`, identity otherwise.
    /// `c` is almost always a compile-time-known flag, so the branch
    /// predicts perfectly.
    #[inline]
    #[must_use]
    pub fn cnot(self, c: bool) -> Lanes<W> {
        if c {
            self.not()
        } else {
            self
        }
    }

    /// Lane-wise 2:1 mux with `self` as select (0 → `d0`, 1 → `d1`,
    /// X → `d0` if it equals `d1`, else X) — the scalar `Mux2` table.
    #[inline]
    #[must_use]
    pub fn mux(self, d0: Lanes<W>, d1: Lanes<W>) -> Lanes<W> {
        let mut r = Lanes::X;
        for w in 0..W {
            r.hi[w] = (self.hi[w] & d1.hi[w]) | (self.lo[w] & d0.hi[w]);
            r.lo[w] = (self.hi[w] & d1.lo[w]) | (self.lo[w] & d0.lo[w]);
        }
        r
    }

    /// Per-lane select: lanes in `mask` take `a`, the rest take `b`.
    #[inline]
    #[must_use]
    pub fn merge(mask: Mask<W>, a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        let mut r = Lanes::X;
        for w in 0..W {
            r.hi[w] = (a.hi[w] & mask.0[w]) | (b.hi[w] & !mask.0[w]);
            r.lo[w] = (a.lo[w] & mask.0[w]) | (b.lo[w] & !mask.0[w]);
        }
        r
    }

    /// Number of active lanes (within `mask`) where `self` and `new`
    /// both hold known values that differ — the scalar simulator's
    /// toggle rule, summed over words.
    #[inline]
    pub fn toggles_to(self, new: Lanes<W>, mask: Mask<W>) -> u64 {
        let mut n = 0u64;
        for w in 0..W {
            let known_old = self.hi[w] ^ self.lo[w];
            let known_new = new.hi[w] ^ new.lo[w];
            let t = known_old & known_new & (self.hi[w] ^ new.hi[w]) & mask.0[w];
            n += u64::from(t.count_ones());
        }
        n
    }

    /// One-pass combination of `self != new` and [`Lanes::toggles_to`]:
    /// the hot write path needs both, and fusing them reads each plane
    /// word once instead of twice.
    #[inline]
    pub fn delta_toggles(self, new: Lanes<W>, mask: Mask<W>) -> (bool, u64) {
        let mut diff = 0u64;
        let mut n = 0u64;
        for w in 0..W {
            let dh = self.hi[w] ^ new.hi[w];
            let dl = self.lo[w] ^ new.lo[w];
            diff |= dh | dl;
            let known_old = self.hi[w] ^ self.lo[w];
            let known_new = new.hi[w] ^ new.lo[w];
            n += u64::from((known_old & known_new & dh & mask.0[w]).count_ones());
        }
        (diff != 0, n)
    }

    /// Lanes (within `mask`) where `self` holds exactly 1, as a count.
    #[inline]
    pub fn ones(self, mask: Mask<W>) -> u64 {
        self.is_one().and(mask).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Logic;

    const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    fn lane0<const W: usize>(v: Logic) -> Lanes<W> {
        let mut m = Mask::NONE;
        m.0[0] = 1;
        Lanes::merge(m, Lanes::splat(v), Lanes::X)
    }

    #[test]
    fn wide_plane_ops_match_scalar_tables() {
        fn check<const W: usize>() {
            for a in ALL {
                assert_eq!(lane0::<W>(a).not().get(0), a.not());
                for b in ALL {
                    assert_eq!(lane0::<W>(a).and(lane0(b)).get(0), a.and(b));
                    assert_eq!(lane0::<W>(a).or(lane0(b)).get(0), a.or(b));
                    assert_eq!(lane0::<W>(a).xor(lane0(b)).get(0), a.xor(b));
                    let eq = lane0::<W>(a).eq_lanes(lane0(b)).0[0] & 1;
                    assert_eq!(eq == 1, a == b, "{a} eq {b} (X == X)");
                    for s in ALL {
                        let want = crate::eval_kind(triphase_cells::CellKind::Mux2, &[a, b, s]);
                        assert_eq!(lane0::<W>(s).mux(lane0(a), lane0(b)).get(0), want);
                    }
                }
            }
        }
        check::<1>();
        check::<2>();
        check::<8>();
    }

    #[test]
    fn mask_first_covers_partial_words() {
        let m = Mask::<4>::first(130);
        assert_eq!(m.0, [!0, !0, 0b11, 0]);
        assert_eq!(m.count(), 130);
        assert_eq!(Mask::<2>::first(128).0, [!0, !0]);
        assert!(Mask::<2>::first(0).is_empty());
    }

    #[test]
    fn from_bits_round_trips_lanes_across_words() {
        let v = Lanes::<2>::from_bits([0b101, 1 << 63]);
        assert_eq!(v.get(0), Logic::One);
        assert_eq!(v.get(1), Logic::Zero);
        assert_eq!(v.get(2), Logic::One);
        assert_eq!(v.get(127), Logic::One);
        assert_eq!(v.get(126), Logic::Zero);
    }

    #[test]
    fn toggle_counting_matches_scalar_rule() {
        // 0 -> 1 toggles; 0 -> X, X -> 1, X -> X do not.
        let old = Lanes::<1>::from_bits([0]);
        let new = Lanes::<1>::ONE;
        assert_eq!(old.toggles_to(new, Mask::first(64)), 64);
        assert_eq!(old.toggles_to(new, Mask::first(3)), 3);
        assert_eq!(old.toggles_to(Lanes::X, Mask::first(64)), 0);
        assert_eq!(Lanes::<1>::X.toggles_to(new, Mask::first(64)), 0);
    }

    #[test]
    fn lowest_set_lane_spans_words() {
        let mut m = Mask::<4>::NONE;
        m.0[2] = 0b100;
        assert_eq!(m.lowest(), Some(130));
        assert_eq!(Mask::<4>::NONE.lowest(), None);
    }
}
