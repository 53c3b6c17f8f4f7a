//! Floating-point time utilities.
//!
//! All processing times and schedule instants in this workspace are `f64`
//! seconds. Algorithmic decisions that gate on time comparisons (spoliation
//! improvement tests, binary searches, validation) must tolerate the rounding
//! noise that exact-arithmetic constructions such as the golden-ratio
//! instances of Theorems 8 and 11 produce: there, "no improvement" cases are
//! exact ties in the reals (e.g. `1/phi + 1 == phi`) that land within one ulp
//! in `f64`. A relative epsilon keeps those ties ties.

use std::cmp::Ordering;

/// Relative tolerance used by all time comparisons.
pub const REL_EPS: f64 = 1e-9;

/// Absolute floor for the tolerance, so comparisons near zero behave.
pub const ABS_EPS: f64 = 1e-12;

/// The golden ratio φ = (1+√5)/2, ubiquitous in the paper's bounds.
pub const PHI: f64 = 1.618033988749894848204586834365638118_f64;

/// Tolerance scaled to the magnitude of the operands.
#[inline]
pub fn tol(a: f64, b: f64) -> f64 {
    ABS_EPS + REL_EPS * a.abs().max(b.abs()).max(1.0)
}

/// `a` is strictly less than `b`, beyond rounding noise.
#[inline]
pub fn strictly_less(a: f64, b: f64) -> bool {
    a < b - tol(a, b)
}

/// `a <= b` up to rounding noise.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + tol(a, b)
}

/// `a == b` up to rounding noise.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= tol(a, b)
}

/// Total-order wrapper for finite `f64` keys in heaps and sorts.
///
/// Panics (in debug builds) if constructed from a NaN; processing times and
/// schedule instants are always finite in this workspace. Equality is the
/// order's: `F64Ord(0.0) != F64Ord(-0.0)`, and a NaN equals itself.
#[derive(Clone, Copy, Debug)]
pub struct F64Ord(pub f64);

impl F64Ord {
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN time");
        F64Ord(v)
    }

    /// The value's place in `total_cmp`'s order as an unsigned integer:
    /// `a.cmp(&b) == a.total_bits().cmp(&b.total_bits())` for any two
    /// values, ±0.0 and NaNs included. Sort keys compare faster this way.
    #[inline]
    pub fn total_bits(self) -> u64 {
        let bits = self.0.to_bits();
        // `total_cmp` flips all but the sign bit of a negative value and
        // compares signed; flipping the sign bit as well makes it unsigned.
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The inverse of [`total_bits`](Self::total_bits).
    #[inline]
    pub fn from_total_bits(bits: u64) -> Self {
        F64Ord(f64::from_bits(if bits >> 63 == 1 { bits ^ 1 << 63 } else { !bits }))
    }
}

impl PartialEq for F64Ord {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_bits() == other.total_bits()
    }
}

impl Eq for F64Ord {}

impl PartialOrd for F64Ord {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Ord {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_satisfies_its_fixed_point() {
        // φ² = φ + 1 and 1/φ = φ - 1.
        assert!(approx_eq(PHI * PHI, PHI + 1.0));
        assert!(approx_eq(1.0 / PHI, PHI - 1.0));
    }

    #[test]
    fn golden_ratio_tie_is_a_tie() {
        // The Theorem 8 "no spoliation" test: 1/φ + 1 vs φ must not count as
        // a strict improvement in either direction.
        let a = 1.0 / PHI + 1.0;
        let b = PHI;
        assert!(!strictly_less(a, b));
        assert!(!strictly_less(b, a));
        assert!(approx_eq(a, b));
    }

    #[test]
    fn strict_comparisons_behave() {
        assert!(strictly_less(1.0, 2.0));
        assert!(!strictly_less(2.0, 1.0));
        assert!(!strictly_less(1.0, 1.0 + 1e-12));
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(!approx_le(1.1, 1.0));
    }

    #[test]
    fn tolerance_scales_with_magnitude() {
        let big = 1e12;
        assert!(approx_eq(big, big + 1.0)); // 1.0 is below rel tolerance at 1e12
        assert!(!approx_eq(1.0, 1.0 + 1e-3));
    }

    #[test]
    fn f64ord_orders_totally() {
        let mut v = vec![F64Ord::new(3.0), F64Ord::new(-1.0), F64Ord::new(2.0)];
        v.sort();
        assert_eq!(v, vec![F64Ord::new(-1.0), F64Ord::new(2.0), F64Ord::new(3.0)]);
    }

    #[test]
    fn total_bits_follow_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                let (a, b) = (F64Ord(a), F64Ord(b));
                assert_eq!(a.cmp(&b), a.total_bits().cmp(&b.total_bits()), "{a:?} vs {b:?}");
            }
            let back = F64Ord::from_total_bits(F64Ord(a).total_bits());
            assert_eq!(back.0.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn equality_agrees_with_the_order() {
        let quiet_nan = f64::NAN;
        let payload_nan = f64::from_bits(quiet_nan.to_bits() | 1);
        let values = [-0.0, 0.0, 1.0, quiet_nan, -quiet_nan, payload_nan];
        for a in values {
            for b in values {
                let (a, b) = (F64Ord(a), F64Ord(b));
                assert_eq!(a == b, a.cmp(&b) == Ordering::Equal, "{a:?} vs {b:?}");
            }
        }
        assert_ne!(F64Ord(0.0), F64Ord(-0.0));
        assert_eq!(F64Ord(quiet_nan), F64Ord(quiet_nan));
        assert_ne!(F64Ord(quiet_nan), F64Ord(payload_nan));
    }
}
