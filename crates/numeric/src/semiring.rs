//! The counting-semiring abstraction all SortScan variants are generic over.
//!
//! Every SS dynamic program is a sum of products of per-candidate-set factors.
//! Which *numbers* those sums and products live in is a deployment decision:
//!
//! * exact machine integers (`u128`) for small instances and tests,
//! * exact big integers ([`BigUint`]) when the world count must be printed,
//! * `f64` in *probability space* (each factor divided by the set size `M_i`)
//!   when only label probabilities are needed — the fast path CPClean uses,
//! * [`ScaledF64`] when exact-magnitude counts of astronomically many worlds
//!   are needed without big-integer cost,
//! * [`Possibility`] (the boolean OR/AND semiring) when only *whether any
//!   world supports a label* matters — i.e. an exact Q1 answer that cannot be
//!   corrupted by floating-point underflow.
//!
//! The algorithms in `cp-core` are written once against [`CountSemiring`] and
//! instantiated with each of these.

use crate::biguint::BigUint;
use crate::scaled::ScaledF64;

/// A commutative semiring suitable for possible-world counting.
///
/// Implementations must satisfy the usual semiring laws (associativity and
/// commutativity of `add`/`mul`, distributivity, `zero` absorbing for `mul`,
/// identities) — the property tests in this module check them on samples.
pub trait CountSemiring: Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// `true` iff the value is the additive identity.
    fn is_zero(&self) -> bool;
    /// Semiring addition.
    fn add(&self, other: &Self) -> Self;
    /// Semiring multiplication.
    fn mul(&self, other: &Self) -> Self;

    /// Whether `add` and `mul` are exact: reordering or regrouping any sum
    /// or product yields the identical value. An exact semiring also lifts
    /// counts multiplicatively: `from_count(1, 1) == one()`, and
    /// `from_count(a·b, a·b) == from_count(a, a) ⊗ from_count(b, b)` whenever
    /// `a·b` fits a `u32`.
    ///
    /// The tree scans fold a label's frozen candidate sets into one scalar
    /// and multiply it in once, instead of carrying each set as a tree leaf,
    /// only when this holds: a scalar times a polynomial then equals the
    /// tree's product bit for bit. The count law lets [`CountProduct`]
    /// multiply many set sizes as machine integers and lift the product
    /// once. The floating-point types keep the default `false`, because
    /// their products round.
    const EXACT: bool = false;

    /// In-place addition (override for allocation-heavy types).
    fn add_assign(&mut self, other: &Self) {
        *self = self.add(other);
    }

    /// In-place multiplication.
    fn mul_assign(&mut self, other: &Self) {
        *self = self.mul(other);
    }

    /// Lift a similarity-tally entry into the semiring.
    ///
    /// `count` is the number of candidates of one candidate set on one side of
    /// the boundary; `set_size` is that set's total candidate count `M_i`.
    /// Counting semirings ignore `set_size`; probability-space semirings
    /// divide by it so that the "factor" becomes the probability that a
    /// uniformly-chosen candidate of the set lands on that side.
    fn from_count(count: u32, set_size: u32) -> Self;

    /// Best-effort conversion for reporting and for probability extraction.
    fn to_f64(&self) -> f64;

    /// `self / total` as an `f64` probability. The default uses
    /// [`CountSemiring::to_f64`]; extended-range types override it so the
    /// ratio stays correct when both counts exceed `f64` range.
    fn ratio(&self, total: &Self) -> f64 {
        let t = total.to_f64();
        if t == 0.0 {
            0.0
        } else {
            self.to_f64() / t
        }
    }
}

/// A counting semiring with (exact where meaningful) division, required by
/// the K=1 SortScan fast path (§3.1.2), whose `O(NM log NM)` bound relies on
/// maintaining a running product incrementally.
pub trait DivSemiring: CountSemiring {
    /// `self / other`. For integer semirings the division is exact by
    /// construction of the running-product maintenance (`other` always
    /// divides `self`).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    fn div(&self, other: &Self) -> Self;
}

impl DivSemiring for f64 {
    fn div(&self, other: &Self) -> Self {
        assert!(*other != 0.0, "division by zero");
        self / other
    }
}

impl DivSemiring for u128 {
    fn div(&self, other: &Self) -> Self {
        assert!(*other != 0, "division by zero");
        debug_assert_eq!(self % other, 0, "inexact u128 semiring division");
        self / other
    }
}

impl DivSemiring for ScaledF64 {
    fn div(&self, other: &Self) -> Self {
        ScaledF64::div(self, other)
    }
}

/// Exact: an overflow panics rather than wrapping.
impl CountSemiring for u128 {
    const EXACT: bool = true;

    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other)
            .expect("u128 world count overflow: use BigUint or ScaledF64")
    }
    fn mul(&self, other: &Self) -> Self {
        self.checked_mul(*other)
            .expect("u128 world count overflow: use BigUint or ScaledF64")
    }
    fn from_count(count: u32, _set_size: u32) -> Self {
        count as u128
    }
    fn to_f64(&self) -> f64 {
        *self as f64
    }
}

/// `f64` in probability space: factors are `count / set_size`.
///
/// Sums of supports then directly yield the probability mass of worlds under
/// the uniform prior over candidates — exactly the quantity CPClean's entropy
/// objective consumes. Deep-tail products may underflow to zero, which is
/// harmless for entropy (the lost mass is far below `f64` epsilon) but is why
/// exact Q1 uses [`Possibility`] instead.
impl CountSemiring for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn from_count(count: u32, set_size: u32) -> Self {
        debug_assert!(set_size > 0 && count <= set_size);
        count as f64 / set_size as f64
    }
    fn to_f64(&self) -> f64 {
        *self
    }
}

impl CountSemiring for BigUint {
    const EXACT: bool = true;

    fn zero() -> Self {
        BigUint::zero()
    }
    fn one() -> Self {
        BigUint::one()
    }
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        BigUint::add(self, other)
    }
    fn mul(&self, other: &Self) -> Self {
        BigUint::mul(self, other)
    }
    fn add_assign(&mut self, other: &Self) {
        self.add_in_place(other);
    }
    fn mul_assign(&mut self, other: &Self) {
        self.mul_in_place(other);
    }
    fn from_count(count: u32, _set_size: u32) -> Self {
        BigUint::from_u64(count as u64)
    }
    fn to_f64(&self) -> f64 {
        BigUint::to_f64(self)
    }
    fn ratio(&self, total: &Self) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            BigUint::ratio(self, total)
        }
    }
}

impl CountSemiring for ScaledF64 {
    fn zero() -> Self {
        ScaledF64::zero()
    }
    fn one() -> Self {
        ScaledF64::one()
    }
    fn is_zero(&self) -> bool {
        ScaledF64::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        ScaledF64::add(self, other)
    }
    fn mul(&self, other: &Self) -> Self {
        ScaledF64::mul(self, other)
    }
    fn from_count(count: u32, _set_size: u32) -> Self {
        ScaledF64::from_u64(count as u64)
    }
    fn to_f64(&self) -> f64 {
        ScaledF64::to_f64(self)
    }
    fn ratio(&self, total: &Self) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            ScaledF64::ratio(self, total)
        }
    }
}

/// The boolean (possibility) semiring: `add = OR`, `mul = AND`.
///
/// A Q2 run instantiated with `Possibility` computes, per label, *whether at
/// least one possible world predicts it* — which answers Q1 exactly for any
/// number of classes, with no overflow or underflow concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Possibility(pub bool);

impl CountSemiring for Possibility {
    const EXACT: bool = true;

    fn zero() -> Self {
        Possibility(false)
    }
    fn one() -> Self {
        Possibility(true)
    }
    fn is_zero(&self) -> bool {
        !self.0
    }
    fn add(&self, other: &Self) -> Self {
        Possibility(self.0 || other.0)
    }
    fn mul(&self, other: &Self) -> Self {
        Possibility(self.0 && other.0)
    }
    fn from_count(count: u32, _set_size: u32) -> Self {
        Possibility(count > 0)
    }
    fn to_f64(&self) -> f64 {
        if self.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// Fold a product over an iterator of semiring values.
pub fn product<S: CountSemiring>(items: impl IntoIterator<Item = S>) -> S {
    let mut acc = S::one();
    for item in items {
        if acc.is_zero() {
            return acc;
        }
        acc.mul_assign(&item);
    }
    acc
}

/// The product of `from_count(c, c)` over a stream of counts `c` — a
/// world count `∏ M_i` or a label's folded frozen sets.
///
/// In an exact semiring ([`CountSemiring::EXACT`]) the counts multiply as a
/// `u32` and the product is lifted into `S` only when the next count would
/// overflow it (and once at the end), which the count law makes equal to
/// lifting every count. Any other semiring multiplies each lifted count in
/// turn, the one-at-a-time grouping.
#[derive(Clone, Debug)]
pub struct CountProduct<S> {
    acc: S,
    /// Counts not yet lifted into `acc`, multiplied (exact semirings only).
    pending: u32,
}

impl<S: CountSemiring> Default for CountProduct<S> {
    fn default() -> Self {
        CountProduct {
            acc: S::one(),
            pending: 1,
        }
    }
}

impl<S: CountSemiring> CountProduct<S> {
    /// Multiply `from_count(count, count)` in.
    #[inline]
    pub fn push(&mut self, count: u32) {
        if !S::EXACT {
            self.acc.mul_assign(&S::from_count(count, count));
            return;
        }
        match self.pending.checked_mul(count) {
            Some(p) => self.pending = p,
            None => {
                self.flush();
                self.pending = count;
            }
        }
    }

    /// Lift the pending counts into the accumulated value.
    fn flush(&mut self) {
        if self.pending != 1 {
            self.acc
                .mul_assign(&S::from_count(self.pending, self.pending));
            self.pending = 1;
        }
    }

    /// The product of every count pushed (`one` when none was).
    pub fn finish(mut self) -> S {
        self.flush();
        self.acc
    }
}

/// Fold a sum over an iterator of semiring values.
pub fn sum<S: CountSemiring>(items: impl IntoIterator<Item = S>) -> S {
    let mut acc = S::zero();
    for item in items {
        acc.add_assign(&item);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_laws<S: CountSemiring>(a: S, b: S, c: S) {
        // associativity + commutativity of add
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        // associativity + commutativity of mul
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        // identities
        assert_eq!(a.add(&S::zero()), a);
        assert_eq!(a.mul(&S::one()), a);
        // zero absorbs
        assert!(a.mul(&S::zero()).is_zero());
        // distributivity
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn u128_laws() {
        check_laws(3u128, 5u128, 7u128);
    }

    #[test]
    fn biguint_laws() {
        check_laws(
            BigUint::from_u64(123456789),
            BigUint::from_u64(987654321),
            BigUint::from_u64(5).pow(40),
        );
    }

    #[test]
    fn possibility_laws() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    check_laws(Possibility(a), Possibility(b), Possibility(c));
                }
            }
        }
    }

    #[test]
    fn probability_from_count() {
        assert_eq!(<f64 as CountSemiring>::from_count(2, 4), 0.5);
        assert_eq!(<f64 as CountSemiring>::from_count(0, 4), 0.0);
        assert_eq!(<f64 as CountSemiring>::from_count(4, 4), 1.0);
    }

    #[test]
    fn counting_from_count_ignores_set_size() {
        assert_eq!(<u128 as CountSemiring>::from_count(3, 5), 3);
        assert_eq!(
            <BigUint as CountSemiring>::from_count(3, 5),
            BigUint::from_u64(3)
        );
        assert_eq!(Possibility::from_count(3, 5), Possibility(true));
        assert_eq!(Possibility::from_count(0, 5), Possibility(false));
    }

    #[test]
    fn product_short_circuits_on_zero() {
        let p = product::<u128>(vec![3, 0, 5]);
        assert_eq!(p, 0);
        let q = product::<u128>(vec![3, 5]);
        assert_eq!(q, 15);
    }

    #[test]
    fn sum_of_empty_is_zero() {
        assert_eq!(sum::<u128>(Vec::new()), 0);
        assert!(sum::<ScaledF64>(Vec::new()).is_zero());
    }

    proptest! {
        #[test]
        fn scaledf64_distributivity_approx(a in 0.0f64..1e20, b in 0.0f64..1e20, c in 0.0f64..1e20) {
            let (x, y, z) = (ScaledF64::from_f64(a), ScaledF64::from_f64(b), ScaledF64::from_f64(c));
            let lhs = x.mul(&y.add(&z)).to_f64();
            let rhs = x.mul(&y).add(&x.mul(&z)).to_f64();
            let scale = lhs.abs().max(rhs.abs()).max(1.0);
            prop_assert!((lhs - rhs).abs() / scale < 1e-12);
        }

        #[test]
        fn u128_laws_prop(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
            check_laws(a as u128, b as u128, c as u128);
        }
    }
}
