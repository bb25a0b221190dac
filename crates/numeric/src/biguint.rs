//! A minimal arbitrary-precision unsigned integer.
//!
//! Possible-world counts grow like `∏ M_i` and therefore need arbitrary
//! precision when exact values are required (primarily in tests, where the
//! efficient algorithms are checked against brute-force enumeration, and in
//! demos that print exact world counts). Only the operations the CP
//! algorithms need are implemented: addition, multiplication, comparison,
//! conversion to `f64`, and decimal formatting.
//!
//! Representation: little-endian base-2^32 limbs with no trailing zero limbs
//! (so `0` has no limbs). A value below 2^128 — at most four limbs — is
//! stored inline, with no heap buffer; a longer one in a `Vec`. Which form a
//! value takes is a function of its size alone, and equality, ordering and
//! hashing look only at the trimmed limbs. The scans create mostly small
//! values (every tally entry, every set size, most tree coefficients), so
//! they allocate only once a count outgrows 128 bits; the in-place
//! operations behind the semiring's `add_assign` and `mul_assign` reuse the
//! buffer after that.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Limbs a value may have and still be stored inline.
const INLINE: usize = 4;

/// The limb storage: inline iff the value has at most [`INLINE`] limbs.
#[derive(Clone)]
enum Limbs {
    /// Four little-endian limbs; the value's limbs end after the highest
    /// nonzero one.
    Inline([u32; INLINE]),
    /// More than [`INLINE`] limbs, the last one nonzero.
    Heap(Vec<u32>),
}

/// Arbitrary-precision unsigned integer (little-endian `u32` limbs).
#[derive(Clone)]
pub struct BigUint {
    limbs: Limbs,
}

/// The four limbs of `v`, least significant first.
fn split(v: u128) -> [u32; INLINE] {
    [
        v as u32,
        (v >> 32) as u32,
        (v >> 64) as u32,
        (v >> 96) as u32,
    ]
}

/// The value of four little-endian limbs.
fn join(buf: &[u32; INLINE]) -> u128 {
    buf.iter()
        .rev()
        .fold(0, |acc, &limb| (acc << 32) | limb as u128)
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        Self::from_u128(0)
    }

    /// The value `1`.
    pub fn one() -> Self {
        Self::from_u128(1)
    }

    /// Build from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_u128(v as u128)
    }

    /// Build from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        BigUint {
            limbs: Limbs::Inline(split(v)),
        }
    }

    /// Build from little-endian limbs that may end in zeros.
    fn from_limbs(mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..limbs.len()].copy_from_slice(&limbs);
            return BigUint {
                limbs: Limbs::Inline(buf),
            };
        }
        BigUint {
            limbs: Limbs::Heap(limbs),
        }
    }

    /// The trimmed little-endian limbs.
    fn limbs(&self) -> &[u32] {
        match &self.limbs {
            Limbs::Inline(buf) => {
                let len = buf
                    .iter()
                    .rposition(|&limb| limb != 0)
                    .map_or(0, |top| top + 1);
                &buf[..len]
            }
            Limbs::Heap(limbs) => limbs,
        }
    }

    /// The value as a `u128` when it is stored inline.
    fn small(&self) -> Option<u128> {
        match &self.limbs {
            Limbs::Inline(buf) => Some(join(buf)),
            Limbs::Heap(_) => None,
        }
    }

    /// The limb buffer, moved to the heap if the value is inline; the
    /// caller restores the invariant (more than [`INLINE`] limbs, the last
    /// nonzero) before returning.
    fn heap_mut(&mut self) -> &mut Vec<u32> {
        if let Limbs::Inline(_) = self.limbs {
            self.limbs = Limbs::Heap(self.limbs().to_vec());
        }
        match &mut self.limbs {
            Limbs::Heap(limbs) => limbs,
            Limbs::Inline(_) => unreachable!("moved to the heap above"),
        }
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.limbs, Limbs::Inline([0, 0, 0, 0]))
    }

    /// Number of limbs (mostly useful for capacity heuristics in callers).
    pub fn limb_count(&self) -> usize {
        self.limbs().len()
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_in_place(other);
        out
    }

    /// `self += other`, in place: no allocation while the sum stays below
    /// 2^128, and none past that unless the sum outgrows the buffer.
    pub(crate) fn add_in_place(&mut self, other: &BigUint) {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            if let Some(sum) = a.checked_add(b) {
                *self = Self::from_u128(sum);
                return;
            }
        }
        let short = other.limbs();
        let long = self.heap_mut();
        if long.len() < short.len() {
            long.resize(short.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in long.iter_mut().enumerate() {
            if carry == 0 && i >= short.len() {
                break;
            }
            let sum = *limb as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            *limb = sum as u32;
            carry = sum >> 32;
        }
        if carry != 0 {
            long.push(carry as u32);
        }
    }

    /// `self * other` (schoolbook multiplication; counts stay small enough
    /// that asymptotically faster algorithms are unnecessary).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            if let Some(product) = a.checked_mul(b) {
                return Self::from_u128(product);
            }
        }
        let (a, b) = (self.limbs(), other.limbs());
        if a.is_empty() || b.is_empty() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// `self *= other`, in place. Multiplying by one is a no-op and a
    /// one-limb factor on either side takes one `O(limbs)` pass over the
    /// other, reusing its buffer.
    pub(crate) fn mul_in_place(&mut self, other: &BigUint) {
        match (self.limbs(), other.limbs()) {
            (_, [1]) | ([], _) => {}
            (_, []) => *self = BigUint::zero(),
            (_, &[factor]) => self.mul_small_in_place(factor),
            (&[factor], _) => *self = other.mul_small(factor),
            _ => *self = self.mul(other),
        }
    }

    /// `self *= scalar`, in place.
    fn mul_small_in_place(&mut self, scalar: u32) {
        if let Some(v) = self.small() {
            if let Some(product) = v.checked_mul(scalar as u128) {
                *self = Self::from_u128(product);
                return;
            }
        }
        if scalar == 0 {
            *self = BigUint::zero();
            return;
        }
        let limbs = self.heap_mut();
        let mut carry: u64 = 0;
        for limb in limbs.iter_mut() {
            let cur = *limb as u64 * scalar as u64 + carry;
            *limb = cur as u32;
            carry = cur >> 32;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
    }

    /// `self * scalar`, as a new value.
    pub fn mul_small(&self, scalar: u32) -> BigUint {
        let mut out = self.clone();
        out.mul_small_in_place(scalar);
        out
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Divide by a small scalar, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `scalar == 0`.
    pub fn div_rem_small(&self, scalar: u32) -> (BigUint, u32) {
        assert!(scalar != 0, "division by zero");
        let limbs = self.limbs();
        let mut out = vec![0u32; limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..limbs.len()).rev() {
            let cur = (rem << 32) | limbs[i] as u64;
            out[i] = (cur / scalar as u64) as u32;
            rem = cur % scalar as u64;
        }
        (Self::from_limbs(out), rem as u32)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Logical right shift by `n` bits.
    pub fn shr_bits(&self, n: usize) -> BigUint {
        let limbs = self.limbs();
        let limb_shift = n / 32;
        let bit_shift = (n % 32) as u32;
        if limb_shift >= limbs.len() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(limbs.len() - limb_shift);
        for idx in limb_shift..limbs.len() {
            let mut v = limbs[idx] >> bit_shift;
            if bit_shift > 0 && idx + 1 < limbs.len() {
                v |= limbs[idx + 1] << (32 - bit_shift);
            }
            out.push(v);
        }
        Self::from_limbs(out)
    }

    /// `self / total` as an `f64`, correct even when both values far exceed
    /// `f64` range (both are shifted down together before dividing).
    ///
    /// # Panics
    /// Panics if `total` is zero.
    pub fn ratio(&self, total: &BigUint) -> f64 {
        assert!(!total.is_zero(), "ratio with zero denominator");
        if self.is_zero() {
            return 0.0;
        }
        let bits = self.bit_len().max(total.bit_len());
        if bits <= 1000 {
            return self.to_f64() / total.to_f64();
        }
        let shift = bits - 96;
        self.shr_bits(shift).to_f64() / total.shr_bits(shift).to_f64()
    }

    /// Best-effort conversion to `f64` (may round or become `inf` for huge
    /// values; exactness is not required for reporting).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            acc = acc * 4294967296.0 + limb as f64;
        }
        acc
    }

    /// Exact conversion to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        self.small()
    }

    /// Decimal string (used by `Display`).
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut chunks: Vec<u32> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (idx, chunk) in chunks.iter().rev().enumerate() {
            if idx == 0 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{:09}", chunk));
            }
        }
        s
    }
}

impl Default for BigUint {
    fn default() -> Self {
        BigUint::zero()
    }
}

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        self.limbs() == other.limbs()
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.limbs(), other.limbs());
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().to_decimal(), "0");
        assert_eq!(BigUint::one().to_decimal(), "1");
    }

    #[test]
    fn add_small_values() {
        let a = BigUint::from_u64(123);
        let b = BigUint::from_u64(877);
        assert_eq!(a.add(&b).to_decimal(), "1000");
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        assert_eq!(a.add(&b).to_decimal(), "18446744073709551616");
    }

    #[test]
    fn mul_known_value() {
        let a = BigUint::from_u64(1_000_000_007);
        let b = BigUint::from_u64(998_244_353);
        assert_eq!(a.mul(&b).to_decimal(), "998244359987710471");
    }

    #[test]
    fn mul_by_zero_is_zero() {
        let a = BigUint::from_u64(42);
        assert!(a.mul(&BigUint::zero()).is_zero());
        assert!(BigUint::zero().mul(&a).is_zero());
    }

    #[test]
    fn pow_matches_shift() {
        // 2^100
        let two = BigUint::from_u64(2);
        assert_eq!(two.pow(100).to_decimal(), "1267650600228229401496703205376");
    }

    #[test]
    fn pow_exponent_zero_is_one() {
        assert_eq!(BigUint::from_u64(987).pow(0).to_decimal(), "1");
        assert_eq!(BigUint::zero().pow(0).to_decimal(), "1");
    }

    #[test]
    fn world_count_5_pow_200_roundtrips_via_div() {
        // The motivating case: 200 dirty rows with 5 candidates each.
        let count = BigUint::from_u64(5).pow(200);
        // dividing by 5 two hundred times must give exactly 1
        let mut cur = count;
        for _ in 0..200 {
            let (q, r) = cur.div_rem_small(5);
            assert_eq!(r, 0);
            cur = q;
        }
        assert_eq!(cur.to_decimal(), "1");
    }

    #[test]
    fn to_f64_reasonable() {
        let v = BigUint::from_u64(1u64 << 53);
        assert_eq!(v.to_f64(), 9007199254740992.0);
        let big = BigUint::from_u64(10).pow(40);
        let rel = (big.to_f64() - 1e40).abs() / 1e40;
        assert!(rel < 1e-12);
    }

    #[test]
    fn to_u128_boundaries() {
        assert_eq!(BigUint::zero().to_u128(), Some(0));
        assert_eq!(BigUint::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(
            BigUint::from_u128(u128::MAX).add(&BigUint::one()).to_u128(),
            None
        );
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(10).pow(30);
        let b = BigUint::from_u64(10).pow(31);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn bit_len_and_shift() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::from_u64(1 << 40).bit_len(), 41);
        let v = BigUint::from_u64(2).pow(100);
        assert_eq!(v.bit_len(), 101);
        assert_eq!(v.shr_bits(100).to_decimal(), "1");
        assert_eq!(v.shr_bits(101).to_decimal(), "0");
        assert_eq!(v.shr_bits(0), v);
    }

    #[test]
    fn ratio_of_huge_counts() {
        // 2·5^900 / 3·5^900 = 2/3 although both overflow f64
        let base = BigUint::from_u64(5).pow(900);
        let a = base.mul_small(2);
        let b = base.mul_small(3);
        assert!((a.ratio(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(BigUint::zero().ratio(&b), 0.0);
    }

    /// The storage invariant: inline iff at most [`INLINE`] limbs, a heap
    /// buffer never ends in a zero limb.
    fn canonical(v: &BigUint) -> bool {
        match &v.limbs {
            Limbs::Inline(_) => true,
            Limbs::Heap(limbs) => limbs.len() > INLINE && limbs.last() != Some(&0),
        }
    }

    #[test]
    fn values_below_2_pow_128_stay_inline() {
        let max = BigUint::from_u128(u128::MAX);
        assert!(matches!(max.limbs, Limbs::Inline(_)));
        assert_eq!(max.limb_count(), 4);
        let grown = max.add(&BigUint::one());
        assert!(matches!(grown.limbs, Limbs::Heap(_)));
        assert_eq!(grown.limb_count(), 5);
        // shrinking back below 2^128 returns to inline storage
        let (half, rem) = grown.div_rem_small(2);
        assert_eq!(rem, 0);
        assert!(matches!(half.limbs, Limbs::Inline(_)));
        assert_eq!(half.to_u128(), Some(1 << 127));
    }

    #[test]
    fn a_longer_trimmed_buffer_is_the_same_value() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &BigUint| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for (limbs, value) in [
            (vec![0u32; 7], 0u128),
            (vec![5, 0, 0, 0, 0, 0], 5),
            (
                vec![1, 2, 3, 4, 0, 0, 0, 0, 0],
                (4 << 96) | (3 << 64) | (2 << 32) | 1,
            ),
        ] {
            let built = BigUint::from_limbs(limbs);
            let inline = BigUint::from_u128(value);
            assert!(canonical(&built));
            assert_eq!(built, inline);
            assert_eq!(hash(&built), hash(&inline));
            // the hash is the trimmed limb slice's, as with a plain `Vec`
            assert_eq!(hash(&built), hash(&BigUint::from_u128(value)));
            assert_eq!(built.cmp(&inline), Ordering::Equal);
            assert!(built < BigUint::from_u128(value + 1));
        }
        let heap = BigUint::from_limbs(vec![7, 0, 0, 0, 1, 0, 0]);
        assert!(canonical(&heap));
        assert_eq!(heap.limb_count(), 5);
        assert!(heap > BigUint::from_u128(u128::MAX));
    }

    proptest! {
        #[test]
        fn in_place_ops_match_the_pure_ones_and_stay_canonical(
            a in 0u128.., b in 0u128.., ea in 0u32..4, eb in 0u32..4
        ) {
            // operands from inline up to a few hundred bits
            let a = BigUint::from_u128(a).mul(&BigUint::from_u128(u128::MAX).pow(ea));
            let b = BigUint::from_u128(b).mul(&BigUint::from_u128(u128::MAX).pow(eb));
            let mut sum = a.clone();
            sum.add_in_place(&b);
            prop_assert_eq!(&sum, &a.add(&b));
            prop_assert!(canonical(&sum));
            let mut product = a.clone();
            product.mul_in_place(&b);
            prop_assert_eq!(&product, &a.mul(&b));
            prop_assert!(canonical(&product));
            let mut small = a.clone();
            small.mul_small_in_place(b.limbs().first().copied().unwrap_or(0));
            prop_assert!(canonical(&small));
        }

        #[test]
        fn shr_matches_u128(a in 0u128.., n in 0usize..130) {
            let r = BigUint::from_u128(a).shr_bits(n);
            let expect = if n >= 128 { 0 } else { a >> n };
            prop_assert_eq!(r.to_u128(), Some(expect));
        }

        #[test]
        fn ratio_matches_f64_small(a in 0u64.., b in 1u64..) {
            let r = BigUint::from_u64(a).ratio(&BigUint::from_u64(b));
            let expect = a as f64 / b as f64;
            prop_assert!((r - expect).abs() <= 1e-12 * expect.abs().max(1.0));
        }

        #[test]
        fn add_matches_u128(a in 0u64.., b in 0u64..) {
            let r = BigUint::from_u64(a).add(&BigUint::from_u64(b));
            prop_assert_eq!(r.to_u128(), Some(a as u128 + b as u128));
        }

        #[test]
        fn mul_matches_u128(a in 0u64.., b in 0u64..) {
            let r = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(r.to_u128(), Some(a as u128 * b as u128));
        }

        #[test]
        fn mul_small_matches_mul(a in 0u64.., s in 0u32..) {
            let lhs = BigUint::from_u64(a).mul_small(s);
            let rhs = BigUint::from_u64(a).mul(&BigUint::from_u64(s as u64));
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn div_rem_small_roundtrip(a in 0u128.., s in 1u32..) {
            let v = BigUint::from_u128(a);
            let (q, r) = v.div_rem_small(s);
            prop_assert!((r as u64) < s as u64);
            let back = q.mul_small(s).add(&BigUint::from_u64(r as u64));
            prop_assert_eq!(back, v);
        }

        #[test]
        fn decimal_matches_u128(a in 0u128..) {
            prop_assert_eq!(BigUint::from_u128(a).to_decimal(), a.to_string());
        }

        #[test]
        fn cmp_matches_u128(a in 0u128.., b in 0u128..) {
            let ord = BigUint::from_u128(a).cmp(&BigUint::from_u128(b));
            prop_assert_eq!(ord, a.cmp(&b));
        }
    }
}
