//! Semiring-law property tests on randomized operands.
//!
//! [`CountSemiring`]'s contract — associativity and commutativity of
//! `add`/`mul`, identities, distributivity, annihilating zero — is what lets
//! every SortScan variant run unchanged over any substrate. These tests pin
//! the laws down for the exact integer semirings ([`BigUint`], `u128`), the
//! boolean [`Possibility`] semiring, and (approximately, as floating point
//! admits) the extended-range [`ScaledF64`].
//!
//! Every type that declares [`CountSemiring::EXACT`] passes the exact laws,
//! in-place twins included; the floating-point types must not declare it.

use cp_numeric::{BigUint, CountProduct, CountSemiring, Possibility, ScaledF64};
use proptest::prelude::*;

/// Check every exact law on one operand triple.
fn check_exact_laws<S: CountSemiring>(a: S, b: S, c: S) -> Result<(), String> {
    let err = |law: &str, l: &S, r: &S| Err(format!("{law}: {l:?} != {r:?}"));
    // associativity
    let l = a.add(&b).add(&c);
    let r = a.add(&b.add(&c));
    if l != r {
        return err("add associativity", &l, &r);
    }
    let l = a.mul(&b).mul(&c);
    let r = a.mul(&b.mul(&c));
    if l != r {
        return err("mul associativity", &l, &r);
    }
    // commutativity
    if a.add(&b) != b.add(&a) {
        return err("add commutativity", &a.add(&b), &b.add(&a));
    }
    if a.mul(&b) != b.mul(&a) {
        return err("mul commutativity", &a.mul(&b), &b.mul(&a));
    }
    // identities
    if a.add(&S::zero()) != a {
        return err("additive identity", &a.add(&S::zero()), &a);
    }
    if a.mul(&S::one()) != a {
        return err("multiplicative identity", &a.mul(&S::one()), &a);
    }
    // zero annihilates
    if !a.mul(&S::zero()).is_zero() {
        return err("zero annihilation", &a.mul(&S::zero()), &S::zero());
    }
    // distributivity
    let l = a.mul(&b.add(&c));
    let r = a.mul(&b).add(&a.mul(&c));
    if l != r {
        return err("distributivity", &l, &r);
    }
    // in-place twins agree with the pure operations
    let mut x = a.clone();
    x.add_assign(&b);
    if x != a.add(&b) {
        return err("add_assign", &x, &a.add(&b));
    }
    let mut x = a.clone();
    x.mul_assign(&b);
    if x != a.mul(&b) {
        return err("mul_assign", &x, &a.mul(&b));
    }
    // is_zero describes the additive identity
    if !S::zero().is_zero() || S::one().is_zero() {
        return Err("is_zero misclassifies an identity".into());
    }
    Ok(())
}

/// Arbitrary `BigUint` spanning one to several dozen limbs.
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    (0u128.., 0u32..12, 1u32..6).prop_map(|(v, exp, base)| {
        BigUint::from_u128(v).mul(&BigUint::from_u64(base as u64 + 1).pow(exp * 10))
    })
}

/// Arbitrary `ScaledF64` far outside plain-`f64` range: a positive mantissa
/// raised to an exponent by repeated exact squaring.
fn arb_scaled() -> impl Strategy<Value = ScaledF64> {
    (0.5f64..1e18, 0u32..5).prop_map(|(m, squarings)| {
        let mut s = ScaledF64::from_f64(m);
        for _ in 0..squarings {
            s = s.mul(&s);
        }
        s
    })
}

/// `BigUint` operands at the inline/heap boundary (values below 2^128 are
/// stored inline): 0, 1, 2^32−1, 2^64, 2^128−1, 2^128.
fn biguint_boundary() -> Vec<BigUint> {
    let two_pow_128 = BigUint::from_u128(u128::MAX).add(&BigUint::one());
    vec![
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(u32::MAX as u64),
        BigUint::from_u128(1 << 64),
        BigUint::from_u128(u128::MAX),
        two_pow_128,
    ]
}

/// A boundary operand or an arbitrary one.
fn arb_biguint_near_boundary() -> impl Strategy<Value = BigUint> {
    // half the draws pick one of the six boundary values
    (0usize..12, arb_biguint())
        .prop_map(|(i, v)| biguint_boundary().into_iter().nth(i).unwrap_or(v))
}

fn arb_possibility() -> impl Strategy<Value = Possibility> {
    (0u32..2).prop_map(|b| Possibility(b == 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn biguint_laws((a, b, c) in (arb_biguint(), arb_biguint(), arb_biguint())) {
        if let Err(msg) = check_exact_laws(a, b, c) {
            prop_assert!(false, "BigUint violates {msg}");
        }
    }

    #[test]
    fn biguint_laws_near_the_inline_boundary(
        (a, b, c) in (arb_biguint_near_boundary(), arb_biguint_near_boundary(), arb_biguint_near_boundary())
    ) {
        if let Err(msg) = check_exact_laws(a, b, c) {
            prop_assert!(false, "BigUint violates {msg}");
        }
    }

    #[test]
    fn u128_laws_on_overflow_safe_operands(
        (a, b, c) in (0u128..1 << 40, 0u128..1 << 40, 0u128..1 << 40)
    ) {
        if let Err(msg) = check_exact_laws(a, b, c) {
            prop_assert!(false, "u128 violates {msg}");
        }
    }

    #[test]
    fn possibility_laws((a, b, c) in (arb_possibility(), arb_possibility(), arb_possibility())) {
        if let Err(msg) = check_exact_laws(a, b, c) {
            prop_assert!(false, "Possibility violates {msg}");
        }
    }

    #[test]
    fn scaled_laws_hold_approximately((a, b, c) in (arb_scaled(), arb_scaled(), arb_scaled())) {
        // ScaledF64 is floating point under the hood: compare magnitudes via
        // ln with a relative tolerance instead of bit equality.
        fn close(x: &ScaledF64, y: &ScaledF64) -> bool {
            match (x.is_zero(), y.is_zero()) {
                (true, true) => true,
                (false, false) => (x.ln() - y.ln()).abs() < 1e-9 * x.ln().abs().max(1.0),
                _ => false,
            }
        }
        prop_assert!(close(&a.add(&b).add(&c), &a.add(&b.add(&c))), "add associativity");
        prop_assert!(close(&a.mul(&b).mul(&c), &a.mul(&b.mul(&c))), "mul associativity");
        prop_assert!(close(&a.add(&b), &b.add(&a)), "add commutativity");
        prop_assert!(close(&a.mul(&b), &b.mul(&a)), "mul commutativity");
        prop_assert!(close(&a.add(&ScaledF64::zero()), &a), "additive identity");
        prop_assert!(close(&a.mul(&ScaledF64::one()), &a), "multiplicative identity");
        prop_assert!(a.mul(&ScaledF64::zero()).is_zero(), "zero annihilation");
        prop_assert!(
            close(&a.mul(&b.add(&c)), &a.mul(&b).add(&a.mul(&c))),
            "distributivity"
        );
    }

    #[test]
    fn exact_semirings_lift_counts_multiplicatively(
        shift in 0u32..=32,
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
    ) {
        // a of every magnitude, then b shrunk until a·b fits a u32
        let a = a.checked_shr(shift).unwrap_or(0);
        let b = match u32::MAX.checked_div(a) {
            Some(most) => (b as u64 % (most as u64 + 1)) as u32,
            None => b,
        };
        if let Err(msg) = check_count_law::<u128>(a, b)
            .and(check_count_law::<BigUint>(a, b))
            .and(check_count_law::<Possibility>(a, b))
        {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn batched_count_products_equal_one_at_a_time(
        counts in proptest::collection::vec(0u32..=9, 0..=240),
        big in proptest::collection::vec(1u32..=u32::MAX, 0..=6),
    ) {
        // small set sizes plus a few counts that overflow a u32 at once
        let mut counts = counts;
        for (i, c) in big.into_iter().enumerate() {
            counts.insert((i * 37) % (counts.len() + 1), c);
        }
        prop_assert_eq!(batched::<BigUint>(&counts), one_at_a_time::<BigUint>(&counts));
        prop_assert_eq!(batched::<Possibility>(&counts), one_at_a_time::<Possibility>(&counts));
        // u128 panics on overflow, so only where no partial product overflows
        let nonzero: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
        if one_at_a_time::<BigUint>(&nonzero).to_u128().is_some() {
            prop_assert_eq!(batched::<u128>(&counts), one_at_a_time::<u128>(&counts));
        }
        // the inexact semirings lift set sizes, never 0
        counts.retain(|&c| c > 0);
        let bits = batched::<f64>(&counts).to_bits();
        prop_assert_eq!(bits, one_at_a_time::<f64>(&counts).to_bits());
        prop_assert!(batched::<ScaledF64>(&counts) == one_at_a_time::<ScaledF64>(&counts));
    }

    #[test]
    fn from_count_is_consistent_across_semirings(count in 0u32..7, extra in 0u32..7) {
        let set_size = count + extra + 1;
        let exact = u128::from_count(count, set_size);
        prop_assert_eq!(BigUint::from_count(count, set_size).to_u128(), Some(exact));
        prop_assert_eq!(Possibility::from_count(count, set_size), Possibility(count > 0));
        let p = f64::from_count(count, set_size);
        prop_assert!((p - count as f64 / set_size as f64).abs() < 1e-15);
        prop_assert!((ScaledF64::from_count(count, set_size).to_f64() - exact as f64).abs() < 1e-9);
    }
}

/// The count law of [`CountSemiring::EXACT`] on one pair `a·b ≤ u32::MAX`,
/// plus `from_count(1, 1) == one()`.
fn check_count_law<S: CountSemiring>(a: u32, b: u32) -> Result<(), String> {
    let ab = a * b;
    let (l, r) = (
        S::from_count(ab, ab),
        S::from_count(a, a).mul(&S::from_count(b, b)),
    );
    if l != r {
        return Err(format!("from_count({a}·{b}): {l:?} != {r:?}"));
    }
    if S::from_count(1, 1) != S::one() {
        return Err("from_count(1, 1) is not one".into());
    }
    Ok(())
}

fn batched<S: CountSemiring>(counts: &[u32]) -> S {
    let mut p = CountProduct::<S>::default();
    counts.iter().for_each(|&c| p.push(c));
    p.finish()
}

/// The product with every count lifted and multiplied in turn.
fn one_at_a_time<S: CountSemiring>(counts: &[u32]) -> S {
    let mut acc = S::one();
    for &c in counts {
        acc.mul_assign(&S::from_count(c, c));
    }
    acc
}

#[test]
fn batched_count_products_cross_the_u32_flush_and_2_pow_128() {
    // 9^10 > 2^31: every eleventh count or so flushes the u32 batch
    let nines = [9u32; 40];
    let exact = one_at_a_time::<u128>(&nines);
    assert!(exact > 1 << 126, "9^40 is just below 2^128");
    assert_eq!(batched::<u128>(&nines), exact);
    let sizes: Vec<u32> = (0..300).map(|i| i % 9 + 1).collect();
    let big = batched::<BigUint>(&sizes);
    assert!(big.bit_len() > 128 * 4, "{}", big.bit_len());
    assert_eq!(big, one_at_a_time::<BigUint>(&sizes));
    // a count that alone fills the batch, then a zero
    let edge = [u32::MAX, 2, u32::MAX, 0, 7];
    assert!(batched::<BigUint>(&edge).is_zero());
    assert_eq!(batched::<BigUint>(&edge[..3]), one_at_a_time(&edge[..3]));
    assert_eq!(batched::<Possibility>(&edge), Possibility(false));
    assert_eq!(batched::<u128>(&[]), 1);
}

#[test]
fn exactness_is_declared_by_the_exact_types_only() {
    let declared = [
        u128::EXACT,
        BigUint::EXACT,
        Possibility::EXACT,
        f64::EXACT,
        ScaledF64::EXACT,
    ];
    assert_eq!(declared, [true, true, true, false, false]);
}

#[test]
fn biguint_boundary_operands_obey_the_exact_laws() {
    let values = biguint_boundary();
    for a in &values {
        for b in &values {
            for c in &values {
                if let Err(msg) = check_exact_laws(a.clone(), b.clone(), c.clone()) {
                    panic!("BigUint violates {msg}");
                }
            }
        }
    }
}

#[test]
fn biguint_products_and_sums_grow_from_four_to_five_limbs() {
    let max = BigUint::from_u128(u128::MAX);
    let two_pow_128 = "340282366920938463463374607431768211456";
    // (a, b, a·b) across the 2^128 boundary, in decimal
    let products = [
        (
            max.clone(),
            BigUint::from_u64(2),
            "680564733841876926926749214863536422910",
        ),
        (
            BigUint::from_u128(1 << 64),
            BigUint::from_u128(1 << 64),
            two_pow_128,
        ),
        (
            BigUint::from_u128(1 << 96),
            BigUint::from_u64(1 << 32),
            two_pow_128,
        ),
        (
            max.clone(),
            BigUint::from_u64(u32::MAX as u64),
            "1461501636990620551282746369252908412219869364225",
        ),
        (
            max.clone(),
            max.clone(),
            "115792089237316195423570985008687907852589419931798687112530834793049593217025",
        ),
    ];
    for (a, b, expected) in products {
        assert!(a.limb_count() <= 4 && b.limb_count() <= 4);
        let product = a.mul(&b);
        assert_eq!(product.to_decimal(), expected, "{a:?} * {b:?}");
        assert!(product.limb_count() >= 5 && product.to_u128().is_none());
        let mut in_place = a.clone();
        in_place.mul_assign(&b);
        assert_eq!(in_place, product);
        let mut swapped = b.clone();
        swapped.mul_assign(&a);
        assert_eq!(swapped, product);
    }
    let mut sum = max.clone();
    sum.add_assign(&BigUint::one());
    assert_eq!(sum.to_decimal(), two_pow_128);
    assert_eq!(sum.limb_count(), 5);
    assert_eq!(
        max.add(&max).to_decimal(),
        "680564733841876926926749214863536422910"
    );
}

#[test]
fn a_value_built_from_a_longer_buffer_equals_its_inline_twin() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &BigUint| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let shift = BigUint::from_u64(2).pow(192);
    for v in [
        0u128,
        1,
        u32::MAX as u128,
        1 << 64,
        u128::MAX - 1,
        u128::MAX,
    ] {
        let inline = BigUint::from_u128(v);
        // shifted past 2^128 and back: the shift trims a longer limb buffer
        let via_heap = inline.mul(&shift).shr_bits(192);
        assert_eq!(via_heap, inline);
        assert_eq!(hash(&via_heap), hash(&inline));
        assert_eq!(via_heap.cmp(&inline), std::cmp::Ordering::Equal);
        // and divided back down, from a heap value where v·(2^32−1) ≥ 2^128
        let (quotient, rem) = inline.mul_small(u32::MAX).div_rem_small(u32::MAX);
        assert_eq!(rem, 0);
        assert_eq!(quotient, inline);
        assert_eq!(hash(&quotient), hash(&inline));
        // ordering against neighbours is the u128 ordering
        for w in [0u128, 1, 1 << 64, u128::MAX] {
            assert_eq!(
                via_heap.cmp(&BigUint::from_u128(w)),
                v.cmp(&w),
                "{v} vs {w}"
            );
        }
        assert!(via_heap < BigUint::from_u128(u128::MAX).add(&BigUint::one()));
    }
}
