//! Multi-class support accumulation — Algorithm A.2 (Appendix A.3).
//!
//! Enumerating all tally vectors costs `C(|Y|+K−1, K)`, which explodes for
//! many classes (the appendix's ImageNet motivation). Instead, for each
//! prospective *winner* label `w` and winner tally `c`, a capped knapsack
//! over the remaining labels counts the ways to distribute the other
//! `K − c` top-K slots such that no other label beats `w`:
//!
//! * labels `l < w` may take at most `c − 1` slots (a tie would make the
//!   smaller label win instead),
//! * labels `l > w` may take at most `c` slots (ties lose to `w`).
//!
//! This refines the paper's `D_{Y,c}` recursion with the deterministic
//! tie-break the rest of the workspace uses, so results match the
//! tally-enumeration path *exactly*. Cost per boundary candidate:
//! `O(|Y|² · K³)`, matching the appendix complexity
//! `O(MN(log MN + K² log N + |Y|²K³))`.

use cp_knn::Label;
use cp_numeric::CountSemiring;

/// Accumulate boundary supports into per-label counts using the label-capped
/// DP. Same contract as [`crate::tally::accumulate_supports`]: `polys[yi]`
/// excludes the boundary set, whose occupied slot is accounted for here.
/// Public so the sharded engine (`cp-shard`) can drive it against merged
/// cross-shard polynomials.
pub fn accumulate_supports_mc<S: CountSemiring>(
    k: usize,
    yi: Label,
    boundary: &S,
    polys: &[&[S]],
    counts: &mut [S],
) {
    for_each_support_mc(k, yi, boundary, polys, |w, support| {
        counts[w].add_assign(support)
    });
}

/// [`accumulate_supports_mc`] handing each non-zero support term to `sink`
/// as `(winner, support)`, in the order `accumulate_supports_mc` adds them
/// (see [`crate::tally::for_each_support`]).
pub fn for_each_support_mc<S: CountSemiring>(
    k: usize,
    yi: Label,
    boundary: &S,
    polys: &[&[S]],
    mut sink: impl FnMut(Label, &S),
) {
    if boundary.is_zero() {
        return;
    }
    let n_labels = polys.len();
    // π_l = slot polynomial of label l including the boundary example:
    // for yi, shift by the boundary's occupied slot and fold in its mass.
    let pi_yi: Vec<S> = (0..=k)
        .map(|b| {
            if b == 0 {
                S::zero()
            } else {
                boundary.mul(&polys[yi][b - 1])
            }
        })
        .collect();
    let pi = |l: usize| -> &[S] {
        if l == yi {
            &pi_yi
        } else {
            polys[l]
        }
    };

    for w in 0..n_labels {
        for c in 1..=k {
            let ways_w = &pi(w)[c];
            if ways_w.is_zero() {
                continue;
            }
            let rem = k - c;
            // capped knapsack over the other labels
            let mut dp = vec![S::zero(); rem + 1];
            dp[0] = S::one();
            for l in 0..n_labels {
                if l == w {
                    continue;
                }
                let cap = if l < w { c - 1 } else { c };
                let poly = pi(l);
                let mut next = vec![S::zero(); rem + 1];
                for (r, dr) in dp.iter().enumerate() {
                    if dr.is_zero() {
                        continue;
                    }
                    for (tally, pt) in poly.iter().enumerate().take(cap.min(rem - r) + 1) {
                        if pt.is_zero() {
                            continue;
                        }
                        let add = dr.mul(pt);
                        next[r + tally].add_assign(&add);
                    }
                }
                dp = next;
            }
            if !dp[rem].is_zero() {
                sink(w, &ways_w.mul(&dp[rem]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::{accumulate_supports, compositions};
    use proptest::prelude::*;

    // Cross-check the capped DP against plain tally enumeration on random
    // polynomial inputs (independent of any dataset).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn capped_dp_matches_enumeration(
            n_labels in 2usize..5,
            k in 1usize..5,
            yi_seed in 0usize..100,
            coeffs in proptest::collection::vec(0u64..6, 25),
        ) {
            let yi = yi_seed % n_labels;
            // build arbitrary per-label polynomials of length k+1
            let mut polys: Vec<Vec<u128>> = Vec::new();
            let mut it = coeffs.iter().cycle();
            for _ in 0..n_labels {
                polys.push((0..=k).map(|_| *it.next().unwrap() as u128).collect());
            }
            let poly_refs: Vec<&[u128]> = polys.iter().map(|p| p.as_slice()).collect();
            let boundary: u128 = 3;

            let comps = compositions(n_labels, k);
            let mut counts_enum = vec![0u128; n_labels];
            accumulate_supports(&comps, yi, &boundary, &poly_refs, &mut counts_enum);

            let mut counts_mc = vec![0u128; n_labels];
            accumulate_supports_mc(k, yi, &boundary, &poly_refs, &mut counts_mc);

            prop_assert_eq!(counts_mc, counts_enum);
        }
    }

    #[test]
    fn zero_boundary_contributes_nothing() {
        let polys: Vec<Vec<u128>> = vec![vec![1, 2], vec![3, 4]];
        let poly_refs: Vec<&[u128]> = polys.iter().map(|p| p.as_slice()).collect();
        let mut counts = vec![0u128; 2];
        accumulate_supports_mc(1, 0, &0u128, &poly_refs, &mut counts);
        assert_eq!(counts, vec![0, 0]);
    }

    #[test]
    fn single_label_takes_all_slots() {
        // one label: winner must be label 0 with tally k
        let polys: Vec<Vec<u128>> = vec![vec![9, 7, 5]];
        let poly_refs: Vec<&[u128]> = polys.iter().map(|p| p.as_slice()).collect();
        let mut counts = vec![0u128; 1];
        accumulate_supports_mc(2, 0, &1u128, &poly_refs, &mut counts);
        // γ = [2]: support = boundary * polys[0][1] = 7
        assert_eq!(counts, vec![7]);
    }
}
