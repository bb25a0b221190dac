//! Label-tally vectors (the paper's `γ`, §3.1.1).
//!
//! A valid tally vector distributes the K top-K slots over the `|Y|` labels.
//! The general SortScan (Algorithm 1) enumerates all
//! `C(|Y| + K − 1, K)` of them; the winner of a tally is its `argmax` with
//! ties broken toward the smaller label — the same rule
//! [`cp_knn::vote::vote_winner`] applies.

use cp_knn::vote::vote_winner;
use cp_knn::Label;

/// All tally vectors `γ ∈ Γ`: non-negative integer vectors of length
/// `n_labels` whose entries sum to `k`.
pub fn compositions(n_labels: usize, k: usize) -> Vec<Vec<u32>> {
    assert!(n_labels > 0, "need at least one label");
    let mut out = Vec::new();
    let mut current = vec![0u32; n_labels];
    fill(&mut out, &mut current, 0, k as u32);
    out
}

fn fill(out: &mut Vec<Vec<u32>>, current: &mut Vec<u32>, pos: usize, remaining: u32) {
    if pos == current.len() - 1 {
        current[pos] = remaining;
        out.push(current.clone());
        return;
    }
    for v in 0..=remaining {
        current[pos] = v;
        fill(out, current, pos + 1, remaining - v);
    }
}

/// Winner of a tally vector (argmax, ties toward the smaller label).
pub fn tally_winner(tally: &[u32]) -> Label {
    vote_winner(tally)
}

/// Accumulate boundary supports into per-label counts by enumerating all
/// valid tally vectors (the inner loop of Algorithm 1, lines 9–12).
///
/// * `comps` — precomputed tally vectors summing to K,
/// * `yi` — the boundary example's label (its tally must be ≥ 1, since the
///   boundary example itself occupies a top-K slot),
/// * `boundary` — mass of the boundary set choosing the boundary candidate,
/// * `polys[l]` — slot polynomial of label `l`'s candidate sets, with the
///   boundary set excluded from `polys[yi]`,
/// * `counts[w]` — accumulates the support of every tally won by `w`.
///
/// Public so the sharded engine (`cp-shard`) can drive it against merged
/// cross-shard polynomials.
pub fn accumulate_supports<S: cp_numeric::CountSemiring>(
    comps: &[Vec<u32>],
    yi: Label,
    boundary: &S,
    polys: &[&[S]],
    counts: &mut [S],
) {
    for_each_support(comps, yi, boundary, polys, |w, support| {
        counts[w].add_assign(support)
    });
}

/// [`accumulate_supports`] handing each non-zero support term to `sink` as
/// `(winner, support)`, in the order `accumulate_supports` adds them — the
/// shape a pin sweep ([`crate::ss_tree::PinSweep`]) needs to replay one
/// event's terms into several pins' counts.
pub fn for_each_support<S: cp_numeric::CountSemiring>(
    comps: &[Vec<u32>],
    yi: Label,
    boundary: &S,
    polys: &[&[S]],
    mut sink: impl FnMut(Label, &S),
) {
    if boundary.is_zero() {
        return;
    }
    for gamma in comps {
        let gy = gamma[yi] as usize;
        if gy == 0 {
            continue; // the boundary example is in the top-K by definition
        }
        let mut support = boundary.mul(&polys[yi][gy - 1]);
        if support.is_zero() {
            continue;
        }
        for (l, &g) in gamma.iter().enumerate() {
            if l == yi {
                continue;
            }
            support.mul_assign(&polys[l][g as usize]);
            if support.is_zero() {
                break;
            }
        }
        if !support.is_zero() {
            sink(tally_winner(gamma), &support);
        }
    }
}

/// Number of valid tally vectors, `C(n_labels + k − 1, k)` — the `|Γ|`
/// factor in Algorithm 1's complexity.
pub fn composition_count(n_labels: usize, k: usize) -> u64 {
    // multiset coefficient, computed multiplicatively
    let n = n_labels as u64;
    let k = k as u64;
    let mut num = 1u64;
    let mut den = 1u64;
    for i in 0..k {
        num = num.saturating_mul(n + i);
        den = den.saturating_mul(i + 1);
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_k3_compositions() {
        let c = compositions(2, 3);
        assert_eq!(c, vec![vec![0, 3], vec![1, 2], vec![2, 1], vec![3, 0]]);
    }

    #[test]
    fn count_matches_enumeration() {
        for n_labels in 1..5 {
            for k in 0..6 {
                assert_eq!(
                    compositions(n_labels, k).len() as u64,
                    composition_count(n_labels, k),
                    "n_labels={n_labels} k={k}"
                );
            }
        }
    }

    #[test]
    fn all_sum_to_k() {
        for gamma in compositions(3, 4) {
            assert_eq!(gamma.iter().sum::<u32>(), 4);
        }
    }

    #[test]
    fn k_zero_single_empty_tally() {
        assert_eq!(compositions(3, 0), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn winner_uses_vote_tiebreak() {
        assert_eq!(tally_winner(&[1, 2]), 1);
        assert_eq!(tally_winner(&[2, 2]), 0);
        assert_eq!(tally_winner(&[0, 1, 1]), 1);
    }
}
