//! The public CP query API: Q1 (checking) and Q2 (counting) with automatic
//! algorithm selection.
//!
//! | query | default algorithm | cost per query over a prebuilt index | why |
//! |-------|-------------------|-----|-----|
//! | Q2    | SS-DC tree | `O(NM + T log T + (L + T)·K² log N)` | best known complexity |
//! | Q2 probabilities, K = 1 | SS K=1 fast path | `O(NM)`, plus one lazy `O(NM log NM)` sort per index | no tally trees at all |
//! | Q1, `\|Y\| = 2` | MM | `O(\|Y\|·N log K)` | beats every counting approach |
//! | Q1, `\|Y\| > 2` | SS-DC with the [`Possibility`] semiring | as Q2 | exact, no underflow |
//!
//! Every index costs `O(NM + N·M log M)` to build ([`SimilarityIndex::build`],
//! no global sort); `T` is the number of events past the scan's zero-prefix
//! bound and `L` the number of tally leaves loaded: those that differ from
//! the identity and are not folded into a per-label scalar (see
//! [`crate::ss_tree`]). Algorithm 1 and brute force, reachable
//! through [`q2_with_algorithm`], walk every candidate or world.
//!
//! Every entry point has a `*_with_index` twin that reuses a prebuilt
//! [`SimilarityIndex`] and accepts a [`Pins`] mask — the shape CPClean's
//! inner loop needs (one index per validation example, many conditioned
//! evaluations).

use crate::bruteforce;
use crate::config::CpConfig;
use crate::dataset::IncompleteDataset;
use crate::mass::UniformMass;
use crate::mm;
use crate::pins::Pins;
use crate::result::Q2Result;
use crate::similarity::SimilarityIndex;
use crate::ss;
use crate::ss_k1;
use crate::ss_tree;
use cp_knn::Label;
use cp_numeric::{CountSemiring, Possibility};

/// Process-wide number of Q2 probability evaluations so far — every
/// [`q2_probabilities_with_index`] call plus every evaluation reported via
/// [`note_q2_probability_query`].
///
/// Monotone; snapshot before and after a region and subtract to count the
/// evaluations it performed. The incremental selection layer uses this to
/// *prove* score-cache reuse (after the first greedy step, later steps must
/// evaluate strictly fewer hypothetical distributions).
///
/// Backed by the `core.q2.probability_evals` counter in the `cp-obs`
/// registry (so `Stats` snapshots report the same value); reads 0 when
/// metrics are compiled out via `cp-obs`'s `off` feature.
pub fn q2_probability_count() -> u64 {
    cp_obs::counter!("core.q2.probability_evals").get()
}

/// Record one Q2 probability evaluation performed outside this module — the
/// sharded merged scan and the RPC coordinator's stream merges call this so
/// [`q2_probability_count`] covers every engine's probability queries.
pub fn note_q2_probability_query() {
    cp_obs::counter!("core.q2.probability_evals").inc();
}

/// Algorithm selector for [`q2_with_algorithm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Q2Algorithm {
    /// Pick the best algorithm for the instance (tree; K=1 fast path is used
    /// by [`q2_probabilities`] where the semiring permits it).
    Auto,
    /// Exhaustive possible-world enumeration (small instances only).
    BruteForce,
    /// Algorithm 1 — naive per-boundary DP.
    SortScan,
    /// Algorithm A.1 — divide-and-conquer tree (production default).
    SortScanTree,
    /// Algorithm A.2 — tree scan with the label-capped multi-class
    /// accumulator.
    SortScanMultiClass,
}

/// **Q2 (counting query, Definition 5)** for every label at once: the mass of
/// possible worlds predicting each label, in semiring `S`.
pub fn q2<S: CountSemiring>(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64]) -> Q2Result<S> {
    ss_tree::q2_sortscan_tree(ds, cfg, t, &Pins::none(ds.len()))
}

/// Q2 with an explicit algorithm choice (benchmarks, tests, ablations).
pub fn q2_with_algorithm<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    t: &[f64],
    algo: Q2Algorithm,
) -> Q2Result<S> {
    let pins = Pins::none(ds.len());
    match algo {
        Q2Algorithm::BruteForce => bruteforce::q2_brute(ds, cfg, t, &pins),
        Q2Algorithm::SortScan => ss::q2_sortscan(ds, cfg, t, &pins),
        Q2Algorithm::Auto | Q2Algorithm::SortScanTree => {
            ss_tree::q2_sortscan_tree(ds, cfg, t, &pins)
        }
        Q2Algorithm::SortScanMultiClass => {
            let idx = SimilarityIndex::build(ds, cfg.kernel, t);
            ss_tree::q2_sortscan_multiclass_with_index(ds, cfg, &idx, &pins)
        }
    }
}

/// Q2 as per-label probabilities under the uniform candidate prior — the
/// quantity CPClean consumes. Runs entirely in `f64` probability space,
/// using the K=1 fast path when applicable.
pub fn q2_probabilities(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64]) -> Vec<f64> {
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    q2_probabilities_with_index(ds, cfg, &idx, &Pins::none(ds.len()))
}

/// [`q2_probabilities`] with index reuse and pinning (CPClean's hot path).
pub fn q2_probabilities_with_index(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Vec<f64> {
    note_q2_probability_query();
    let result: Q2Result<f64> = if cfg.k_eff(ds.len()) == 1 {
        ss_k1::q2_sortscan_k1_with_index(ds, cfg, idx, pins)
    } else {
        ss_tree::q2_sortscan_tree_with_index(ds, cfg, idx, pins)
    };
    result.probabilities()
}

/// Q2 probabilities at one point under a base pin mask and under every
/// single-row extension of it — CPClean's greedy step, which scores each
/// row by the distribution under every pin of that row. Each answer is
/// bit-identical to [`q2_probabilities_with_index`] under the same pins and
/// counts as one evaluation in [`q2_probability_count`].
///
/// With `K ≥ 2` every answer comes from one [`ss_tree::PinSweep`] opened at
/// construction: the base distribution and all `M` pins of a row each cost
/// a pass over the scan's short tail instead of a full `O(NM)` opening.
/// With `K = 1` each answer is the K = 1 fast path, as in
/// [`q2_probabilities_with_index`].
#[derive(Debug)]
pub struct PinnedProbabilities<'a> {
    ds: &'a IncompleteDataset,
    cfg: &'a CpConfig,
    idx: &'a SimilarityIndex,
    /// The base pins; extended in place, one pin at a time, off the sweep.
    pins: Pins,
    sweep: Option<ss_tree::PinSweep<'a, f64, UniformMass>>,
}

impl<'a> PinnedProbabilities<'a> {
    /// Open for the point behind `idx` under `pins`.
    pub fn new(
        ds: &'a IncompleteDataset,
        cfg: &'a CpConfig,
        idx: &'a SimilarityIndex,
        pins: &Pins,
    ) -> Self {
        let k = cfg.k_eff(ds.len());
        let sweep = (k != 1).then(|| {
            let use_mc = ss_tree::use_multiclass_accumulator(ds.n_labels(), k);
            ss_tree::PinSweep::open(ds, idx, pins, k, UniformMass::new(ds, pins), use_mc)
        });
        PinnedProbabilities {
            ds,
            cfg,
            idx,
            pins: pins.clone(),
            sweep,
        }
    }

    /// The distribution under the base pins.
    pub fn base(&mut self) -> Vec<f64> {
        match &mut self.sweep {
            Some(sweep) => {
                note_q2_probability_query();
                sweep.base().probabilities()
            }
            None => q2_probabilities_with_index(self.ds, self.cfg, self.idx, &self.pins),
        }
    }

    /// The distribution under the base pins plus `(row, j)`, for every
    /// candidate `j` of `row` in index order.
    pub fn pinned(&mut self, row: usize) -> Vec<Vec<f64>> {
        let (ds, cfg, idx) = (self.ds, self.cfg, self.idx);
        match &mut self.sweep {
            Some(sweep) if self.pins.pinned(row).is_none() => {
                // the world mass is 1 in probability space, under any pins
                sweep
                    .pinned(row, &1.0)
                    .iter()
                    .map(|r| {
                        note_q2_probability_query();
                        r.probabilities()
                    })
                    .collect()
            }
            _ => (0..ds.set_size(row))
                .map(|j| {
                    self.pins
                        .with_pin(row, j, |p| q2_probabilities_with_index(ds, cfg, idx, p))
                })
                .collect(),
        }
    }
}

/// **Q1 (checking query, Definition 4)**: is `y` predicted in *every*
/// possible world?
pub fn q1(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64], y: Label) -> bool {
    assert!(y < ds.n_labels(), "label out of range");
    certain_label(ds, cfg, t) == Some(y)
}

/// [`q1`] with index reuse and pinning.
pub fn q1_with_index(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    y: Label,
) -> bool {
    assert!(y < ds.n_labels(), "label out of range");
    certain_label_with_index(ds, cfg, idx, pins) == Some(y)
}

/// The certainly-predicted label, if one exists (`Some(y)` iff `Q1(D,t,y)`).
pub fn certain_label(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64]) -> Option<Label> {
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    certain_label_with_index(ds, cfg, &idx, &Pins::none(ds.len()))
}

/// [`certain_label`] with index reuse and pinning.
///
/// Binary datasets take the `O(NM)` MM route; multi-class datasets run the
/// SS-DC scan in the boolean [`Possibility`] semiring, which answers
/// "does any world support this label" exactly (no floating-point, no
/// overflow).
pub fn certain_label_with_index(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Option<Label> {
    if ds.n_labels() == 2 {
        mm::certain_label_minmax(ds, cfg, idx, pins)
    } else {
        let r: Q2Result<Possibility> = ss_tree::q2_sortscan_tree_with_index(ds, cfg, idx, pins);
        r.certain_label()
    }
}

/// Shannon entropy (bits) of the Q2 prediction distribution — the
/// per-example term `H(A_D(t))` of CPClean's objective (§4, Equation 3).
pub fn prediction_entropy_bits(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> f64 {
    cp_numeric::stats::entropy_bits(&q2_probabilities_with_index(ds, cfg, idx, pins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;
    use proptest::prelude::*;

    fn figure6() -> (IncompleteDataset, Vec<f64>) {
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![8.0]], 1),
                IncompleteExample::incomplete(vec![vec![2.0], vec![4.0]], 1),
                IncompleteExample::incomplete(vec![vec![6.0], vec![9.0]], 0),
            ],
            2,
        )
        .unwrap();
        (ds, vec![10.0])
    }

    #[test]
    fn all_algorithms_agree_on_figure6() {
        let (ds, t) = figure6();
        for k in 1..=3 {
            let cfg = CpConfig::new(k);
            let reference = q2_with_algorithm::<u128>(&ds, &cfg, &t, Q2Algorithm::BruteForce);
            for algo in [
                Q2Algorithm::Auto,
                Q2Algorithm::SortScan,
                Q2Algorithm::SortScanTree,
                Q2Algorithm::SortScanMultiClass,
            ] {
                let r = q2_with_algorithm::<u128>(&ds, &cfg, &t, algo);
                assert_eq!(r.counts, reference.counts, "k={k}, algo={algo:?}");
                assert_eq!(r.total, reference.total);
            }
        }
    }

    #[test]
    fn q2_probabilities_sum_to_one() {
        let (ds, t) = figure6();
        for k in [1, 3] {
            let p = q2_probabilities(&ds, &CpConfig::new(k), &t);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn q1_consistent_with_q2_certainty() {
        let (ds, t) = figure6();
        // K=1: uncertain; K=3: certainly label 1
        assert_eq!(certain_label(&ds, &CpConfig::new(1), &t), None);
        assert_eq!(certain_label(&ds, &CpConfig::new(3), &t), Some(1));
        assert!(q1(&ds, &CpConfig::new(3), &t, 1));
        assert!(!q1(&ds, &CpConfig::new(3), &t, 0));
        assert!(!q1(&ds, &CpConfig::new(1), &t, 1));
    }

    #[test]
    fn entropy_zero_iff_certain() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(3);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let pins = Pins::none(ds.len());
        assert_eq!(prediction_entropy_bits(&ds, &cfg, &idx, &pins), 0.0);
        let cfg1 = CpConfig::new(1);
        let idx1 = SimilarityIndex::build(&ds, cfg1.kernel, &t);
        assert!(prediction_entropy_bits(&ds, &cfg1, &idx1, &pins) > 0.0);
    }

    fn arb_multiclass() -> impl Strategy<Value = (IncompleteDataset, Vec<f64>, usize)> {
        (3usize..=4, 2usize..=6, 1usize..=4).prop_flat_map(|(n_labels, n, k)| {
            let example = (proptest::collection::vec(-9i32..9, 1..=3), 0..n_labels).prop_map(
                |(grid, label)| {
                    IncompleteExample::incomplete(
                        grid.into_iter().map(|g| vec![g as f64]).collect(),
                        label,
                    )
                },
            );
            (
                proptest::collection::vec(example, n..=n),
                -9i32..9,
                Just(n_labels),
                Just(k),
            )
                .prop_map(move |(examples, t, n_labels, k)| {
                    (
                        IncompleteDataset::new(examples, n_labels).unwrap(),
                        vec![t as f64],
                        k,
                    )
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // both dispatch arms (K = 1 per pin, K ≥ 2 from one sweep) answer
        // every pin bit for bit as the standalone query, with and without a
        // base pin on the first set
        #[test]
        fn pinned_probabilities_are_the_standalone_queries(
            (ds, t, k) in arb_multiclass(),
            base_pin in 0usize..4,
        ) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let mut pins = Pins::none(ds.len());
            if base_pin < ds.set_size(0) {
                pins.pin(0, base_pin);
            }
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut sweep = PinnedProbabilities::new(&ds, &cfg, &idx, &pins);
            for row in 0..ds.len() {
                let got = sweep.pinned(row);
                prop_assert_eq!(got.len(), ds.set_size(row));
                for (j, p) in got.iter().enumerate() {
                    let want = pins.with_pin(row, j, |q| q2_probabilities_with_index(&ds, &cfg, &idx, q));
                    prop_assert_eq!(bits(p), bits(&want), "row {} pin {}", row, j);
                }
            }
            let want = q2_probabilities_with_index(&ds, &cfg, &idx, &pins);
            prop_assert_eq!(bits(&sweep.base()), bits(&want));
        }

        #[test]
        fn multiclass_q1_matches_brute_force((ds, t, k) in arb_multiclass()) {
            let cfg = CpConfig::new(k);
            let fast = certain_label(&ds, &cfg, &t);
            let brute = crate::bruteforce::certain_label_brute(&ds, &cfg, &t);
            prop_assert_eq!(fast, brute);
        }
    }
}
