//! The Kernighan–Lin element-swapping pass of PGP (Algorithm 2,
//! lines 18–25).
//!
//! In PGP, "a set refers to the collection of functions contained within a
//! process, while element swapping refers to the swapping of functions
//! between two processes" (§3.4). The pass greedily finds the swap sequence
//! that minimises a caller-supplied latency objective, records the gain of
//! every swap, and finally applies the prefix of swaps with the largest
//! cumulative gain.
//!
//! The objective is *per set*: the pair score is
//! `max(objective(a), objective(b))`, computed here. Taking the sides
//! separately lets the caller memoise each process independently (a swap
//! changes both sets, but most candidate sets recur across swaps and
//! rounds) and enables two exact prunes — `max` can only grow, so under
//! strict `<` selection a candidate provably at or above the best score
//! seen could never have won:
//!
//! * the second side is skipped when the first side's score already
//!   matches or exceeds the best;
//! * either side's *evaluation* is skipped entirely when a cheap lower
//!   bound ([`KlObjective::swapped_lower_bound`]) already matches or
//!   exceeds the best — for the scheduler this turns most candidate
//!   simulations into an arithmetic check.
//!
//! Within one selection round every candidate differs from the round's
//! working sets in one position per side. A pruning pass announces each
//! round ([`KlObjective::begin_round`]) and then scores a candidate side
//! through [`KlObjective::swapped_lower_bound`] and
//! [`KlObjective::swapped_eval`], naming the changed position, so an
//! objective that summarises the round's sets scores the side in O(1)
//! (the scheduler's does).
//!
//! An objective may instead pick the round's winner itself
//! ([`KlObjective::best_swap`]): the first candidate, in the loop's
//! order, scoring strictly below every earlier one, with the loop's
//! candidate and prune counts. The scheduler's evaluator does so when
//! every function of both sets is CPU-only, by one scan of integer
//! nanoseconds over per-position tables
//! ([`chiron_predict::SwapScan`]); rounds with a block run the loop. The
//! loop compares milliseconds, `ns as f64 / 1e6`: a correctly rounded
//! division by a positive constant is monotone, and below 2^51 ns two
//! integers' quotients lie more than two ulps apart, so it is also
//! injective. Below that bound, which the scan checks, integer `<` and
//! `>=` decide exactly as the loop's float compares, and the winner's
//! score converts to the loop's bits.

use chiron_model::FunctionId;
pub use chiron_predict::KlStats;

/// The latency objective driving a Kernighan–Lin pass, plus the optional
/// machinery the exact prunes need. Any `FnMut(&[FunctionId]) -> f64`
/// closure is an objective (with no usable bound); the scheduler's cached
/// evaluator supplies a real
/// [`swapped_lower_bound`](KlObjective::swapped_lower_bound), and its
/// reference evaluator opts out of pruning altogether so the
/// pre-optimisation cost model stays faithful.
pub trait KlObjective {
    /// Predicted latency (lower = better) of running `set` as one process.
    fn eval(&mut self, set: &[FunctionId]) -> f64;

    /// Whether the pass may prune candidates that provably cannot win.
    /// `false` reproduces the original exhaustive pass: both sides of
    /// every candidate are evaluated.
    fn prunes(&self) -> bool {
        true
    }

    /// Start of a selection round of a pruning pass. Every candidate of
    /// the round is `a` and `b` with one position of each replaced by the
    /// other side's element; an objective may summarise them here to
    /// score those candidates incrementally.
    fn begin_round(&mut self, _a: &[FunctionId], _b: &[FunctionId]) {}

    /// A cheap lower bound on [`eval`](KlObjective::eval) of `set`:
    /// `side`'s round-start set with only position `pos` replaced. Must
    /// never exceed the true score; `NEG_INFINITY` (the default) disables
    /// the bound prune.
    fn swapped_lower_bound(&mut self, _side: Side, _set: &[FunctionId], _pos: usize) -> f64 {
        f64::NEG_INFINITY
    }

    /// [`eval`](KlObjective::eval) of `set`: `side`'s round-start set
    /// with only position `pos` replaced.
    fn swapped_eval(&mut self, _side: Side, set: &[FunctionId], _pos: usize) -> f64 {
        self.eval(set)
    }

    /// The round's winning swap picked by the objective in one pass of its
    /// own, after [`begin_round`](KlObjective::begin_round): `(position in
    /// a, position in b, pair score)` of the first candidate, in
    /// `free_a × free_b` order, whose score is strictly below every
    /// earlier one's, with `stats.candidates` and `stats.pruned` advanced
    /// exactly as the candidate loop would advance them. `None` (the
    /// default) runs the loop.
    fn best_swap(
        &mut self,
        _free_a: &[usize],
        _free_b: &[usize],
        _stats: &mut KlStats,
    ) -> Option<(usize, usize, f64)> {
        None
    }
}

/// Which of the pass's two sets a candidate side belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

impl<F: FnMut(&[FunctionId]) -> f64> KlObjective for F {
    fn eval(&mut self, set: &[FunctionId]) -> f64 {
        self(set)
    }
}

/// Runs one Kernighan–Lin pass over function sets `a` and `b`.
///
/// `objective` scores candidate sets (see [`KlObjective`]); the pair is
/// scored by the worse side. On return, `a` and `b` hold the refined
/// partition; the achieved latency improvement is returned (0.0 when no
/// beneficial swap prefix exists).
pub fn kernighan_lin(
    a: &mut [FunctionId],
    b: &mut [FunctionId],
    mut objective: impl KlObjective,
) -> f64 {
    let mut scratch = KlScratch::default();
    kernighan_lin_with_stats(a, b, &mut objective, &mut KlStats::default(), &mut scratch).0
}

/// The work vectors of a Kernighan–Lin pass. An objective's owner keeps
/// one across passes (the scheduler's evaluator does), so a schedule's
/// passes reuse five buffers instead of allocating them each time.
#[derive(Debug, Clone, Default)]
pub struct KlScratch {
    wa: Vec<FunctionId>,
    wb: Vec<FunctionId>,
    free_a: Vec<usize>,
    free_b: Vec<usize>,
    gains: Vec<f64>,
}

/// [`kernighan_lin`] with a borrowed (possibly `dyn`) objective and
/// caller-owned work vectors, additionally accumulating search-effort
/// counters into `stats` (identical swaps, scores and side effects). Also
/// returns the swaps it applied to `a` and `b`, in order, as `(position
/// in a, position in b)`.
pub fn kernighan_lin_with_stats<O: KlObjective + ?Sized>(
    a: &mut [FunctionId],
    b: &mut [FunctionId],
    objective: &mut O,
    stats: &mut KlStats,
    scratch: &mut KlScratch,
) -> (f64, Vec<(usize, usize)>) {
    if a.is_empty() || b.is_empty() {
        return (0.0, Vec::new());
    }
    stats.passes += 1;
    let KlScratch {
        wa,
        wb,
        free_a,
        free_b,
        gains,
    } = scratch;
    // Working copies that virtual swaps are applied to (line 19).
    wa.clear();
    wa.extend_from_slice(a);
    wb.clear();
    wb.extend_from_slice(b);
    // Positions still eligible: each element is swapped at most once.
    free_a.clear();
    free_a.extend(0..wa.len());
    free_b.clear();
    free_b.extend(0..wb.len());
    gains.clear();

    let initial = objective.eval(wa).max(objective.eval(wb));
    let mut current = initial;
    let mut swaps: Vec<(usize, usize)> = Vec::new();
    let prunes = objective.prunes();

    // Line 20: until one working set is exhausted.
    while !free_a.is_empty() && !free_b.is_empty() {
        stats.rounds += 1;
        // Line 21: the swap that minimises the predicted latency.
        let scanned = if prunes {
            objective.begin_round(wa, wb);
            objective.best_swap(free_a, free_b, stats)
        } else {
            None
        };
        let (ia, ib, score) = match scanned {
            Some(best) => best,
            None => candidate_loop(wa, wb, free_a, free_b, objective, prunes, stats),
        };
        // Lines 22–23: record the benefit, lock the pair out.
        std::mem::swap(&mut wa[ia], &mut wb[ib]);
        gains.push(current - score);
        current = score;
        swaps.push((ia, ib));
        let at = |free: &[usize], pos| free.iter().position(|&i| i == pos);
        free_a.remove(at(free_a, ia).expect("the swap's position in a is free"));
        free_b.remove(at(free_b, ib).expect("the swap's position in b is free"));
    }

    // Lines 24–25: choose k maximising the cumulative gain and apply the
    // first k swaps to the real sets.
    let mut best_k = 0;
    let mut best_sum = 0.0;
    let mut acc = 0.0;
    for (k, g) in gains.iter().enumerate() {
        acc += g;
        if acc > best_sum + 1e-12 {
            best_sum = acc;
            best_k = k + 1;
        }
    }
    // Each position appears in at most one swap, so application order does
    // not matter.
    swaps.truncate(best_k);
    for &(ia, ib) in &swaps {
        std::mem::swap(&mut a[ia], &mut b[ib]);
    }
    stats.applied += best_k as u64;
    (best_sum, swaps)
}

/// Line 21 one candidate at a time: each swap is applied to the working
/// sets, scored through the objective and undone. Returns the first
/// candidate scoring strictly below every earlier one.
fn candidate_loop<O: KlObjective + ?Sized>(
    wa: &mut [FunctionId],
    wb: &mut [FunctionId],
    free_a: &[usize],
    free_b: &[usize],
    objective: &mut O,
    prunes: bool,
    stats: &mut KlStats,
) -> (usize, usize, f64) {
    let mut best: Option<(usize, usize, f64)> = None;
    for &ia in free_a {
        for &ib in free_b {
            stats.candidates += 1;
            std::mem::swap(&mut wa[ia], &mut wb[ib]);
            // Exact prunes (skipped candidates score INFINITY, which never
            // wins under strict `<`): a candidate is dead as soon as either
            // side — or even a side's cheap lower bound — reaches the
            // incumbent score, because the pair score is the max of the
            // sides and can only grow.
            let score = if !prunes {
                objective.eval(wa).max(objective.eval(wb))
            } else {
                match best {
                    Some((_, _, s)) if objective.swapped_lower_bound(Side::A, wa, ia) >= s => {
                        f64::INFINITY
                    }
                    _ => {
                        let score_a = objective.swapped_eval(Side::A, wa, ia);
                        match best {
                            Some((_, _, s)) if score_a >= s => f64::INFINITY,
                            Some((_, _, s))
                                if objective.swapped_lower_bound(Side::B, wb, ib) >= s =>
                            {
                                f64::INFINITY
                            }
                            _ => score_a.max(objective.swapped_eval(Side::B, wb, ib)),
                        }
                    }
                }
            };
            if score.is_infinite() {
                stats.pruned += 1;
            }
            std::mem::swap(&mut wa[ia], &mut wb[ib]);
            let better = match best {
                Some((_, _, s)) => score < s,
                None => true,
            };
            if better {
                best = Some((ia, ib, score));
            }
        }
    }
    best.expect("free sets are non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(v: u32) -> FunctionId {
        FunctionId(v)
    }

    /// Objective: one set's total weight — the pair score (max of sides)
    /// is minimised by balanced partitions for CPU-bound functions.
    fn weight(weights: &[f64]) -> impl FnMut(&[FunctionId]) -> f64 + '_ {
        move |set| set.iter().map(|f| weights[f.index()]).sum()
    }

    fn pair_score(weights: &[f64], a: &[FunctionId], b: &[FunctionId]) -> f64 {
        let mut obj = weight(weights);
        obj(a).max(obj(b))
    }

    #[test]
    fn balances_heavy_and_light() {
        // A holds both heavy functions; KL should split them.
        let weights = [10.0, 10.0, 1.0, 1.0];
        let mut a = vec![fid(0), fid(1)];
        let mut b = vec![fid(2), fid(3)];
        let gain = kernighan_lin(&mut a, &mut b, weight(&weights));
        assert!(gain > 0.0);
        assert_eq!(pair_score(&weights, &a, &b), 11.0, "a={a:?} b={b:?}");
    }

    #[test]
    fn no_gain_on_homogeneous_sets() {
        let weights = [1.0; 6];
        let mut a = vec![fid(0), fid(1), fid(2)];
        let mut b = vec![fid(3), fid(4), fid(5)];
        let before = (a.clone(), b.clone());
        let gain = kernighan_lin(&mut a, &mut b, weight(&weights));
        assert_eq!(gain, 0.0);
        assert_eq!((a, b), before, "no swap should be applied");
    }

    #[test]
    fn empty_set_is_noop() {
        let mut a: Vec<FunctionId> = vec![];
        let mut b = vec![fid(0)];
        assert_eq!(kernighan_lin(&mut a, &mut b, |_: &[FunctionId]| 0.0), 0.0);
    }

    #[test]
    fn escapes_local_minimum_via_prefix_selection() {
        // Hill-climbing on single swaps gets stuck; KL's look-ahead with
        // cumulative-gain prefix can cross a neutral swap. Sets {9,1} vs
        // {5,5}: any single swap worsens or keeps max=10; the two-swap
        // sequence reaching {5,5} vs {9,1} is neutral overall — so KL must
        // simply not regress here.
        let weights = [9.0, 1.0, 5.0, 5.0];
        let mut a = vec![fid(0), fid(1)];
        let mut b = vec![fid(2), fid(3)];
        let before = pair_score(&weights, &a, &b);
        kernighan_lin(&mut a, &mut b, weight(&weights));
        let after = pair_score(&weights, &a, &b);
        assert!(after <= before);
    }

    #[test]
    fn multiset_preserved() {
        let weights = [3.0, 7.0, 2.0, 8.0, 5.0];
        let mut a = vec![fid(0), fid(1), fid(4)];
        let mut b = vec![fid(2), fid(3)];
        kernighan_lin(&mut a, &mut b, weight(&weights));
        let mut all: Vec<u32> = a.iter().chain(b.iter()).map(|f| f.0).collect();
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3, 4]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
    }

    /// The pre-prune algorithm: every candidate pays both evaluations.
    fn kl_exhaustive(
        a: &mut [FunctionId],
        b: &mut [FunctionId],
        mut objective: impl FnMut(&[FunctionId]) -> f64,
    ) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let mut wa = a.to_vec();
        let mut wb = b.to_vec();
        let mut free_a: Vec<usize> = (0..wa.len()).collect();
        let mut free_b: Vec<usize> = (0..wb.len()).collect();
        let mut current = objective(&wa).max(objective(&wb));
        let mut gains: Vec<f64> = Vec::new();
        let mut swaps: Vec<(usize, usize)> = Vec::new();
        while !free_a.is_empty() && !free_b.is_empty() {
            let mut best: Option<(usize, usize, f64)> = None;
            for &ia in &free_a {
                for &ib in &free_b {
                    std::mem::swap(&mut wa[ia], &mut wb[ib]);
                    let score = objective(&wa).max(objective(&wb));
                    std::mem::swap(&mut wa[ia], &mut wb[ib]);
                    if best.is_none_or(|(_, _, s)| score < s) {
                        best = Some((ia, ib, score));
                    }
                }
            }
            let (ia, ib, score) = best.unwrap();
            std::mem::swap(&mut wa[ia], &mut wb[ib]);
            gains.push(current - score);
            current = score;
            swaps.push((ia, ib));
            free_a.retain(|&i| i != ia);
            free_b.retain(|&i| i != ib);
        }
        let (mut best_k, mut best_sum, mut acc) = (0, 0.0, 0.0);
        for (k, g) in gains.iter().enumerate() {
            acc += g;
            if acc > best_sum + 1e-12 {
                best_sum = acc;
                best_k = k + 1;
            }
        }
        for &(ia, ib) in swaps.iter().take(best_k) {
            std::mem::swap(&mut a[ia], &mut b[ib]);
        }
        best_sum
    }

    #[test]
    fn pruning_matches_exhaustive_evaluation() {
        // The second-side skip must not change the selected swap sequence
        // or the applied prefix, across a spread of weight vectors.
        let cases: [&[f64]; 4] = [
            &[12.0, 3.0, 7.0, 1.0, 9.0, 4.0],
            &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            &[10.0, 10.0, 0.5, 0.5, 5.0, 5.0],
            &[2.0, 11.0, 6.0, 6.0, 3.0, 8.0],
        ];
        for weights in cases {
            let mut a1 = vec![fid(0), fid(1), fid(2)];
            let mut b1 = vec![fid(3), fid(4), fid(5)];
            let mut a2 = a1.clone();
            let mut b2 = b1.clone();
            let g1 = kernighan_lin(&mut a1, &mut b1, weight(weights));
            let g2 = kl_exhaustive(&mut a2, &mut b2, weight(weights));
            assert_eq!(g1, g2, "{weights:?}");
            assert_eq!((a1, b1), (a2, b2), "{weights:?}");
        }
    }

    /// Objective whose lower bound is a scaled-down copy of the true score
    /// (always sound); counts how many full evaluations happened.
    struct BoundedWeight<'w> {
        weights: &'w [f64],
        tightness: f64,
        evals: &'w std::cell::Cell<usize>,
    }

    impl KlObjective for BoundedWeight<'_> {
        fn eval(&mut self, set: &[FunctionId]) -> f64 {
            self.evals.set(self.evals.get() + 1);
            set.iter().map(|f| self.weights[f.index()]).sum()
        }
        fn swapped_lower_bound(&mut self, _side: Side, set: &[FunctionId], _pos: usize) -> f64 {
            set.iter().map(|f| self.weights[f.index()]).sum::<f64>() * self.tightness
        }
    }

    #[test]
    fn lower_bound_prune_is_exact_and_saves_evaluations() {
        let cases: [&[f64]; 4] = [
            &[12.0, 3.0, 7.0, 1.0, 9.0, 4.0],
            &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            &[10.0, 10.0, 0.5, 0.5, 5.0, 5.0],
            &[2.0, 11.0, 6.0, 6.0, 3.0, 8.0],
        ];
        for weights in cases {
            let run = |tightness| {
                let mut a = vec![fid(0), fid(1), fid(2)];
                let mut b = vec![fid(3), fid(4), fid(5)];
                let evals = std::cell::Cell::new(0);
                let gain = kernighan_lin(
                    &mut a,
                    &mut b,
                    BoundedWeight {
                        weights,
                        tightness,
                        evals: &evals,
                    },
                );
                (gain, a, b, evals.get())
            };
            let mut a2 = vec![fid(0), fid(1), fid(2)];
            let mut b2 = vec![fid(3), fid(4), fid(5)];
            let g2 = kl_exhaustive(&mut a2, &mut b2, weight(weights));
            for tightness in [0.0, 0.5, 1.0] {
                let (g1, a1, b1, _) = run(tightness);
                assert_eq!(g1, g2, "{weights:?} tightness {tightness}");
                assert_eq!(
                    (a1, b1),
                    (a2.clone(), b2.clone()),
                    "{weights:?} tightness {tightness}"
                );
            }
            // A perfectly tight bound must never evaluate more than no
            // bound at all.
            assert!(run(1.0).3 <= run(0.0).3, "{weights:?}");
        }
    }

    /// Objective scoring candidate sides as deltas of the round's sets,
    /// checking the round contract on every call: the scored set is its
    /// side's round-start set with exactly position `pos` replaced.
    struct IncrementalWeight<'w> {
        weights: &'w [f64],
        rounds: [Vec<FunctionId>; 2],
    }

    impl IncrementalWeight<'_> {
        fn delta(&self, side: Side, set: &[FunctionId], pos: usize) -> f64 {
            let start = &self.rounds[side as usize];
            assert_eq!(start.len(), set.len());
            for (i, (x, y)) in start.iter().zip(set).enumerate() {
                assert_eq!(x == y, i != pos, "only position {pos} may change");
            }
            let sum: f64 = start.iter().map(|f| self.weights[f.index()]).sum();
            sum - self.weights[start[pos].index()] + self.weights[set[pos].index()]
        }
    }

    impl KlObjective for IncrementalWeight<'_> {
        fn eval(&mut self, set: &[FunctionId]) -> f64 {
            set.iter().map(|f| self.weights[f.index()]).sum()
        }
        fn begin_round(&mut self, a: &[FunctionId], b: &[FunctionId]) {
            self.rounds = [a.to_vec(), b.to_vec()];
        }
        fn swapped_lower_bound(&mut self, side: Side, set: &[FunctionId], pos: usize) -> f64 {
            self.delta(side, set, pos)
        }
        fn swapped_eval(&mut self, side: Side, set: &[FunctionId], pos: usize) -> f64 {
            self.delta(side, set, pos)
        }
    }

    #[test]
    fn incremental_scoring_sees_one_changed_position_per_side() {
        let cases: [&[f64]; 3] = [
            &[12.0, 3.0, 7.0, 1.0, 9.0, 4.0, 2.0],
            &[10.0, 10.0, 0.5, 0.5, 5.0, 5.0, 1.0],
            &[2.0, 11.0, 6.0, 6.0, 3.0, 8.0, 4.0],
        ];
        for weights in cases {
            let mut a1 = vec![fid(0), fid(1), fid(2), fid(6)];
            let mut b1 = vec![fid(3), fid(4), fid(5)];
            let mut a2 = a1.clone();
            let mut b2 = b1.clone();
            let objective = IncrementalWeight {
                weights,
                rounds: Default::default(),
            };
            let g1 = kernighan_lin(&mut a1, &mut b1, objective);
            let g2 = kl_exhaustive(&mut a2, &mut b2, weight(weights));
            assert_eq!(g1, g2, "{weights:?}");
            assert_eq!((a1, b1), (a2, b2), "{weights:?}");
        }
    }
}
