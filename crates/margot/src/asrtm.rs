//! The Application-Specific Run-Time Manager (AS-RTM).
//!
//! Selects the most suitable operating point given (i) the application
//! requirements (constraints + rank), (ii) the design-time knowledge and
//! (iii) runtime feedback from the monitors (as per-metric adjustment
//! ratios). When no point satisfies every constraint, constraints are
//! relaxed lowest-priority-first, mirroring mARGOt's behaviour.
//!
//! [`AsRtm::best`] has two paths with one result. With no constraints
//! and a geometric or single-term linear rank, it plans from the
//! [`crate::RankIndex`] its knowledge carries for that rank: only the
//! points whose unscaled rank value lies near the top are evaluated
//! with the feedback ratios. Otherwise — constraints (e.g. a power
//! budget), multi-term linear ranks, knowledge adopted with another
//! rank's index — it scans every point. Both return the best adjusted
//! rank value, the lowest knowledge position breaking ties.

use crate::index::RATIOS;
use crate::knowledge::{Knowledge, OperatingPoint};
use crate::metric::{Metric, MetricValues};
use crate::requirements::{Constraint, Rank};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Distinct metrics whose feedback ratio [`AsRtm::best`] resolves once
/// per selection, on the stack.
const RESOLVED: usize = 8;

/// The AS-RTM: knowledge + requirements + feedback → best configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsRtm<K> {
    knowledge: Knowledge<K>,
    constraints: Vec<Constraint>,
    rank: Rank,
    adjustments: BTreeMap<Metric, f64>,
}

impl<K: Clone + PartialEq> AsRtm<K> {
    /// Creates a manager over the given knowledge with an initial rank,
    /// attaching the knowledge's rank index.
    pub fn new(mut knowledge: Knowledge<K>, rank: Rank) -> Self {
        knowledge.rank_by(&rank);
        AsRtm {
            knowledge,
            constraints: Vec::new(),
            rank,
            adjustments: BTreeMap::new(),
        }
    }

    /// The knowledge base.
    pub fn knowledge(&self) -> &Knowledge<K> {
        &self.knowledge
    }

    /// Replaces the knowledge base — how a deployed instance adopts
    /// refreshed operating points from a shared online knowledge layer
    /// ([`crate::SharedKnowledge`]). Requirements, feedback ratios and
    /// constraints are untouched; the next [`best`](Self::best) call
    /// selects over the new points. Knowledge that already carries an
    /// index is adopted as is (a reference-count bump); when that index
    /// orders by another rank, [`best`](Self::best) scans. Knowledge
    /// without one is indexed under this rank.
    pub fn set_knowledge(&mut self, knowledge: Knowledge<K>) {
        self.knowledge = knowledge;
        if self.knowledge.rank_index().is_none() {
            self.knowledge.rank_by(&self.rank);
        }
    }

    /// Patches only the changed operating points of a
    /// [`crate::KnowledgeDelta`] into the knowledge base — equivalent
    /// to [`set_knowledge`](Self::set_knowledge) with the full target
    /// snapshot, without cloning the unchanged points. Returns `false`
    /// (and changes nothing) if the delta does not line up with this
    /// knowledge; the caller must fall back to a full snapshot. The
    /// caller must also verify the knowledge is at the delta's
    /// `from_epoch` — see [`crate::KnowledgeDelta::apply_to`]. The rank
    /// index re-keys each patched point in O(log n).
    #[must_use]
    pub fn apply_knowledge_delta(&mut self, delta: &crate::KnowledgeDelta<K>) -> bool {
        delta.apply_to(&mut self.knowledge)
    }

    /// The active rank.
    pub fn rank(&self) -> &Rank {
        &self.rank
    }

    /// Replaces the rank (the paper's Fig. 5 requirement switch) and
    /// re-indexes the knowledge under it.
    pub fn set_rank(&mut self, rank: Rank) {
        self.rank = rank;
        self.knowledge.rank_by(&self.rank);
    }

    /// Adds a constraint; keeps the list sorted by priority (descending).
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
        self.constraints
            .sort_by_key(|c| std::cmp::Reverse(c.priority));
    }

    /// Updates the bound of the constraint on `metric`; returns `false`
    /// if no such constraint exists.
    pub fn set_constraint_value(&mut self, metric: &Metric, value: f64) -> bool {
        let mut found = false;
        for c in &mut self.constraints {
            if &c.metric == metric {
                c.value = value;
                found = true;
            }
        }
        found
    }

    /// Removes all constraints on `metric`.
    pub fn remove_constraints_on(&mut self, metric: &Metric) {
        self.constraints.retain(|c| &c.metric != metric);
    }

    /// Removes every constraint.
    pub fn clear_constraints(&mut self) {
        self.constraints.clear();
    }

    /// Atomically applies a named optimisation state: replaces the rank
    /// and the whole constraint set (mARGOt state switching).
    pub fn apply_state(&mut self, state: &crate::states::OptimizationState) {
        self.rank = state.rank.clone();
        self.knowledge.rank_by(&self.rank);
        self.constraints = state.constraints.clone();
        self.constraints
            .sort_by_key(|c| std::cmp::Reverse(c.priority));
    }

    /// The active constraints, highest priority first.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the runtime feedback ratio for a metric
    /// (`observed / expected`, clamped to `[0.25, 4.0]`).
    pub fn set_adjustment(&mut self, metric: Metric, ratio: f64) {
        self.adjust(&metric, ratio);
    }

    /// [`set_adjustment`](Self::set_adjustment) by reference: the key
    /// is cloned only the first time `metric` gets a ratio.
    pub(crate) fn adjust(&mut self, metric: &Metric, ratio: f64) {
        let ratio = if ratio.is_finite() { ratio } else { 1.0 };
        let ratio = ratio.clamp(*RATIOS.start(), *RATIOS.end());
        match self.adjustments.get_mut(metric) {
            Some(slot) => *slot = ratio,
            None => {
                self.adjustments.insert(metric.clone(), ratio);
            }
        }
    }

    /// Clears all feedback ratios.
    pub fn clear_adjustments(&mut self) {
        self.adjustments.clear();
    }

    /// Expected metrics of `op`, scaled by the current feedback ratios.
    ///
    /// Derived arithmetic, like [`best`](Self::best)'s lookups: a
    /// product that leaves the finite range (or a non-finite value a
    /// point arrived with) is kept as is, not rejected.
    pub fn adjusted_metrics(&self, op: &OperatingPoint<K>) -> MetricValues {
        MetricValues::from_unvalidated(op.metrics.iter().map(|(m, v)| {
            let f = self.adjustments.get(m).copied().unwrap_or(1.0);
            (m.clone(), v * f)
        }))
    }

    /// Selects the best operating point under the current requirements:
    /// the best adjusted rank value among the feasible points (or,
    /// when none is feasible, among the least-violating ones), the
    /// lowest knowledge position breaking ties.
    ///
    /// Returns `None` only when the knowledge base is empty or the rank
    /// cannot be evaluated on any point.
    ///
    /// Adjusted metric values are computed lazily per lookup (raw value
    /// × feedback ratio — the same arithmetic
    /// [`adjusted_metrics`](Self::adjusted_metrics) materialises), so
    /// the planning loop allocates nothing on the feasible path.
    ///
    /// With no constraints, feedback ratios inside the
    /// [`set_adjustment`](Self::set_adjustment) clamp and a knowledge
    /// index for the current rank (geometric or single-term linear), only
    /// the index's candidates near the top are evaluated; otherwise
    /// every point is. Both paths evaluate each point with the same
    /// arithmetic and return the same point.
    pub fn best(&self) -> Option<&OperatingPoint<K>> {
        self.best_position()
            .and_then(|pos| self.knowledge.points().get(pos))
    }

    /// The knowledge position of [`best`](Self::best)'s point.
    pub(crate) fn best_position(&self) -> Option<usize> {
        let pts = self.knowledge.points();
        if pts.is_empty() {
            return None;
        }
        // The planning loop only ever looks up the constraints' and the
        // rank's metrics; resolve the feedback ratios of the first
        // RESOLVED distinct ones once instead of once per point per
        // lookup. Any further metric reads the map.
        let mut factors = [None::<(&Metric, f64)>; RESOLVED];
        let rank_metrics = || match &self.rank.kind {
            crate::requirements::RankKind::Linear(terms)
            | crate::requirements::RankKind::Geometric(terms) => terms.iter().map(|(m, _)| m),
        };
        let mut resolved = 0;
        for m in self
            .constraints
            .iter()
            .map(|c| &c.metric)
            .chain(rank_metrics())
        {
            if resolved < RESOLVED
                && !factors[..resolved]
                    .iter()
                    .flatten()
                    .any(|(fm, _)| fm.same(m))
            {
                factors[resolved] = Some((m, self.adjustments.get(m).copied().unwrap_or(1.0)));
                resolved += 1;
            }
        }
        let factor = |m: &Metric| {
            factors[..resolved]
                .iter()
                .flatten()
                .find(|(fm, _)| fm.same(m))
                .map_or_else(
                    || self.adjustments.get(m).copied().unwrap_or(1.0),
                    |(_, f)| *f,
                )
        };
        let adjusted = |i: usize, m: &Metric| Some(pts[i].metrics.get(m)? * factor(m));
        if self.constraints.is_empty() && rank_metrics().all(|m| RATIOS.contains(&factor(m))) {
            if let Some(index) = self.knowledge.index_for(&self.rank) {
                // The candidates hold every point that can reach the
                // best value; evaluated in any order, "better, or equal
                // at a lower position" keeps the scan's pick.
                let mut best: Option<(usize, f64)> = None;
                index.for_each_candidate(|i| {
                    let Some(r) = self.rank.value_with(|m| adjusted(i, m)) else {
                        return;
                    };
                    if best.is_none_or(|(bi, br)| self.rank.better(r, br) || (r == br && i < bi)) {
                        best = Some((i, r));
                    }
                });
                return best.map(|(i, _)| i);
            }
        }
        let feasible = |i: usize| {
            self.constraints
                .iter()
                .all(|c| c.satisfied_with(|m| adjusted(i, m)))
        };

        let any_feasible = (0..pts.len()).any(feasible);
        let infeasible_candidates: Vec<usize> = if any_feasible {
            Vec::new()
        } else {
            // Infeasible requirements: rank candidates by how well they
            // satisfy constraints in priority order (violation vector
            // lexicographic minimum), then let the rank break ties.
            let vectors: Vec<Vec<f64>> = (0..pts.len())
                .map(|i| {
                    self.constraints
                        .iter()
                        .map(|c| c.violation_with(|m| adjusted(i, m)))
                        .collect()
                })
                .collect();
            let best_violation = vectors
                .iter()
                .min_by(|a, b| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| x.total_cmp(y))
                        .fold(Ordering::Equal, Ordering::then)
                })?
                .clone();
            (0..pts.len())
                .filter(|&i| vectors[i] == best_violation)
                .collect()
        };

        let mut best: Option<(usize, f64)> = None;
        let mut consider = |i: usize| {
            if let Some(r) = self.rank.value_with(|m| adjusted(i, m)) {
                match best {
                    Some((_, br)) if !self.rank.better(r, br) => {}
                    _ => best = Some((i, r)),
                }
            }
        };
        if any_feasible {
            (0..pts.len())
                .filter(|&i| feasible(i))
                .for_each(&mut consider);
        } else {
            infeasible_candidates.into_iter().for_each(&mut consider);
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::Cmp;

    /// A small synthetic knowledge base:
    ///   cfg 1: slow & cool      (t=1.0,  p=50)   thr/W² = 4.0e-4
    ///   cfg 2: mid              (t=0.4,  p=80)   thr/W² = 3.9e-4
    ///   cfg 3: fast & hot       (t=0.15, p=140)  thr/W² = 3.4e-4
    fn kb() -> Knowledge<u32> {
        let mk = |cfg, t: f64, p: f64| {
            OperatingPoint::new(
                cfg,
                MetricValues::new()
                    .with(Metric::exec_time(), t)
                    .with(Metric::power(), p)
                    .with(Metric::throughput(), 1.0 / t),
            )
        };
        [mk(1, 1.0, 50.0), mk(2, 0.4, 80.0), mk(3, 0.15, 140.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn unconstrained_rank_picks_global_best() {
        let rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn power_constraint_carves_feasible_region() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 90.0, 10));
        assert_eq!(rtm.best().unwrap().config, 2);
        rtm.set_constraint_value(&Metric::power(), 60.0);
        assert_eq!(rtm.best().unwrap().config, 1);
    }

    #[test]
    fn infeasible_budget_falls_back_to_closest() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 40.0, 10));
        // Nothing satisfies 40 W; cfg 1 (50 W) violates least.
        assert_eq!(rtm.best().unwrap().config, 1);
    }

    #[test]
    fn priorities_decide_between_conflicting_constraints() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        // High priority: be fast (t <= 0.2); low priority: be cool (p <= 60).
        // No point satisfies both; cfg 3 satisfies the high-priority one.
        rtm.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 60.0, 1));
        rtm.add_constraint(Constraint::new(
            Metric::exec_time(),
            Cmp::LessOrEqual,
            0.2,
            100,
        ));
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn rank_switch_changes_selection() {
        // The Fig. 5 scenario: Throughput rank picks the hot point,
        // Thr/W² picks the energy-efficient one, and switching back
        // recovers the performance point.
        let mut rtm = AsRtm::new(kb(), Rank::maximize(Metric::throughput()));
        assert_eq!(rtm.best().unwrap().config, 3);
        rtm.set_rank(Rank::throughput_per_watt2());
        assert_eq!(rtm.best().unwrap().config, 1);
        rtm.set_rank(Rank::maximize(Metric::throughput()));
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn adjustment_shifts_constraint_feasibility() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            150.0,
            10,
        ));
        assert_eq!(rtm.best().unwrap().config, 3);
        // Observed power is 1.5x the expectation: cfg3 now reads 210 W.
        rtm.set_adjustment(Metric::power(), 1.5);
        assert_eq!(rtm.best().unwrap().config, 2);
        rtm.clear_adjustments();
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn adjustments_are_clamped() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.set_adjustment(Metric::power(), 1000.0);
        let op = rtm.knowledge().points()[0].clone();
        let adj = rtm.adjusted_metrics(&op);
        assert!((adj.get(&Metric::power()).unwrap() - 50.0 * 4.0).abs() < 1e-9);
        rtm.set_adjustment(Metric::power(), f64::NAN);
        let adj = rtm.adjusted_metrics(&op);
        assert_eq!(adj.get(&Metric::power()).unwrap(), 50.0);
    }

    #[test]
    fn adjusted_metrics_keep_values_best_handles() {
        // Regression: the view collected through the finite-asserting
        // insert and panicked where `best` returns a point.
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        let hot = OperatingPoint::new(
            9,
            MetricValues::new()
                .with(Metric::exec_time(), 1.0)
                .with(Metric::power(), 1e308),
        );
        rtm.set_knowledge([hot.clone()].into_iter().collect());
        rtm.set_adjustment(Metric::power(), 4.0);
        assert_eq!(rtm.best().unwrap().config, 9);
        let adj = rtm.adjusted_metrics(&hot);
        assert_eq!(adj.get(&Metric::power()), Some(f64::INFINITY));

        let nan = OperatingPoint::new(
            7,
            MetricValues::from_unvalidated([
                (Metric::exec_time(), 0.5),
                (Metric::power(), f64::NAN),
            ]),
        );
        rtm.set_knowledge([nan.clone()].into_iter().collect());
        assert_eq!(rtm.best().unwrap().config, 7);
        assert!(rtm
            .adjusted_metrics(&nan)
            .get(&Metric::power())
            .unwrap()
            .is_nan());
    }

    #[test]
    fn the_index_path_keeps_the_scan_tie_rule() {
        // cfg 2 and cfg 4 tie on the top Thr/W²; the lower position wins
        // on the indexed path as on the scan.
        let mk = |cfg, t: f64, p: f64| {
            OperatingPoint::new(
                cfg,
                MetricValues::new()
                    .with(Metric::exec_time(), t)
                    .with(Metric::power(), p)
                    .with(Metric::throughput(), 1.0 / t),
            )
        };
        let k: Knowledge<u32> = [
            mk(1, 0.4, 80.0),
            mk(2, 1.0, 50.0),
            mk(3, 0.15, 140.0),
            mk(4, 1.0, 50.0),
        ]
        .into_iter()
        .collect();
        let mut rtm = AsRtm::new(k, Rank::throughput_per_watt2());
        assert!(rtm.knowledge().rank_index().is_some());
        assert_eq!(rtm.best().unwrap().config, 2);
        rtm.set_adjustment(Metric::power(), 0.5);
        assert_eq!(rtm.best().unwrap().config, 2);
        // A constraint takes the scan; same tie rule.
        rtm.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 60.0, 1));
        assert_eq!(rtm.best().unwrap().config, 2);
    }

    #[test]
    fn empty_knowledge_returns_none() {
        let rtm: AsRtm<u32> = AsRtm::new(Knowledge::new(), Rank::minimize(Metric::exec_time()));
        assert!(rtm.best().is_none());
    }

    #[test]
    fn remove_constraints_restores_unconstrained_choice() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 60.0, 10));
        assert_eq!(rtm.best().unwrap().config, 1);
        rtm.remove_constraints_on(&Metric::power());
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn set_constraint_value_reports_missing() {
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        assert!(!rtm.set_constraint_value(&Metric::power(), 100.0));
    }

    #[test]
    fn a_nan_bound_relaxes_instead_of_panicking() {
        // Regression: a NaN bound made every violation NaN, and the
        // infeasible path panicked comparing the violation vectors.
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            100.0,
            10,
        ));
        assert_eq!(rtm.best().unwrap().config, 2);
        assert!(rtm.set_constraint_value(&Metric::power(), f64::NAN));
        // No point satisfies a NaN bound and every violation is
        // infinite, so the rank decides among all points.
        assert_eq!(rtm.best().unwrap().config, 3);
    }

    #[test]
    fn an_infinite_lower_bound_relaxes_instead_of_panicking() {
        // Regression: `>= +inf` violates by inf/inf = NaN on every point.
        let mut rtm = AsRtm::new(kb(), Rank::minimize(Metric::exec_time()));
        rtm.add_constraint(Constraint::new(
            Metric::throughput(),
            Cmp::GreaterOrEqual,
            f64::INFINITY,
            10,
        ));
        assert_eq!(rtm.best().unwrap().config, 3);
    }
}
