//! Property tests of the AS-RTM selection laws:
//!
//! - when the feasible region is non-empty, the selected point
//!   satisfies **all** constraints (nothing is relaxed needlessly);
//! - when it is empty, relaxation is lowest-priority-first: the
//!   selected point's violation vector (constraints in descending
//!   priority order) is lexicographically minimal, so it satisfies
//!   every constraint in the longest satisfiable priority prefix;
//! - `set_constraint_value`, `set_rank` and `set_adjustment` never
//!   panic on arbitrary inputs (any constraint bound, NaN and infinities
//!   included; finite ratios), and selection still succeeds.

use margot::{AsRtm, Cmp, Constraint, Knowledge, Metric, MetricValues, OperatingPoint, Rank};
use proptest::prelude::*;

/// Strategy: any `f64` — every bit pattern, with NaN, the infinities
/// and the signed zeros drawn often enough to matter.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => any::<u64>().prop_map(f64::from_bits),
        1 => prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]),
    ]
}

/// Strategy: knowledge bases of 1..20 points with positive exec-time,
/// power and derived throughput metrics.
fn kb_strategy() -> impl Strategy<Value = Knowledge<u32>> {
    prop::collection::vec((1e-3f64..1e3, 1.0f64..1e3), 1..20).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (t, p))| {
                OperatingPoint::new(
                    i as u32,
                    MetricValues::new()
                        .with(Metric::exec_time(), t)
                        .with(Metric::power(), p)
                        .with(Metric::throughput(), 1.0 / t),
                )
            })
            .collect()
    })
}

/// Strategy: constraints over present metrics — and occasionally the
/// absent `energy` metric, which every point violates infinitely.
fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    (
        prop::sample::select(vec![
            Metric::exec_time(),
            Metric::power(),
            Metric::throughput(),
            Metric::energy(),
        ]),
        prop::sample::select(vec![
            Cmp::LessThan,
            Cmp::LessOrEqual,
            Cmp::GreaterThan,
            Cmp::GreaterOrEqual,
        ]),
        -1e3f64..1e3,
        0u32..100,
    )
        .prop_map(|(metric, cmp, value, priority)| Constraint::new(metric, cmp, value, priority))
}

fn rank_strategy() -> impl Strategy<Value = Rank> {
    prop::sample::select(vec![
        Rank::minimize(Metric::exec_time()),
        Rank::maximize(Metric::throughput()),
        Rank::minimize(Metric::power()),
        Rank::throughput_per_watt2(),
    ])
}

/// Reference: the selected point's violation magnitudes, one entry per
/// constraint in the AS-RTM's own (descending-priority) order.
fn violations(rtm: &AsRtm<u32>, p: &OperatingPoint<u32>) -> Vec<f64> {
    let adjusted = rtm.adjusted_metrics(p);
    rtm.constraints()
        .iter()
        .map(|c| c.violation(&adjusted))
        .collect()
}

/// Reference: how many constraints the point satisfies scanning from
/// the highest priority down before the first violation.
fn leading_satisfied(rtm: &AsRtm<u32>, p: &OperatingPoint<u32>) -> usize {
    let adjusted = rtm.adjusted_metrics(p);
    rtm.constraints()
        .iter()
        .take_while(|c| c.satisfied_by(&adjusted))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With a non-empty feasible region, nothing is relaxed: the
    /// selected point satisfies every constraint.
    #[test]
    fn feasible_selection_satisfies_all_constraints(
        kb in kb_strategy(),
        constraints in prop::collection::vec(constraint_strategy(), 0..5),
        rank in rank_strategy(),
    ) {
        let mut rtm = AsRtm::new(kb, rank);
        for c in constraints {
            rtm.add_constraint(c);
        }
        let feasible = rtm.knowledge().points().iter().any(|p| {
            let adjusted = rtm.adjusted_metrics(p);
            rtm.constraints().iter().all(|c| c.satisfied_by(&adjusted))
        });
        let best = rtm.best().expect("non-empty kb with evaluable rank");
        if feasible {
            let adjusted = rtm.adjusted_metrics(best);
            for c in rtm.constraints() {
                prop_assert!(
                    c.satisfied_by(&adjusted),
                    "feasible points exist but selection violates {c}"
                );
            }
        }
    }

    /// Relaxation is lowest-priority-first: the selected point's
    /// violation vector is lexicographically minimal (priorities
    /// descending), hence it satisfies the longest satisfiable prefix
    /// of the priority-ordered constraint list.
    #[test]
    fn relaxation_is_lowest_priority_first(
        kb in kb_strategy(),
        constraints in prop::collection::vec(constraint_strategy(), 1..6),
        rank in rank_strategy(),
    ) {
        let mut rtm = AsRtm::new(kb, rank);
        for c in constraints {
            rtm.add_constraint(c);
        }
        let best = rtm.best().expect("non-empty kb with evaluable rank");
        let best_violations = violations(&rtm, best);
        let best_prefix = leading_satisfied(&rtm, best);
        for p in rtm.knowledge().points() {
            let v = violations(&rtm, p);
            prop_assert!(
                v.partial_cmp(&best_violations) != Some(std::cmp::Ordering::Less),
                "point {} has a lexicographically smaller violation vector: {v:?} < {best_violations:?}",
                p.config
            );
            prop_assert!(
                leading_satisfied(&rtm, p) <= best_prefix,
                "point {} satisfies a longer priority prefix than the selection",
                p.config
            );
        }
    }

    /// Runtime requirement churn never panics and never loses the
    /// ability to select: arbitrary constraint bounds (NaN and
    /// infinities included), rank switches and finite feedback ratios
    /// (including zero, negative and huge values) keep `best()`
    /// returning a point.
    #[test]
    fn setters_never_panic_on_arbitrary_finite_inputs(
        kb in kb_strategy(),
        constraints in prop::collection::vec(constraint_strategy(), 0..5),
        new_bounds in prop::collection::vec(any_f64(), 1..5),
        ratio in -1e300f64..1e300,
        first_rank in rank_strategy(),
        second_rank in rank_strategy(),
    ) {
        let mut rtm = AsRtm::new(kb, first_rank);
        for c in constraints {
            rtm.add_constraint(c);
        }
        for bound in new_bounds {
            rtm.set_constraint_value(&Metric::power(), bound);
            rtm.set_constraint_value(&Metric::exec_time(), bound);
            prop_assert!(rtm.best().is_some());
        }
        rtm.set_adjustment(Metric::power(), ratio);
        rtm.set_rank(second_rank);
        prop_assert!(rtm.best().is_some());
    }

    /// The selection is invariant under knowledge refreshes that change
    /// nothing (set_knowledge with the same points), and total under
    /// ones that do.
    #[test]
    fn set_knowledge_is_total_and_identity_preserving(
        kb in kb_strategy(),
        constraints in prop::collection::vec(constraint_strategy(), 0..4),
        rank in rank_strategy(),
        scale in 0.5f64..2.0,
    ) {
        let mut rtm = AsRtm::new(kb.clone(), rank);
        for c in constraints {
            rtm.add_constraint(c);
        }
        let before = rtm.best().expect("selectable").config;
        rtm.set_knowledge(kb.clone());
        prop_assert_eq!(rtm.best().expect("selectable").config, before);
        // A uniformly scaled refresh still selects *some* point.
        let scaled: Knowledge<u32> = kb
            .points()
            .iter()
            .map(|p| {
                OperatingPoint::new(
                    p.config,
                    p.metrics.iter().map(|(m, v)| (m.clone(), v * scale)).collect(),
                )
            })
            .collect();
        rtm.set_knowledge(scaled);
        prop_assert!(rtm.best().is_some());
    }
}
