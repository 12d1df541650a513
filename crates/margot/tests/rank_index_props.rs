//! Differential property tests of the AS-RTM's indexed planning path.
//!
//! - `AsRtm::best` returns exactly the point the brute-force scan below
//!   returns — the AS-RTM's selection before the rank index, kept here
//!   as the oracle — over arbitrary knowledge (non-finite, zero,
//!   negative, subnormal and huge metric values, missing metrics, exact
//!   ties), geometric ranks with arbitrary exponents, single- and
//!   multi-term linear ranks in both directions, any feedback ratio,
//!   empty and non-empty constraint sets, and interleaved knowledge
//!   deltas, adoptions, rank and state switches, patches and additions.
//! - A rank index re-keyed patch by patch equals one rebuilt from
//!   the same points, and a clone taken before a patch keeps its own index.

use margot::{
    AsRtm, Cmp, Constraint, Knowledge, KnowledgeDelta, Metric, MetricValues, OperatingPoint,
    OptimizationState, Rank, RankDirection, RankKind,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The oracle: the AS-RTM's scan — feasible points, else the
/// lexicographically least-violating ones (constraints in the AS-RTM's
/// priority order), then the rank with strict `better` in ascending
/// position. Adjusted values are raw value × ratio, ratios defaulting
/// to 1.
fn oracle(
    points: &[OperatingPoint<u32>],
    constraints: &[Constraint],
    rank: &Rank,
    adjustments: &BTreeMap<Metric, f64>,
) -> Option<usize> {
    if points.is_empty() {
        return None;
    }
    let adjusted = |i: usize, m: &Metric| {
        let v = points[i].metrics.get(m)?;
        Some(v * adjustments.get(m).copied().unwrap_or(1.0))
    };
    let feasible = |i: usize| {
        constraints
            .iter()
            .all(|c| c.satisfied_with(|m| adjusted(i, m)))
    };
    let any_feasible = (0..points.len()).any(feasible);
    let candidates: Vec<usize> = if any_feasible {
        (0..points.len()).filter(|&i| feasible(i)).collect()
    } else {
        let vectors: Vec<Vec<f64>> = (0..points.len())
            .map(|i| {
                constraints
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
        (0..points.len())
            .filter(|&i| vectors[i] == best_violation)
            .collect()
    };
    let mut best: Option<(usize, f64)> = None;
    for i in candidates {
        if let Some(r) = rank.value_with(|m| adjusted(i, m)) {
            match best {
                Some((_, br)) if !rank.better(r, br) => {}
                _ => best = Some((i, r)),
            }
        }
    }
    best.map(|(i, _)| i)
}

/// `AsRtm::set_adjustment`'s documented clamp, applied to the model.
fn model_adjust(adjustments: &mut BTreeMap<Metric, f64>, metric: Metric, ratio: f64) {
    let ratio = if ratio.is_finite() { ratio } else { 1.0 };
    adjustments.insert(metric, ratio.clamp(0.25, 4.0));
}

fn metrics() -> Vec<Metric> {
    vec![
        Metric::exec_time(),
        Metric::power(),
        Metric::throughput(),
        Metric::energy(),
    ]
}

fn metric() -> impl Strategy<Value = Metric> {
    prop::sample::select(metrics())
}

/// Any `f64`, every bit pattern, with the edge values drawn often.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => any::<u64>().prop_map(f64::from_bits),
        1 => prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1e-300,
            1e300,
            1e308,
            f64::MAX,
        ]),
    ]
}

/// A metric value: mostly ordinary, often an exact tie or a few ulps
/// off one (where rounding under a ratio can reorder points), weighted
/// toward the values that break a naive index.
fn metric_value() -> impl Strategy<Value = f64> {
    let ties = || prop::sample::select(vec![0.25f64, 0.5, 1.0, 2.0, 4.0, 50.0, 80.0, 120.0]);
    prop_oneof![
        2 => ties(),
        2 => (ties(), -3i64..4).prop_map(|(v, ulps)| f64::from_bits(v.to_bits().wrapping_add_signed(ulps))),
        3 => 1e-3f64..1e3,
        3 => any_f64(),
        1 => -1e3f64..0.0,
    ]
}

/// One point's values for [`metrics`], each possibly missing.
fn values() -> impl Strategy<Value = Vec<Option<f64>>> {
    prop::collection::vec(
        prop_oneof![9 => metric_value().prop_map(Some), 1 => Just(None)],
        4,
    )
}

fn point(config: u32, values: &[Option<f64>]) -> OperatingPoint<u32> {
    let pairs = metrics()
        .into_iter()
        .zip(values)
        .filter_map(|(m, v)| v.map(|v| (m, v)));
    OperatingPoint::new(config, MetricValues::from_unvalidated(pairs))
}

/// Knowledge whose configuration is its position.
fn knowledge(points: &[Vec<Option<f64>>]) -> Knowledge<u32> {
    points
        .iter()
        .enumerate()
        .map(|(i, v)| point(i as u32, v))
        .collect()
}

fn points() -> impl Strategy<Value = Vec<Vec<Option<f64>>>> {
    prop::collection::vec(values(), 1..24)
}

fn exponent() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => prop::sample::select(vec![1.0, -2.0, -1.0, 2.0, 0.5, 0.0, 3.0, -0.5]),
        2 => -120.0f64..120.0,
        1 => any_f64(),
    ]
}

/// Geometric ranks of 0..6 terms, single-term linear ranks and
/// linear ranks of 0..6 terms, in both directions.
fn rank() -> impl Strategy<Value = Rank> {
    (
        any::<bool>(),
        0u8..5,
        prop::collection::vec((metric(), exponent()), 0..6),
    )
        .prop_map(|(maximize, shape, mut terms)| {
            let direction = if maximize {
                RankDirection::Maximize
            } else {
                RankDirection::Minimize
            };
            let kind = match shape {
                0 | 1 => RankKind::Geometric(terms),
                2 | 3 => {
                    terms.truncate(1);
                    if terms.is_empty() {
                        terms.push((Metric::power(), -1.0));
                    }
                    RankKind::Linear(terms)
                }
                _ => RankKind::Linear(terms),
            };
            Rank { direction, kind }
        })
}

fn ratio() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => 0.1f64..5.0,
        1 => prop::sample::select(vec![0.25, 4.0, 1.0, 0.5, 2.0]),
        1 => any_f64(),
    ]
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (
        metric(),
        prop::sample::select(vec![
            Cmp::LessThan,
            Cmp::LessOrEqual,
            Cmp::GreaterThan,
            Cmp::GreaterOrEqual,
        ]),
        prop_oneof![3 => -1e3f64..1e3, 1 => any_f64()],
        0u32..4,
    )
        .prop_map(|(metric, cmp, value, priority)| Constraint::new(metric, cmp, value, priority))
}

/// One mutation of the AS-RTM or of the knowledge it holds.
#[derive(Debug, Clone)]
enum Op {
    Adjust(Metric, f64),
    ClearAdjustments,
    Constrain(Constraint),
    ClearConstraints,
    Delta(Vec<(usize, Vec<Option<f64>>)>),
    SetKnowledge(Vec<Vec<Option<f64>>>, Option<Rank>),
    SetRank(Rank),
    ApplyState(Rank, Vec<Constraint>),
    Patch(usize, Vec<Option<f64>>),
    Add(Vec<Option<f64>>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (metric(), ratio()).prop_map(|(m, r)| Op::Adjust(m, r)),
        1 => Just(Op::ClearAdjustments),
        1 => constraint().prop_map(Op::Constrain),
        2 => Just(Op::ClearConstraints),
        4 => prop::collection::vec((any::<usize>(), values()), 0..4).prop_map(Op::Delta),
        1 => (points(), prop::option::of(rank())).prop_map(|(p, r)| Op::SetKnowledge(p, r)),
        1 => rank().prop_map(Op::SetRank),
        1 => (rank(), prop::collection::vec(constraint(), 0..2))
            .prop_map(|(r, c)| Op::ApplyState(r, c)),
        4 => (any::<usize>(), values()).prop_map(|(pos, v)| Op::Patch(pos, v)),
        1 => values().prop_map(Op::Add),
    ]
}

fn apply(rtm: &mut AsRtm<u32>, adjustments: &mut BTreeMap<Metric, f64>, op: Op) {
    match op {
        Op::Adjust(m, r) => {
            rtm.set_adjustment(m.clone(), r);
            model_adjust(adjustments, m, r);
        }
        Op::ClearAdjustments => {
            rtm.clear_adjustments();
            adjustments.clear();
        }
        Op::Constrain(c) => rtm.add_constraint(c),
        Op::ClearConstraints => rtm.clear_constraints(),
        Op::Delta(changes) => {
            let len = rtm.knowledge().len();
            let mut changed: Vec<(usize, OperatingPoint<u32>)> = changes
                .iter()
                .map(|(pos, v)| (pos % len, point((pos % len) as u32, v)))
                .collect();
            changed.sort_by_key(|(pos, _)| *pos);
            changed.dedup_by_key(|(pos, _)| *pos);
            let delta = KnowledgeDelta {
                from_epoch: 0,
                to_epoch: 1,
                changed,
            };
            assert!(rtm.apply_knowledge_delta(&delta), "same configs line up");
        }
        Op::SetKnowledge(points, rank) => {
            let mut k = knowledge(&points);
            if let Some(rank) = rank {
                k.rank_by(&rank);
            }
            rtm.set_knowledge(k);
        }
        Op::SetRank(rank) => rtm.set_rank(rank),
        Op::ApplyState(rank, constraints) => {
            rtm.apply_state(&OptimizationState { rank, constraints });
        }
        Op::Patch(pos, v) => {
            let mut k = rtm.knowledge().clone();
            let pos = pos % k.len();
            k.patch_point(pos, point(pos as u32, &v));
            rtm.set_knowledge(k);
        }
        Op::Add(v) => {
            let mut k = rtm.knowledge().clone();
            let config = k.len() as u32;
            k.add(point(config, &v));
            rtm.set_knowledge(k);
        }
    }
}

fn check(rtm: &AsRtm<u32>, adjustments: &BTreeMap<Metric, f64>) -> Result<(), TestCaseError> {
    let expected = oracle(
        rtm.knowledge().points(),
        rtm.constraints(),
        rtm.rank(),
        adjustments,
    );
    let got = rtm.best().map(|p| p.config as usize);
    prop_assert_eq!(got, expected, "rank {:?}", rtm.rank());
    Ok(())
}

/// Whether `best()` takes the indexed path.
fn indexed(rtm: &AsRtm<u32>) -> bool {
    rtm.constraints().is_empty()
        && rtm
            .knowledge()
            .rank_index()
            .is_some_and(|index| index.rank() == rtm.rank())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// `best()` picks the oracle's position after every operation.
    #[test]
    fn best_matches_the_scan_oracle(
        start in points(),
        rank in rank(),
        ops in prop::collection::vec(op(), 0..24),
    ) {
        let mut rtm = AsRtm::new(knowledge(&start), rank);
        let mut adjustments = BTreeMap::new();
        check(&rtm, &adjustments)?;
        for op in ops {
            apply(&mut rtm, &mut adjustments, op);
            check(&rtm, &adjustments)?;
        }
    }

    /// A rank index re-keyed patch by patch equals one rebuilt from the
    /// same points, and a clone taken before a patch keeps its own.
    #[test]
    fn rekeyed_index_equals_a_rebuilt_one(
        start in points(),
        rank in rank(),
        steps in prop::collection::vec((any::<usize>(), values(), 0u8..8), 0..24),
    ) {
        let rebuilt = |k: &Knowledge<u32>| {
            let mut fresh: Knowledge<u32> = k.points().iter().cloned().collect();
            fresh.rank_by(&rank);
            fresh
        };
        let mut k = knowledge(&start);
        k.rank_by(&rank);
        for (pos, v, kind) in steps {
            let before = k.clone();
            if kind == 0 {
                let config = k.len() as u32;
                k.add(point(config, &v));
            } else {
                let pos = pos % k.len();
                k.patch_point(pos, point(pos as u32, &v));
            }
            let (fresh, fresh_before) = (rebuilt(&k), rebuilt(&before));
            prop_assert_eq!(k.rank_index(), fresh.rank_index());
            prop_assert_eq!(before.rank_index(), fresh_before.rank_index());
        }
    }
}

/// The generators reach the indexed path often; otherwise the oracle
/// comparison above would show nothing about it.
#[test]
fn the_generators_reach_the_indexed_path() {
    let mut rng = proptest::new_rng("the_generators_reach_the_indexed_path");
    let (mut all, mut hits) = (0u32, 0u32);
    for _ in 0..300 {
        let mut rtm = AsRtm::new(
            knowledge(&points().gen_value(&mut rng)),
            rank().gen_value(&mut rng),
        );
        let mut adjustments = BTreeMap::new();
        for op in prop::collection::vec(op(), 0..24).gen_value(&mut rng) {
            apply(&mut rtm, &mut adjustments, op);
            all += 1;
            hits += u32::from(indexed(&rtm));
        }
    }
    assert!(hits * 4 > all, "{hits} of {all} selections were indexed");
}
