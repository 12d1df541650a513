//! An incremental rank index: the AS-RTM's planning shortcut.
//!
//! [`AsRtm::best`](crate::AsRtm::best) must return the point its scan
//! would: the best *scaled* rank value — every metric multiplied by its
//! monitor feedback ratio — with the lowest knowledge position breaking
//! ties. A per-metric ratio scales a geometric rank `Π metric^e`, and a
//! single-term linear rank `coef · metric`, by one positive factor that
//! is the same for every point. So the scan's winner can only be among
//! the points whose *unscaled* value lies near the top: anything
//! further down stays below the top point after scaling.
//!
//! [`RankIndex`] is a tournament tree over the unscaled values of one
//! [`Knowledge`](crate::Knowledge) and one [`Rank`]. The winner of each
//! match is the better value, then the lower position (the scan's tie
//! rule). Building costs O(n); re-keying one patched position costs
//! O(log n). A plan walks the tree left to right and visits only the
//! positions within a relative window ([`WINDOW`]) of the top; the
//! AS-RTM re-evaluates those with the real ratios, so selections, ties
//! and traces are bit-identical to the scan.
//!
//! The window is sound while every intermediate of a rank evaluation
//! stays a normal `f64` for any ratio in `[0.25, 4]` (the
//! [`AsRtm::set_adjustment`](crate::AsRtm::set_adjustment) clamp): the
//! scaled value is then the unscaled one times the common factor, up
//! to a relative rounding error of about 1e-13 at most (at most four
//! terms, each with `|exponent| < 100`). A point for which that cannot
//! be shown — a non-finite, zero, subnormal or huge metric value
//! — skips the tree and goes on a short *always evaluate* list. Ranks
//! with large exponents, more than [`MAX_TERMS`] terms or more than one
//! linear term get no index at all; the AS-RTM scans for them.

use crate::knowledge::OperatingPoint;
use crate::requirements::{Rank, RankDirection, RankKind};

/// Relative width of the window below the top unscaled value whose
/// points a plan re-evaluates: four orders of magnitude above the
/// rounding error a ratio can add under the safety rule below.
const WINDOW: f64 = 1e-9;

/// The feedback-ratio range the window is sound for — the clamp of
/// [`AsRtm::set_adjustment`](crate::AsRtm::set_adjustment).
pub(crate) const RATIOS: std::ops::RangeInclusive<f64> = 0.25..=4.0;

/// `|log2|` of the widest ratio in [`RATIOS`].
const LOG2_RATIO: f64 = 2.0;

/// Most terms a geometric rank may have to be indexed.
const MAX_TERMS: usize = 4;

/// Bound on `|log2 v|` of every metric value (and, for a linear rank,
/// of the unscaled value) of a point in the tree.
const MAX_LOG2_VALUE: f64 = 1000.0;

/// Bound on `|e · log2 v| + 2|e|` — the `|log2|` of one geometric term
/// at any ratio — so at most [`MAX_TERMS`] terms stay within `2^±800`.
const MAX_LOG2_TERM: f64 = 200.0;

/// Where one knowledge position lives in the index.
enum Slot {
    /// In the tree, under this key: the unscaled rank value, negated
    /// for a minimised rank so that larger is always better.
    Keyed(f64),
    /// On the always-evaluate list: a ratio could push an intermediate
    /// of its evaluation out of the normal `f64` range.
    Always,
    /// Nowhere: a rank metric is missing, so no ratio gives it a value.
    Never,
}

/// A tournament tree over the unscaled rank values of one knowledge
/// base (see the module docs). Carried by the
/// [`Knowledge`](crate::Knowledge) it indexes
/// ([`Knowledge::rank_by`](crate::Knowledge::rank_by)) and re-keyed by
/// its [`patch_point`](crate::Knowledge::patch_point).
#[derive(Debug, Clone, PartialEq)]
pub struct RankIndex {
    rank: Rank,
    len: usize,
    /// Leaf keys, padded to a power of two with `-inf` (also the key of
    /// every position not in the tree).
    keys: Vec<f64>,
    /// The winning position of each internal node `1..keys.len()`;
    /// node `i`'s children are `2i` and `2i + 1`, and leaf `p` is node
    /// `keys.len() + p`. Entry 0 is unused.
    winners: Vec<usize>,
    /// Always-evaluate positions, ascending.
    always: Vec<usize>,
}

impl RankIndex {
    /// Indexes `points` under `rank`; `None` when the rank's shape
    /// admits no index (the AS-RTM then scans).
    pub(crate) fn build<K>(rank: &Rank, points: &[OperatingPoint<K>]) -> Option<RankIndex> {
        if !indexable(rank) {
            return None;
        }
        let width = points.len().next_power_of_two();
        let mut index = RankIndex {
            rank: rank.clone(),
            len: points.len(),
            keys: vec![f64::NEG_INFINITY; width],
            winners: vec![0; width],
            always: Vec::new(),
        };
        for (pos, point) in points.iter().enumerate() {
            match classify(rank, point) {
                Slot::Keyed(key) => index.keys[pos] = key,
                Slot::Always => index.always.push(pos),
                Slot::Never => {}
            }
        }
        for node in (1..width).rev() {
            index.winners[node] = index.play(node);
        }
        Some(index)
    }

    /// The rank this index orders by.
    pub fn rank(&self) -> &Rank {
        &self.rank
    }

    /// Number of indexed knowledge positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index covers no position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-keys position `pos` after its point was replaced by `point`:
    /// O(log n), plus O(list) when it joins or leaves the
    /// always-evaluate list.
    pub(crate) fn rekey<K>(&mut self, pos: usize, point: &OperatingPoint<K>) {
        if pos >= self.len {
            return;
        }
        if let Ok(i) = self.always.binary_search(&pos) {
            self.always.remove(i);
        }
        let key = match classify(&self.rank, point) {
            Slot::Keyed(key) => key,
            Slot::Always => {
                if let Err(i) = self.always.binary_search(&pos) {
                    self.always.insert(i, pos);
                }
                f64::NEG_INFINITY
            }
            Slot::Never => f64::NEG_INFINITY,
        };
        self.keys[pos] = key;
        let mut node = (self.keys.len() + pos) / 2;
        while node >= 1 {
            self.winners[node] = self.play(node);
            node /= 2;
        }
    }

    /// Calls `visit` with every position whose scaled rank value may be
    /// the best: the tree's positions within [`WINDOW`] of the top, left
    /// to right, then the always-evaluate list, ascending.
    pub(crate) fn for_each_candidate(&self, mut visit: impl FnMut(usize)) {
        let top = self.keys[self.winner(1)];
        if top > f64::NEG_INFINITY {
            self.walk(1, top - top.abs() * WINDOW, &mut visit);
        }
        for &pos in &self.always {
            visit(pos);
        }
    }

    /// The winning position of `node`'s subtree.
    fn winner(&self, node: usize) -> usize {
        let width = self.keys.len();
        if node >= width {
            node - width
        } else {
            self.winners[node]
        }
    }

    /// Replays `node`'s match. Its left subtree holds the lower
    /// positions, so the right winner needs a strictly better key.
    fn play(&self, node: usize) -> usize {
        let (left, right) = (self.winner(2 * node), self.winner(2 * node + 1));
        if self.keys[right] > self.keys[left] {
            right
        } else {
            left
        }
    }

    fn walk(&self, node: usize, floor: f64, visit: &mut impl FnMut(usize)) {
        let winner = self.winner(node);
        if self.keys[winner] < floor {
            return;
        }
        if node >= self.keys.len() {
            visit(winner);
        } else {
            self.walk(2 * node, floor, visit);
            self.walk(2 * node + 1, floor, visit);
        }
    }
}

/// Whether `rank` has a shape the window is sound for: a geometric rank
/// of at most [`MAX_TERMS`] terms whose exponents keep a term within
/// range even at a metric value of 1, or one linear term with a normal
/// coefficient.
fn indexable(rank: &Rank) -> bool {
    match &rank.kind {
        RankKind::Geometric(terms) => {
            terms.len() <= MAX_TERMS
                && terms
                    .iter()
                    .all(|(_, e)| LOG2_RATIO * e.abs() < MAX_LOG2_TERM)
        }
        RankKind::Linear(terms) => match terms.as_slice() {
            [(_, coef)] => coef.is_normal() && coef.abs().log2().abs() < MAX_LOG2_VALUE,
            _ => false,
        },
    }
}

/// Places one point of an [`indexable`] rank.
fn classify<K>(rank: &Rank, point: &OperatingPoint<K>) -> Slot {
    let (RankKind::Geometric(terms) | RankKind::Linear(terms)) = &rank.kind;
    let geometric = matches!(rank.kind, RankKind::Geometric(_));
    let mut safe = true;
    for (metric, e) in terms {
        let Some(v) = point.metrics.get(metric) else {
            return Slot::Never;
        };
        let log2 = v.abs().log2();
        safe &= v.is_normal() && log2.abs() < MAX_LOG2_VALUE;
        if geometric {
            safe &= v > 0.0 && (e * log2).abs() + LOG2_RATIO * e.abs() < MAX_LOG2_TERM;
        }
    }
    if !safe {
        return Slot::Always;
    }
    match rank.value_with(|m| point.metrics.get(m)) {
        Some(value) if value.is_normal() && value.abs().log2().abs() < MAX_LOG2_VALUE => {
            Slot::Keyed(match rank.direction {
                RankDirection::Maximize => value,
                RankDirection::Minimize => -value,
            })
        }
        _ => Slot::Always,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Metric, MetricValues};

    fn op(cfg: u32, time: f64, power: f64) -> OperatingPoint<u32> {
        OperatingPoint::new(
            cfg,
            MetricValues::from_unvalidated([
                (Metric::exec_time(), time),
                (Metric::power(), power),
                (Metric::throughput(), 1.0 / time),
            ]),
        )
    }

    fn candidates(index: &RankIndex) -> Vec<usize> {
        let mut out = Vec::new();
        index.for_each_candidate(|pos| out.push(pos));
        out
    }

    #[test]
    fn the_walk_lists_the_top_and_its_near_ties() {
        let points = [
            op(0, 1.0, 50.0),
            op(1, 0.5, 80.0),
            op(2, 1.0, 50.0), // ties position 0
            op(3, 0.2, 140.0),
            op(4, 1.0, 50.0 * (1.0 + 1e-12)), // inside the window
        ];
        let index = RankIndex::build(&Rank::throughput_per_watt2(), &points).expect("indexable");
        assert_eq!(candidates(&index), vec![0, 2, 4]);
        let fastest =
            RankIndex::build(&Rank::minimize(Metric::exec_time()), &points).expect("indexable");
        assert_eq!(candidates(&fastest), vec![3]);
    }

    #[test]
    fn unsafe_values_are_always_evaluated_and_missing_ones_never() {
        let mut points = vec![
            op(0, 1.0, 50.0),
            op(1, 1.0, f64::NAN),
            op(2, 1.0, 5e-324),
            op(3, 1.0, 1e308),
            op(4, 1.0, 0.0),
        ];
        points.push(OperatingPoint::new(
            5,
            MetricValues::new().with(Metric::exec_time(), 1.0),
        ));
        let index = RankIndex::build(&Rank::throughput_per_watt2(), &points).expect("indexable");
        assert_eq!(candidates(&index), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rekeying_matches_a_rebuild() {
        let rank = Rank::throughput_per_watt2();
        let mut points: Vec<_> = (0..7)
            .map(|i| op(i, 1.0 + f64::from(i), 50.0 + f64::from(i)))
            .collect();
        let mut index = RankIndex::build(&rank, &points).expect("indexable");
        for (pos, point) in [
            (3, op(3, 0.1, 40.0)),
            (0, op(0, 1.0, f64::INFINITY)),
            (3, op(3, 9.0, 90.0)),
            (0, op(0, 0.5, 45.0)),
            (6, op(6, 0.5, 45.0)),
        ] {
            points[pos] = point;
            index.rekey(pos, &points[pos]);
            assert_eq!(index, RankIndex::build(&rank, &points).expect("indexable"));
        }
        assert_eq!(candidates(&index), vec![0, 6]);
    }

    #[test]
    fn only_sound_rank_shapes_are_indexed() {
        let points = [op(0, 1.0, 50.0)];
        let linear2 = Rank {
            direction: RankDirection::Maximize,
            kind: RankKind::Linear(vec![(Metric::power(), 1.0), (Metric::exec_time(), 1.0)]),
        };
        let steep = Rank {
            direction: RankDirection::Maximize,
            kind: RankKind::Geometric(vec![(Metric::power(), 100.0)]),
        };
        let zero_coef = Rank {
            direction: RankDirection::Maximize,
            kind: RankKind::Linear(vec![(Metric::power(), 0.0)]),
        };
        for rank in [linear2, steep, zero_coef] {
            assert!(RankIndex::build(&rank, &points).is_none(), "{rank:?}");
        }
        let empty = RankIndex::build(&Rank::throughput_per_watt2(), &[] as &[OperatingPoint<u32>])
            .expect("indexable");
        assert!(candidates(&empty).is_empty());
    }
}
