//! Operating points and the application knowledge base.
//!
//! The knowledge is built at design time by profiling the application over
//! its software-knob space (DSE); each explored configuration becomes an
//! [`OperatingPoint`] with its expected EFP values.
//!
//! A [`Knowledge`] can carry a [`RankIndex`] over its points
//! ([`Knowledge::rank_by`]), which the AS-RTM plans from instead of
//! scanning (see [`crate::AsRtm::best`] for when it still scans, and for
//! the tie rule both paths share: the best value, then the lowest
//! position). The index travels with the knowledge: clones share it,
//! [`Knowledge::patch_point`] re-keys the patched position copy-on-write
//! like the points, and equality and serde ignore it.

use crate::index::RankIndex;
use crate::metric::{Metric, MetricValues};
use crate::requirements::Rank;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// One point of the application knowledge: a knob configuration plus the
/// expected values of every profiled EFP.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint<K> {
    /// The software-knob configuration.
    pub config: K,
    /// Expected EFP values from design-time profiling.
    pub metrics: MetricValues,
}

/// `clone_from` reuses the target's metric storage.
impl<K: Clone> Clone for OperatingPoint<K> {
    fn clone(&self) -> Self {
        OperatingPoint {
            config: self.config.clone(),
            metrics: self.metrics.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config.clone_from(&source.config);
        self.metrics.clone_from(&source.metrics);
    }
}

impl<K> OperatingPoint<K> {
    /// Creates an operating point.
    pub fn new(config: K, metrics: MetricValues) -> Self {
        OperatingPoint { config, metrics }
    }

    /// Expected value of a metric.
    pub fn metric(&self, m: &Metric) -> Option<f64> {
        self.metrics.get(m)
    }
}

/// The application knowledge base: the list of operating points the
/// AS-RTM selects from.
///
/// The point list and the optional [`RankIndex`] are copy-on-write
/// (`Arc`-backed): cloning a knowledge base — which every fleet
/// instance does whenever it adopts the pool's refreshed cache — is a
/// reference-count bump; each is only deep-copied when a holder
/// actually mutates it.
#[derive(Clone)]
pub struct Knowledge<K> {
    points: Arc<Vec<OperatingPoint<K>>>,
    index: Option<Arc<RankIndex>>,
}

impl<K> Default for Knowledge<K> {
    fn default() -> Self {
        Knowledge::from_points(Vec::new())
    }
}

/// Two knowledge bases are equal when their points are: the index is
/// derived from them.
impl<K: PartialEq> PartialEq for Knowledge<K> {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl<K: fmt::Debug> fmt::Debug for Knowledge<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Knowledge")
            .field("points", &self.points)
            .finish()
    }
}

impl<K> Knowledge<K> {
    /// An empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    fn from_points(points: Vec<OperatingPoint<K>>) -> Self {
        Knowledge {
            points: Arc::new(points),
            index: None,
        }
    }

    /// Adds an operating point (and rebuilds an attached index).
    pub fn add(&mut self, op: OperatingPoint<K>)
    where
        K: Clone,
    {
        Arc::make_mut(&mut self.points).push(op);
        self.reindex();
    }

    /// Attaches a [`RankIndex`] of the points under `rank` — a no-op
    /// when one for that rank is already attached, so adopting an
    /// indexed knowledge base costs nothing. Detaches the index when
    /// the rank's shape admits none (the AS-RTM then scans).
    pub fn rank_by(&mut self, rank: &Rank) {
        if self.index_for(rank).is_none() {
            self.index = RankIndex::build(rank, &self.points).map(Arc::new);
        }
    }

    /// The attached index, if any.
    pub fn rank_index(&self) -> Option<&RankIndex> {
        self.index.as_deref()
    }

    /// The attached index when it orders by `rank` and covers every
    /// point.
    pub(crate) fn index_for(&self, rank: &Rank) -> Option<&RankIndex> {
        self.index
            .as_deref()
            .filter(|index| index.len() == self.points.len() && index.rank() == rank)
    }

    /// Rebuilds an attached index after points were added.
    fn reindex(&mut self) {
        if let Some(index) = self.index.take() {
            self.index = RankIndex::build(index.rank(), &self.points).map(Arc::new);
        }
    }

    /// All operating points.
    pub fn points(&self) -> &[OperatingPoint<K>] {
        &self.points
    }

    /// Replaces the point at `pos` in place — the primitive behind
    /// incremental knowledge refresh ([`crate::KnowledgeDelta`] patches
    /// only the changed points instead of rebuilding the whole base).
    /// An attached index re-keys the position in O(log n).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn patch_point(&mut self, pos: usize, point: OperatingPoint<K>)
    where
        K: Clone,
    {
        self.patch_point_with(pos, |slot| *slot = point);
    }

    /// [`patch_point`](Self::patch_point) from a borrowed point, copied
    /// over the stored one in place so its storage is reused.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn patch_point_from(&mut self, pos: usize, point: &OperatingPoint<K>)
    where
        K: Clone,
    {
        self.patch_point_with(pos, |slot| slot.clone_from(point));
    }

    /// Rewrites the point at `pos` in place with `write`, then re-keys
    /// an attached index at that position.
    pub(crate) fn patch_point_with(
        &mut self,
        pos: usize,
        write: impl FnOnce(&mut OperatingPoint<K>),
    ) where
        K: Clone,
    {
        let points = Arc::make_mut(&mut self.points);
        write(&mut points[pos]);
        if let Some(index) = &mut self.index {
            Arc::make_mut(index).rekey(pos, &points[pos]);
        }
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the knowledge base is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The metrics present in *all* operating points (the usable EFPs).
    pub fn common_metrics(&self) -> Vec<Metric> {
        let Some(first) = self.points.first() else {
            return Vec::new();
        };
        first
            .metrics
            .iter()
            .map(|(m, _)| m.clone())
            .filter(|m| self.points.iter().all(|p| p.metric(m).is_some()))
            .collect()
    }

    /// Keeps only the Pareto-optimal points under the given objectives
    /// (`true` = larger is better). Points missing a metric are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty.
    pub fn pareto_filter(&self, objectives: &[(Metric, bool)]) -> Knowledge<K>
    where
        K: Clone,
    {
        assert!(!objectives.is_empty(), "need at least one objective");
        // Each usable point with its objective values, sign-normalised
        // so that larger is better.
        let usable: Vec<(&OperatingPoint<K>, Vec<f64>)> = self
            .points
            .iter()
            .filter_map(|p| {
                let values = objectives
                    .iter()
                    .map(|(m, larger_better)| {
                        p.metric(m).map(|v| if *larger_better { v } else { -v })
                    })
                    .collect::<Option<Vec<f64>>>()?;
                Some((p, values))
            })
            .collect();
        // b dominates a: no worse on any objective, better on one.
        let dominated = |a: &[f64], b: &[f64]| {
            !a.iter().zip(b).any(|(va, vb)| vb < va) && a.iter().zip(b).any(|(va, vb)| vb > va)
        };
        let out: Vec<OperatingPoint<K>> = usable
            .iter()
            .filter(|(_, a)| !usable.iter().any(|(_, b)| dominated(a, b)))
            .map(|(p, _)| (*p).clone())
            .collect();
        Knowledge::from_points(out)
    }
}

impl<K> FromIterator<OperatingPoint<K>> for Knowledge<K> {
    fn from_iter<T: IntoIterator<Item = OperatingPoint<K>>>(iter: T) -> Self {
        Knowledge::from_points(iter.into_iter().collect())
    }
}

impl<K: Clone> Extend<OperatingPoint<K>> for Knowledge<K> {
    fn extend<T: IntoIterator<Item = OperatingPoint<K>>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.points).extend(iter);
        self.reindex();
    }
}

// Hand-written serde keeping the derived `{"points":[...]}` shape the
// golden files and persisted artifacts pin, while the in-memory layout
// is Arc-backed and the index is left out.
impl<K: Serialize> Serialize for Knowledge<K> {
    fn to_value(&self) -> Value {
        Value::Object(vec![("points".to_string(), self.points.to_value())])
    }
}

impl<K: Deserialize> Deserialize for Knowledge<K> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if v.as_object().is_none() {
            return Err(serde::Error::expected("knowledge object", v));
        }
        let points = v
            .get_field("points")
            .ok_or_else(|| serde::Error::custom("missing field `points`"))?;
        Ok(Knowledge::from_points(Vec::from_value(points)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(cfg: u32, time: f64, power: f64) -> OperatingPoint<u32> {
        OperatingPoint::new(
            cfg,
            MetricValues::new()
                .with(Metric::exec_time(), time)
                .with(Metric::power(), power),
        )
    }

    #[test]
    fn add_and_len() {
        let mut k = Knowledge::new();
        assert!(k.is_empty());
        k.add(op(1, 1.0, 50.0));
        k.add(op(2, 0.5, 80.0));
        assert_eq!(k.len(), 2);
    }

    #[test]
    fn clones_share_until_mutated() {
        let mut k: Knowledge<u32> = [op(1, 1.0, 50.0)].into_iter().collect();
        let snapshot = k.clone();
        assert!(
            Arc::ptr_eq(&k.points, &snapshot.points),
            "clone is a ref bump"
        );
        k.patch_point(0, op(1, 0.9, 51.0));
        assert!(
            !Arc::ptr_eq(&k.points, &snapshot.points),
            "mutation copies on write"
        );
        assert_eq!(snapshot.points()[0], op(1, 1.0, 50.0), "snapshot untouched");
    }

    #[test]
    fn the_index_travels_with_clones_and_patches_copy_on_write() {
        let rank = Rank::throughput_per_watt2();
        let thr = |cfg: u32, t: f64, p: f64| {
            let mut point = op(cfg, t, p);
            point.metrics.insert(Metric::throughput(), 1.0 / t);
            point
        };
        let mut k: Knowledge<u32> = [thr(1, 1.0, 50.0), thr(2, 0.5, 80.0)].into_iter().collect();
        assert!(k.rank_index().is_none());
        k.rank_by(&rank);
        let index: *const RankIndex = k.rank_index().expect("geometric ranks index");
        k.rank_by(&rank);
        assert!(std::ptr::eq(index, k.rank_index().unwrap()), "no-op");
        let snapshot = k.clone();
        assert!(std::ptr::eq(index, snapshot.rank_index().unwrap()));
        k.patch_point(1, thr(2, 0.1, 60.0));
        assert!(!std::ptr::eq(index, k.rank_index().unwrap()), "copied");
        let rebuilt = {
            let mut fresh: Knowledge<u32> = k.points().iter().cloned().collect();
            fresh.rank_by(&rank);
            fresh
        };
        assert_eq!(k.rank_index(), rebuilt.rank_index());
        assert_ne!(k.rank_index(), snapshot.rank_index());
        k.add(thr(3, 2.0, 40.0));
        assert_eq!(k.rank_index().map(RankIndex::len), Some(3), "rebuilt");
        // Equality and serde see the points only.
        let plain: Knowledge<u32> = k.points().iter().cloned().collect();
        assert_eq!(plain, k);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&k).unwrap()
        );
        k.rank_by(&Rank {
            direction: crate::RankDirection::Maximize,
            kind: crate::RankKind::Linear(vec![(Metric::power(), 1.0), (Metric::exec_time(), 1.0)]),
        });
        assert!(k.rank_index().is_none(), "multi-term linear ranks scan");
    }

    #[test]
    fn serde_shape_is_a_points_struct() {
        let k: Knowledge<u32> = [op(1, 1.0, 50.0)].into_iter().collect();
        let json = serde_json::to_string(&k).expect("serialises");
        assert_eq!(
            json,
            r#"{"points":[{"config":1,"metrics":{"exec_time_s":1.0,"power_w":50.0}}]}"#
        );
        let back: Knowledge<u32> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, k);
    }

    #[test]
    fn common_metrics_intersects() {
        let mut k = Knowledge::new();
        k.add(op(1, 1.0, 50.0));
        let mut odd = op(2, 0.5, 80.0);
        odd.metrics = MetricValues::new().with(Metric::exec_time(), 0.5);
        k.add(odd);
        let common = k.common_metrics();
        assert_eq!(common, vec![Metric::exec_time()]);
    }

    #[test]
    fn pareto_keeps_the_tradeoff_frontier() {
        let mut k = Knowledge::new();
        k.add(op(1, 1.0, 50.0)); // slow, low power: frontier
        k.add(op(2, 0.5, 80.0)); // fast, high power: frontier
        k.add(op(3, 1.0, 90.0)); // dominated by both
        k.add(op(4, 0.4, 70.0)); // dominates op2
        let frontier = k.pareto_filter(&[(Metric::exec_time(), false), (Metric::power(), false)]);
        let configs: Vec<u32> = frontier.points().iter().map(|p| p.config).collect();
        assert!(configs.contains(&1));
        assert!(configs.contains(&4));
        assert!(!configs.contains(&2), "op4 dominates op2");
        assert!(!configs.contains(&3));
    }

    #[test]
    fn pareto_with_equal_points_keeps_both() {
        let mut k = Knowledge::new();
        k.add(op(1, 1.0, 50.0));
        k.add(op(2, 1.0, 50.0));
        let frontier = k.pareto_filter(&[(Metric::exec_time(), false), (Metric::power(), false)]);
        assert_eq!(frontier.len(), 2, "ties are not dominated");
    }

    #[test]
    fn pareto_single_objective_is_argmin() {
        let mut k = Knowledge::new();
        k.add(op(1, 1.0, 50.0));
        k.add(op(2, 0.5, 80.0));
        k.add(op(3, 0.7, 60.0));
        let frontier = k.pareto_filter(&[(Metric::exec_time(), false)]);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier.points()[0].config, 2);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut k: Knowledge<u32> = [op(1, 1.0, 50.0)].into_iter().collect();
        k.extend([op(2, 0.5, 80.0)]);
        assert_eq!(k.len(), 2);
    }
}
