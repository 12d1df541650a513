//! The application-facing manager: the MAPE-K loop facade whose calls the
//! LARA `Autotuner` strategy weaves around the kernel region of interest.
//!
//! The runtime protocol mirrors the mARGOt API the paper describes
//! ("an initialization call … and start/stop/update calls around the
//! regions of interest"):
//!
//! 1. [`ApplicationManager::new`] — `margot_init()`;
//! 2. [`ApplicationManager::update`] — select the configuration for the
//!    next kernel invocation (Plan + Execute);
//! 3. [`ApplicationManager::start_region`] / [`ApplicationManager::stop_region`]
//!    — bracket the kernel and feed the monitors (Monitor + Analyse).

use crate::asrtm::AsRtm;
use crate::knowledge::{Knowledge, OperatingPoint};
use crate::metric::{Metric, MetricValues};
use crate::monitor::Monitor;
use crate::requirements::{Constraint, Rank};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default monitor window (observations) when none is specified.
pub const DEFAULT_MONITOR_WINDOW: usize = 5;

/// The per-application autotuner facade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationManager<K> {
    asrtm: AsRtm<K>,
    monitors: BTreeMap<Metric, Monitor>,
    current: Option<OperatingPoint<K>>,
    /// Knowledge position of `current`, so adopting refreshed knowledge
    /// refreshes it with one lookup.
    current_pos: Option<usize>,
    region_open: bool,
    updates: u64,
}

impl<K: Clone + PartialEq> ApplicationManager<K> {
    /// Initialises the manager (the `margot_init()` analogue).
    pub fn new(knowledge: Knowledge<K>, rank: Rank) -> Self {
        ApplicationManager {
            asrtm: AsRtm::new(knowledge, rank),
            monitors: BTreeMap::new(),
            current: None,
            current_pos: None,
            region_open: false,
            updates: 0,
        }
    }

    /// Registers a monitor for `metric` with the given window.
    pub fn add_monitor(&mut self, metric: Metric, window: usize) {
        self.monitors.insert(metric, Monitor::new(window));
    }

    /// Read access to a monitor.
    pub fn monitor(&self, metric: &Metric) -> Option<&Monitor> {
        self.monitors.get(metric)
    }

    /// The underlying AS-RTM (to add constraints or switch ranks).
    pub fn asrtm_mut(&mut self) -> &mut AsRtm<K> {
        &mut self.asrtm
    }

    /// The underlying AS-RTM, read-only.
    pub fn asrtm(&self) -> &AsRtm<K> {
        &self.asrtm
    }

    /// Adds a constraint (delegates to the AS-RTM).
    pub fn add_constraint(&mut self, c: Constraint) {
        self.asrtm.add_constraint(c);
    }

    /// Switches the rank; the next [`update`](Self::update) re-plans.
    pub fn set_rank(&mut self, rank: Rank) {
        self.asrtm.set_rank(rank);
    }

    /// Adopts a refreshed knowledge base (e.g. a
    /// [`crate::SharedKnowledge`] snapshot published by a fleet).
    ///
    /// If the currently applied configuration survives in the new
    /// knowledge, its expected metrics are refreshed in place so the
    /// *Analyse* step compares observations against the new
    /// expectations; the monitors keep their history. The next
    /// [`update`](Self::update) re-plans over the new points. The
    /// configuration is looked up at the position it was applied from
    /// first, and searched for only when that position holds another
    /// configuration.
    pub fn set_knowledge(&mut self, knowledge: Knowledge<K>) {
        if let Some(cur) = &mut self.current {
            let points = knowledge.points();
            let pos = self
                .current_pos
                .filter(|&i| points.get(i).is_some_and(|p| p.config == cur.config))
                .or_else(|| points.iter().position(|p| p.config == cur.config));
            if let Some(refreshed) = pos.and_then(|i| points.get(i)) {
                cur.clone_from(refreshed);
            }
            self.current_pos = pos;
        }
        self.asrtm.set_knowledge(knowledge);
    }

    /// Adopts a refreshed knowledge base *incrementally*: patches only
    /// the changed points of a [`crate::KnowledgeDelta`] instead of
    /// replacing the whole base — the cheap path a fleet instance takes
    /// when it kept up with the shared knowledge epoch. Behaves exactly
    /// like [`set_knowledge`](Self::set_knowledge) with the delta's
    /// target snapshot, including refreshing the currently applied
    /// configuration's expectations in place (monitors keep their
    /// history). Returns `false` (and changes nothing) if the delta
    /// does not line up with the current knowledge; the caller must
    /// fall back to a full snapshot.
    ///
    /// The caller must verify the knowledge is at the delta's
    /// `from_epoch` first — see [`crate::KnowledgeDelta::apply_to`] for
    /// why a stale receiver cannot be detected here.
    #[must_use]
    pub fn apply_knowledge_delta(&mut self, delta: &crate::KnowledgeDelta<K>) -> bool {
        if !self.asrtm.apply_knowledge_delta(delta) {
            return false;
        }
        if let Some(cur) = &mut self.current {
            if let Some((_, refreshed)) = delta.changed.iter().find(|(_, p)| p.config == cur.config)
            {
                cur.clone_from(refreshed);
            }
        }
        true
    }

    /// Atomically applies a named optimisation state (rank + constraint
    /// set); the next [`update`](Self::update) re-plans under it.
    pub fn apply_state(&mut self, state: &crate::states::OptimizationState) {
        self.asrtm.apply_state(state);
    }

    /// The MAPE-K *Plan/Execute* step: recomputes feedback from the
    /// monitors, selects the best operating point and returns its knob
    /// configuration. Returns `None` when the knowledge base is empty.
    ///
    /// While the configuration stays, the applied point is refreshed in
    /// place; only a switch clones the new point.
    pub fn update(&mut self) -> Option<K> {
        self.refresh_feedback();
        let pos = self.asrtm.best_position()?;
        let best = self.asrtm.knowledge().points().get(pos)?;
        match &mut self.current {
            Some(cur) if same_point(cur, best) => {}
            Some(cur) if cur.config == best.config => cur.clone_from(best),
            cur => {
                // Observations from another configuration must not
                // feed back into expectations for the new one.
                for m in self.monitors.values_mut() {
                    m.clear();
                }
                *cur = Some(best.clone());
            }
        }
        self.current_pos = Some(pos);
        self.updates += 1;
        Some(best.config.clone())
    }

    /// Marks the start of the kernel region (the `margot start_monitor`
    /// analogue).
    ///
    /// # Panics
    ///
    /// Panics if the region is already open — that is a weaving bug.
    pub fn start_region(&mut self) {
        assert!(!self.region_open, "region started twice");
        self.region_open = true;
    }

    /// Marks the end of the kernel region and records the observed EFPs.
    ///
    /// # Panics
    ///
    /// Panics if the region was never started.
    pub fn stop_region(&mut self, observed: &MetricValues) {
        assert!(self.region_open, "region stopped without start");
        self.region_open = false;
        for (metric, value) in observed.iter() {
            if let Some(mon) = self.monitors.get_mut(metric) {
                mon.push(value);
            }
        }
    }

    /// Convenience: records a time/power execution observation with the
    /// derived throughput and energy metrics.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is not strictly positive.
    pub fn observe_execution(&mut self, time_s: f64, power_w: f64) {
        let values = MetricValues::execution_pairs(time_s, power_w);
        self.start_region();
        self.region_open = false;
        for (metric, value) in &values {
            if let Some(mon) = self.monitors.get_mut(metric) {
                mon.push(*value);
            }
        }
    }

    /// The currently applied operating point.
    pub fn current(&self) -> Option<&OperatingPoint<K>> {
        self.current.as_ref()
    }

    /// Number of `update` calls so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// One mARGOt-style log line: expected vs observed per metric.
    pub fn log(&self) -> String
    where
        K: std::fmt::Debug,
    {
        let mut s = String::new();
        match &self.current {
            None => s.push_str("margot: no configuration applied"),
            Some(op) => {
                let _ = write!(s, "margot: config={:?}", op.config);
                for (metric, expected) in op.metrics.iter() {
                    let _ = write!(s, " {metric}={expected:.4}");
                    if let Some(mon) = self.monitors.get(metric) {
                        if let Some(mean) = mon.mean() {
                            let _ = write!(s, "(obs {mean:.4})");
                        }
                    }
                }
            }
        }
        s
    }

    /// The MAPE-K *Analyse* step: per-metric observed/expected ratios.
    fn refresh_feedback(&mut self) {
        let Some(current) = &self.current else {
            return;
        };
        for (metric, mon) in &self.monitors {
            let (Some(mean), Some(expected)) = (mon.mean(), current.metric(metric)) else {
                continue;
            };
            if expected.abs() > 1e-12 {
                self.asrtm.adjust(metric, mean / expected);
            }
        }
    }
}

/// Whether two points are the same configuration with the same metrics,
/// every value by its bits.
fn same_point<K: PartialEq>(a: &OperatingPoint<K>, b: &OperatingPoint<K>) -> bool {
    a.config == b.config
        && a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(b.metrics.iter())
            .all(|((ma, va), (mb, vb))| ma.same(mb) && va.to_bits() == vb.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::Cmp;

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

    fn manager() -> ApplicationManager<u32> {
        let mut m = ApplicationManager::new(kb(), Rank::minimize(Metric::exec_time()));
        m.add_monitor(Metric::exec_time(), 5);
        m.add_monitor(Metric::power(), 5);
        m.add_monitor(Metric::throughput(), 5);
        m
    }

    #[test]
    fn update_selects_and_applies() {
        let mut m = manager();
        assert_eq!(m.update(), Some(3));
        assert_eq!(m.current().unwrap().config, 3);
        assert_eq!(m.updates(), 1);
    }

    #[test]
    fn region_protocol_feeds_monitors() {
        let mut m = manager();
        m.update();
        m.observe_execution(0.16, 139.0);
        m.observe_execution(0.14, 141.0);
        let mon = m.monitor(&Metric::exec_time()).unwrap();
        assert_eq!(mon.len(), 2);
        assert!((mon.mean().unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "region started twice")]
    fn double_start_is_a_weaving_bug() {
        let mut m = manager();
        m.start_region();
        m.start_region();
    }

    #[test]
    #[should_panic(expected = "without start")]
    fn stop_without_start_is_a_weaving_bug() {
        let mut m = manager();
        m.stop_region(&MetricValues::new());
    }

    #[test]
    fn feedback_loop_adapts_selection() {
        let mut m = manager();
        m.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            150.0,
            10,
        ));
        assert_eq!(m.update(), Some(3));
        // The platform turns out hotter than profiled: cfg3 really draws
        // ~210 W. After observations, the next update must back off.
        for _ in 0..5 {
            m.observe_execution(0.15, 210.0);
        }
        assert_eq!(m.update(), Some(2));
    }

    #[test]
    fn config_change_clears_monitors() {
        let mut m = manager();
        m.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            150.0,
            10,
        ));
        m.update();
        for _ in 0..5 {
            m.observe_execution(0.15, 210.0);
        }
        m.update(); // switches 3 -> 2, must clear windows
        assert_eq!(m.monitor(&Metric::power()).unwrap().len(), 0);
    }

    #[test]
    fn stable_selection_keeps_monitor_history() {
        let mut m = manager();
        m.update();
        m.observe_execution(0.15, 140.0);
        m.update(); // same config: window survives
        assert_eq!(m.monitor(&Metric::power()).unwrap().len(), 1);
    }

    #[test]
    fn log_mentions_config_and_metrics() {
        let mut m = manager();
        assert!(m.log().contains("no configuration"));
        m.update();
        m.observe_execution(0.15, 139.5);
        let log = m.log();
        assert!(log.contains("config=3"), "{log}");
        assert!(log.contains("power_w"), "{log}");
        assert!(log.contains("obs"), "{log}");
    }

    #[test]
    fn rank_switch_takes_effect_next_update() {
        let mut m = manager();
        assert_eq!(m.update(), Some(3));
        m.set_rank(Rank::throughput_per_watt2());
        assert_eq!(m.update(), Some(1));
    }

    #[test]
    fn adopted_knowledge_refreshes_the_current_point_at_its_position_or_by_search() {
        let mut m = manager();
        assert_eq!(m.update(), Some(3));
        let hotter: Knowledge<u32> = kb()
            .points()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.metrics.insert(
                    Metric::power(),
                    p.metrics.get(&Metric::power()).unwrap() + 1.0,
                );
                p
            })
            .collect();
        m.set_knowledge(hotter);
        assert_eq!(m.current().unwrap().metric(&Metric::power()), Some(141.0));
        // The applied position now holds another configuration.
        let reversed: Knowledge<u32> = kb().points().iter().rev().cloned().collect();
        m.set_knowledge(reversed);
        assert_eq!(m.current().unwrap().config, 3);
        assert_eq!(m.current().unwrap().metric(&Metric::power()), Some(140.0));
    }

    #[test]
    fn empty_knowledge_update_is_none() {
        let mut m: ApplicationManager<u32> =
            ApplicationManager::new(Knowledge::new(), Rank::minimize(Metric::exec_time()));
        assert_eq!(m.update(), None);
    }
}
