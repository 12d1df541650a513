//! Application requirements: constraints and the rank function.
//!
//! mARGOt expresses requirements as a constrained multi-objective
//! optimisation problem: an ordered list of [`Constraint`]s (with
//! priorities) carves the feasible region; the [`Rank`] picks the best
//! point inside it.

use crate::metric::{Metric, MetricValues};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cmp {
    /// Metric must be `< value`.
    LessThan,
    /// Metric must be `<= value`.
    LessOrEqual,
    /// Metric must be `> value`.
    GreaterThan,
    /// Metric must be `>= value`.
    GreaterOrEqual,
}

impl Cmp {
    /// Evaluates `observed cmp bound`.
    pub fn holds(self, observed: f64, bound: f64) -> bool {
        match self {
            Cmp::LessThan => observed < bound,
            Cmp::LessOrEqual => observed <= bound,
            Cmp::GreaterThan => observed > bound,
            Cmp::GreaterOrEqual => observed >= bound,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::LessThan => "<",
            Cmp::LessOrEqual => "<=",
            Cmp::GreaterThan => ">",
            Cmp::GreaterOrEqual => ">=",
        };
        f.write_str(s)
    }
}

/// A runtime-adjustable constraint on one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Constrained metric.
    pub metric: Metric,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Bound value (can be changed at runtime, e.g. a new power budget).
    pub value: f64,
    /// Priority: higher wins when the feasible region is empty.
    pub priority: u32,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(metric: Metric, cmp: Cmp, value: f64, priority: u32) -> Self {
        Constraint {
            metric,
            cmp,
            value,
            priority,
        }
    }

    /// Whether the metric bundle satisfies the constraint. Missing
    /// metrics count as violations (the AS-RTM cannot vouch for them).
    pub fn satisfied_by(&self, values: &MetricValues) -> bool {
        self.satisfied_with(|m| values.get(m))
    }

    /// [`satisfied_by`](Self::satisfied_by) over a metric lookup
    /// function instead of a materialised bundle — the AS-RTM's
    /// allocation-free hot path.
    pub fn satisfied_with(&self, get: impl Fn(&Metric) -> Option<f64>) -> bool {
        get(&self.metric).is_some_and(|v| self.cmp.holds(v, self.value))
    }

    /// Violation magnitude, normalised by the bound: 0 when satisfied,
    /// infinite when the metric is missing or the magnitude is not a
    /// number (a NaN bound or value, or ∞/∞ against an infinite bound).
    pub fn violation(&self, values: &MetricValues) -> f64 {
        self.violation_with(|m| values.get(m))
    }

    /// [`violation`](Self::violation) over a metric lookup function.
    pub fn violation_with(&self, get: impl Fn(&Metric) -> Option<f64>) -> f64 {
        let Some(v) = get(&self.metric) else {
            return f64::INFINITY;
        };
        if self.cmp.holds(v, self.value) {
            return 0.0;
        }
        let scale = self.value.abs().max(1e-12);
        let violation = (v - self.value).abs() / scale;
        if violation.is_nan() {
            f64::INFINITY
        } else {
            violation
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} (prio {})",
            self.metric, self.cmp, self.value, self.priority
        )
    }
}

/// Optimisation direction of the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RankDirection {
    /// Larger rank value wins.
    Maximize,
    /// Smaller rank value wins.
    Minimize,
}

/// The rank: a scalarisation of one or more metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rank {
    /// Direction.
    pub direction: RankDirection,
    /// Composition of metric fields.
    pub kind: RankKind,
}

/// How metric fields combine into the rank value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RankKind {
    /// `Σ coef · metric`
    Linear(Vec<(Metric, f64)>),
    /// `Π metric ^ exponent` — used for the paper's Thr/W² objective
    /// (`throughput^1 · power^-2`).
    Geometric(Vec<(Metric, f64)>),
}

impl Rank {
    /// Maximize a single metric.
    pub fn maximize(metric: Metric) -> Rank {
        Rank {
            direction: RankDirection::Maximize,
            kind: RankKind::Linear(vec![(metric, 1.0)]),
        }
    }

    /// Minimize a single metric.
    pub fn minimize(metric: Metric) -> Rank {
        Rank {
            direction: RankDirection::Minimize,
            kind: RankKind::Linear(vec![(metric, 1.0)]),
        }
    }

    /// The paper's energy-efficiency objective: maximize Thr/W².
    pub fn throughput_per_watt2() -> Rank {
        Rank {
            direction: RankDirection::Maximize,
            kind: RankKind::Geometric(vec![(Metric::throughput(), 1.0), (Metric::power(), -2.0)]),
        }
    }

    /// Evaluates the rank on a metric bundle; `None` if a field is
    /// missing or the result is not finite.
    pub fn value(&self, values: &MetricValues) -> Option<f64> {
        self.value_with(|m| values.get(m))
    }

    /// [`value`](Self::value) over a metric lookup function instead of
    /// a materialised bundle — the AS-RTM's allocation-free hot path.
    pub fn value_with(&self, get: impl Fn(&Metric) -> Option<f64>) -> Option<f64> {
        let v = match &self.kind {
            RankKind::Linear(terms) => {
                let mut acc = 0.0;
                for (m, coef) in terms {
                    acc += coef * get(m)?;
                }
                acc
            }
            RankKind::Geometric(terms) => {
                let mut acc = 1.0;
                for (m, exp) in terms {
                    let base = get(m)?;
                    if base <= 0.0 {
                        return None;
                    }
                    acc *= base.powf(*exp);
                }
                acc
            }
        };
        v.is_finite().then_some(v)
    }

    /// Whether rank value `a` beats `b` under this rank's direction.
    pub fn better(&self, a: f64, b: f64) -> bool {
        match self.direction {
            RankDirection::Maximize => a > b,
            RankDirection::Minimize => a < b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(time: f64, power: f64) -> MetricValues {
        MetricValues::new()
            .with(Metric::exec_time(), time)
            .with(Metric::power(), power)
            .with(Metric::throughput(), 1.0 / time)
    }

    #[test]
    fn cmp_semantics() {
        assert!(Cmp::LessThan.holds(1.0, 2.0));
        assert!(!Cmp::LessThan.holds(2.0, 2.0));
        assert!(Cmp::LessOrEqual.holds(2.0, 2.0));
        assert!(Cmp::GreaterThan.holds(3.0, 2.0));
        assert!(Cmp::GreaterOrEqual.holds(2.0, 2.0));
    }

    #[test]
    fn constraint_satisfaction_and_violation() {
        let c = Constraint::new(Metric::power(), Cmp::LessOrEqual, 100.0, 10);
        assert!(c.satisfied_by(&values(1.0, 90.0)));
        assert!(!c.satisfied_by(&values(1.0, 130.0)));
        assert_eq!(c.violation(&values(1.0, 90.0)), 0.0);
        assert!((c.violation(&values(1.0, 130.0)) - 0.3).abs() < 1e-12);
        // A violation that is not a number counts as infinite.
        let nan_bound = Constraint::new(Metric::power(), Cmp::LessOrEqual, f64::NAN, 1);
        assert_eq!(nan_bound.violation(&values(1.0, 90.0)), f64::INFINITY);
        let unreachable = Constraint::new(Metric::power(), Cmp::GreaterOrEqual, f64::INFINITY, 1);
        assert_eq!(unreachable.violation(&values(1.0, 90.0)), f64::INFINITY);
    }

    #[test]
    fn missing_metric_is_a_violation() {
        let c = Constraint::new(Metric::energy(), Cmp::LessThan, 5.0, 1);
        assert!(!c.satisfied_by(&values(1.0, 90.0)));
        assert!(c.violation(&values(1.0, 90.0)).is_infinite());
    }

    #[test]
    fn linear_rank_minimize_time() {
        let r = Rank::minimize(Metric::exec_time());
        let fast = r.value(&values(0.5, 120.0)).unwrap();
        let slow = r.value(&values(1.5, 60.0)).unwrap();
        assert!(r.better(fast, slow));
    }

    #[test]
    fn thr_per_watt2_prefers_efficient_point() {
        let r = Rank::throughput_per_watt2();
        // Config A: thr 10, power 100 -> 10/10000 = 1e-3
        // Config B: thr 5, power 60  -> 5/3600  = 1.39e-3 (wins)
        let a = r.value(&values(0.1, 100.0)).unwrap();
        let b = r.value(&values(0.2, 60.0)).unwrap();
        assert!(r.better(b, a), "a={a} b={b}");
    }

    #[test]
    fn geometric_rank_rejects_nonpositive_bases() {
        let r = Rank::throughput_per_watt2();
        let mut v = values(1.0, 100.0);
        v.insert(Metric::power(), 0.0);
        assert_eq!(r.value(&v), None);
    }

    #[test]
    fn rank_missing_field_is_none() {
        let r = Rank::maximize(Metric::energy());
        assert_eq!(r.value(&values(1.0, 50.0)), None);
    }

    #[test]
    fn display_forms() {
        let c = Constraint::new(Metric::power(), Cmp::LessOrEqual, 100.0, 20);
        assert_eq!(c.to_string(), "power_w <= 100 (prio 20)");
    }
}
