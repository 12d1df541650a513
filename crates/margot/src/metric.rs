//! Extra-functional property (EFP) metrics and per-point metric values.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The name of an extra-functional property (execution time, power, …).
///
/// Metrics are ordered and hashable so they can key maps; well-known
/// metrics are provided as constants. The name is a shared, interned
/// `Arc<str>`, so cloning a metric — which the knowledge hot path does
/// for every observation — is a reference-count bump, not a heap copy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Metric(Arc<str>);

/// Returns the shared interned name for one well-known metric.
macro_rules! interned {
    ($name:literal) => {{
        static CACHE: OnceLock<Arc<str>> = OnceLock::new();
        Metric(Arc::clone(CACHE.get_or_init(|| Arc::from($name))))
    }};
}

impl Metric {
    /// Kernel wall-clock time in seconds.
    pub fn exec_time() -> Metric {
        interned!("exec_time_s")
    }

    /// Average machine power in watts.
    pub fn power() -> Metric {
        interned!("power_w")
    }

    /// Kernel invocations per second.
    pub fn throughput() -> Metric {
        interned!("throughput")
    }

    /// Energy per invocation in joules.
    pub fn energy() -> Metric {
        interned!("energy_j")
    }

    /// A custom metric. Well-known names are interned to their shared
    /// allocation so decoded wire messages alias the same storage.
    pub fn custom(name: impl AsRef<str>) -> Metric {
        match name.as_ref() {
            "exec_time_s" => Metric::exec_time(),
            "power_w" => Metric::power(),
            "throughput" => Metric::throughput(),
            "energy_j" => Metric::energy(),
            other => Metric(Arc::from(other)),
        }
    }

    /// The metric name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Equality with an interned-pointer fast path: well-known metrics
    /// (and decoded copies of them) share one allocation, so the common
    /// case is a pointer compare instead of a string compare.
    #[inline]
    pub(crate) fn same(&self, other: &Metric) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Metric {
    fn from(s: &str) -> Self {
        Metric::custom(s)
    }
}

impl Serialize for Metric {
    fn to_value(&self) -> Value {
        // Same wire shape as the former transparent newtype: a plain
        // string (also usable as a map key).
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Metric {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Interning happens on the way in.
        match v {
            Value::Str(s) => Ok(Metric::custom(s)),
            other => Err(serde::Error::expected("metric name string", other)),
        }
    }
}

/// A bundle of metric values, e.g. the expected EFPs of one operating
/// point or one observation of the running application.
///
/// Stored as a vector of `(metric, value)` pairs sorted by metric name
/// — dense, cache-friendly and cheap to clone, while iteration order
/// and the serialised map shape stay identical to the former
/// `BTreeMap` representation.
#[derive(Debug, PartialEq, Default)]
pub struct MetricValues(Vec<(Metric, f64)>);

/// `clone_from` reuses the target's storage.
impl Clone for MetricValues {
    fn clone(&self) -> Self {
        MetricValues(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl MetricValues {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard four-EFP observation bundle of one kernel
    /// execution: the measured time and power plus the derived
    /// throughput and energy — the single definition shared by the
    /// MAPE-K monitors and the fleet's knowledge publishes.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is not strictly positive or `power_w` is not
    /// finite.
    pub fn from_execution(time_s: f64, power_w: f64) -> MetricValues {
        MetricValues(Vec::from(Self::execution_pairs(time_s, power_w)))
    }

    /// Overwrites this bundle with [`from_execution`](Self::from_execution)'s,
    /// reusing its storage.
    ///
    /// # Panics
    ///
    /// As [`from_execution`](Self::from_execution).
    pub fn set_execution(&mut self, time_s: f64, power_w: f64) {
        let pairs = Self::execution_pairs(time_s, power_w);
        self.0.clear();
        self.0.extend(pairs);
    }

    /// [`from_execution`](Self::from_execution)'s pairs in metric
    /// order, checked as its four inserts check them, in the same
    /// order and with the same messages.
    pub(crate) fn execution_pairs(time_s: f64, power_w: f64) -> [(Metric, f64); 4] {
        assert!(time_s > 0.0, "non-positive execution time {time_s}");
        let [exec_time, power, throughput, energy] = [
            (Metric::exec_time(), time_s),
            (Metric::power(), power_w),
            (Metric::throughput(), 1.0 / time_s),
            (Metric::energy(), time_s * power_w),
        ];
        for (metric, value) in [&exec_time, &power, &throughput, &energy] {
            assert!(
                value.is_finite(),
                "metric {metric} = {value} must be finite"
            );
        }
        [energy, exec_time, power, throughput]
    }

    /// Builds a bundle from possibly non-finite pairs — the wire
    /// ingress path (the serde and binary decoders), which performs
    /// **no** finiteness validation. Non-finite values are tolerated
    /// here and dropped-and-counted downstream when they reach a
    /// sliding window ([`crate::Monitor::push`] /
    /// [`crate::SharedKnowledge::publish`]), mirroring the monitor's
    /// documented policy. Duplicate metrics keep the last value.
    ///
    /// Pairs already strictly in metric order (what every encoder
    /// writes) are taken as they are, so a `Vec` input is the bundle's
    /// storage; anything else is sorted in one insert at a time.
    pub fn from_unvalidated(pairs: impl IntoIterator<Item = (Metric, f64)>) -> MetricValues {
        let pairs: Vec<(Metric, f64)> = pairs.into_iter().collect();
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return MetricValues(pairs);
        }
        let mut mv = MetricValues(Vec::with_capacity(pairs.len()));
        for (m, v) in pairs {
            mv.insert_unchecked(m, v);
        }
        mv
    }

    /// Builder-style insertion.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — metric values come from
    /// measurements or models and must be real numbers.
    pub fn with(mut self, metric: Metric, value: f64) -> Self {
        self.insert(metric, value);
        self
    }

    /// Inserts or replaces a value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn insert(&mut self, metric: Metric, value: f64) {
        assert!(
            value.is_finite(),
            "metric {metric} = {value} must be finite"
        );
        self.insert_unchecked(metric, value);
    }

    /// Sorted insert-or-replace without the finiteness guard.
    fn insert_unchecked(&mut self, metric: Metric, value: f64) {
        match self.0.binary_search_by(|(m, _)| m.cmp(&metric)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (metric, value)),
        }
    }

    /// Looks up a value. Bundles are small (typically four EFPs), so a
    /// linear scan through the interned-pointer equality fast path
    /// beats a binary search of string compares.
    pub fn get(&self, metric: &Metric) -> Option<f64> {
        self.0.iter().find(|(m, _)| m.same(metric)).map(|(_, v)| *v)
    }

    /// Iterates over `(metric, value)` pairs in metric order.
    pub fn iter(&self) -> impl Iterator<Item = (&Metric, f64)> {
        self.0.iter().map(|(k, v)| (k, *v))
    }

    /// Number of metrics present.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no metrics are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<(Metric, f64)> for MetricValues {
    fn from_iter<T: IntoIterator<Item = (Metric, f64)>>(iter: T) -> Self {
        let mut mv = MetricValues::new();
        for (m, v) in iter {
            mv.insert(m, v);
        }
        mv
    }
}

impl Serialize for MetricValues {
    fn to_value(&self) -> Value {
        // Same wire shape as the former BTreeMap: a map in metric
        // order (the vector is kept sorted).
        Value::Object(
            self.0
                .iter()
                .map(|(m, v)| (m.as_str().to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for MetricValues {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // The ingress path performs no finiteness validation (see
        // `from_unvalidated`); duplicate keys keep the last value.
        match v {
            Value::Object(entries) => {
                let mut mv = MetricValues::new();
                for (k, val) in entries {
                    mv.insert_unchecked(Metric::custom(k), f64::from_value(val)?);
                }
                Ok(mv)
            }
            other => Err(serde::Error::expected("metric value map", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_metrics_have_stable_names() {
        assert_eq!(Metric::exec_time().as_str(), "exec_time_s");
        assert_eq!(Metric::power().as_str(), "power_w");
        assert_eq!(Metric::throughput().as_str(), "throughput");
        assert_eq!(Metric::energy().as_str(), "energy_j");
    }

    #[test]
    fn well_known_names_are_interned() {
        assert!(Arc::ptr_eq(
            &Metric::power().0,
            &Metric::custom("power_w").0
        ));
        assert_eq!(Metric::custom("cache_misses").as_str(), "cache_misses");
    }

    #[test]
    fn values_roundtrip() {
        let mv = MetricValues::new()
            .with(Metric::power(), 95.0)
            .with(Metric::exec_time(), 0.120);
        assert_eq!(mv.get(&Metric::power()), Some(95.0));
        assert_eq!(mv.get(&Metric::throughput()), None);
        assert_eq!(mv.len(), 2);
    }

    #[test]
    fn insert_replaces() {
        let mut mv = MetricValues::new();
        mv.insert(Metric::power(), 90.0);
        mv.insert(Metric::power(), 100.0);
        assert_eq!(mv.get(&Metric::power()), Some(100.0));
        assert_eq!(mv.len(), 1);
    }

    #[test]
    fn iteration_is_in_metric_order() {
        let mv = MetricValues::new()
            .with(Metric::throughput(), 8.0)
            .with(Metric::energy(), 9.5)
            .with(Metric::exec_time(), 0.125);
        let names: Vec<&str> = mv.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(names, vec!["energy_j", "exec_time_s", "throughput"]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_values_rejected() {
        let _ = MetricValues::new().with(Metric::power(), f64::NAN);
    }

    #[test]
    fn unvalidated_ingress_tolerates_non_finite_values() {
        let mv = MetricValues::from_unvalidated([
            (Metric::power(), f64::NAN),
            (Metric::exec_time(), 0.5),
            (Metric::exec_time(), 0.25), // duplicate: last wins
        ]);
        assert_eq!(mv.len(), 2);
        assert!(mv.get(&Metric::power()).expect("present").is_nan());
        assert_eq!(mv.get(&Metric::exec_time()), Some(0.25));
    }

    proptest::proptest! {
        /// Any pairs — sorted, unsorted, with repeated names — build
        /// the bundle one sorted insert at a time would, the last value
        /// of a repeated name winning.
        #[test]
        fn from_unvalidated_equals_the_insert_loop(
            pairs in proptest::collection::vec(
                (proptest::sample::select(vec!["a", "b", "c", "d", "power_w"]), -4i8..4),
                0..8,
            ),
        ) {
            let pairs: Vec<(Metric, f64)> = pairs
                .into_iter()
                .map(|(name, v)| (Metric::custom(name), f64::from(v)))
                .collect();
            let mut expected = MetricValues::new();
            for (m, v) in pairs.clone() {
                expected.insert_unchecked(m, v);
            }
            let mut sorted = pairs.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            sorted.dedup_by(|later, earlier| {
                // Keep the last value of each name, as inserts would.
                let same = later.0 == earlier.0;
                if same {
                    earlier.1 = later.1;
                }
                same
            });
            proptest::prop_assert_eq!(&MetricValues::from_unvalidated(pairs), &expected);
            proptest::prop_assert_eq!(&MetricValues::from_unvalidated(sorted), &expected);
        }
    }

    #[test]
    fn serde_shape_matches_a_plain_json_map() {
        let mv = MetricValues::new()
            .with(Metric::power(), 95.0)
            .with(Metric::exec_time(), 0.125);
        let json = serde_json::to_string(&mv).expect("serialises");
        assert_eq!(json, r#"{"exec_time_s":0.125,"power_w":95.0}"#);
        let back: MetricValues = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, mv);
    }

    #[test]
    fn execution_bundles_match_the_insert_chain() {
        for (time_s, power_w) in [(0.125, 95.0), (3.0, 0.0), (1e-3, 210.5)] {
            let chain = MetricValues::new()
                .with(Metric::exec_time(), time_s)
                .with(Metric::power(), power_w)
                .with(Metric::throughput(), 1.0 / time_s)
                .with(Metric::energy(), time_s * power_w);
            assert_eq!(MetricValues::from_execution(time_s, power_w), chain);
            let mut reused = MetricValues::new().with(Metric::custom("other"), 1.0);
            reused.set_execution(time_s, power_w);
            assert_eq!(reused, chain);
        }
    }

    #[test]
    #[should_panic(expected = "metric power_w = NaN must be finite")]
    fn execution_bundles_reject_non_finite_power() {
        let _ = MetricValues::from_execution(0.5, f64::NAN);
    }

    #[test]
    fn from_iterator_collects() {
        let mv: MetricValues = [(Metric::power(), 80.0), (Metric::energy(), 9.5)]
            .into_iter()
            .collect();
        assert_eq!(mv.len(), 2);
    }
}
