//! Named optimisation states — mARGOt's mechanism for switching whole
//! requirement sets (rank + constraints) at runtime.
//!
//! The paper's Fig. 5 alternates between an *energy* state (maximize
//! Thr/W²) and a *performance* state (maximize Throughput). Instead of
//! mutating rank/constraints piecemeal, an application can register each
//! requirement set once and switch atomically by name.

use crate::metric::Metric;
use crate::requirements::{Constraint, Rank};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One named requirement set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationState {
    /// The rank to optimise while in this state.
    pub rank: Rank,
    /// The constraints carving this state's feasible region.
    pub constraints: Vec<Constraint>,
}

impl OptimizationState {
    /// Creates a state with no constraints.
    pub fn new(rank: Rank) -> Self {
        OptimizationState {
            rank,
            constraints: Vec::new(),
        }
    }

    /// Builder-style: adds a constraint.
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }
}

/// Error switching to an unknown state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStateError(pub String);

impl fmt::Display for UnknownStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown optimization state `{}`", self.0)
    }
}

impl std::error::Error for UnknownStateError {}

/// A registry of named optimisation states with one active at a time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StateRegistry {
    states: BTreeMap<String, OptimizationState>,
    active: String,
}

impl StateRegistry {
    /// Creates a registry with an initial (active) state.
    pub fn new(name: impl Into<String>, state: OptimizationState) -> Self {
        let name = name.into();
        let mut states = BTreeMap::new();
        states.insert(name.clone(), state);
        StateRegistry {
            states,
            active: name,
        }
    }

    /// Registers (or replaces) a state.
    pub fn register(&mut self, name: impl Into<String>, state: OptimizationState) {
        self.states.insert(name.into(), state);
    }

    /// The active state's name.
    pub fn active_name(&self) -> &str {
        &self.active
    }

    /// The active state.
    #[expect(
        clippy::expect_used,
        reason = "`active` always names a registered state: the constructor registers it, \
                  `switch_to` only accepts registered names, states are never removed, and \
                  decoding rejects a registry whose active state is missing"
    )]
    pub fn active(&self) -> &OptimizationState {
        self.states.get(&self.active).expect("active state exists")
    }

    /// Switches the active state by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownStateError`] if no state with that name exists;
    /// the previously active state stays in force.
    pub fn switch_to(&mut self, name: &str) -> Result<&OptimizationState, UnknownStateError> {
        if !self.states.contains_key(name) {
            return Err(UnknownStateError(name.to_string()));
        }
        self.active = name.to_string();
        Ok(self.active())
    }

    /// Iterates over `(name, state)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &OptimizationState)> {
        self.states.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always at least one state (the constructor requires it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The paper's Fig. 5 pair: an `energy` state (maximize Thr/W²) and
    /// a `performance` state (maximize Throughput), `energy` active.
    pub fn figure5() -> StateRegistry {
        let mut reg = StateRegistry::new(
            "energy",
            OptimizationState::new(Rank::throughput_per_watt2()),
        );
        reg.register(
            "performance",
            OptimizationState::new(Rank::maximize(Metric::throughput())),
        );
        reg
    }
}

// Hand-written so that a decoded registry cannot name an active state
// it does not hold, while keeping the derived
// `{"states":{..},"active":".."}` shape.
impl Deserialize for StateRegistry {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if v.as_object().is_none() {
            return Err(serde::Error::expected("state registry object", v));
        }
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))
        };
        let states = BTreeMap::<String, OptimizationState>::from_value(field("states")?)?;
        let active = String::from_value(field("active")?)?;
        if !states.contains_key(&active) {
            return Err(serde::Error::custom(format!(
                "active state `{active}` is not a registered state"
            )));
        }
        Ok(StateRegistry { states, active })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::Cmp;

    #[test]
    fn registry_starts_with_active_state() {
        let reg = StateRegistry::new(
            "base",
            OptimizationState::new(Rank::minimize(Metric::exec_time())),
        );
        assert_eq!(reg.active_name(), "base");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn switch_to_known_state_changes_active() {
        let mut reg = StateRegistry::figure5();
        assert_eq!(reg.active_name(), "energy");
        let s = reg.switch_to("performance").unwrap();
        assert_eq!(s.rank, Rank::maximize(Metric::throughput()));
        assert_eq!(reg.active_name(), "performance");
    }

    #[test]
    fn switch_to_unknown_state_is_an_error_and_keeps_active() {
        let mut reg = StateRegistry::figure5();
        let err = reg.switch_to("turbo").unwrap_err();
        assert_eq!(err.0, "turbo");
        assert_eq!(reg.active_name(), "energy");
    }

    #[test]
    fn register_replaces_existing() {
        let mut reg = StateRegistry::figure5();
        reg.register(
            "energy",
            OptimizationState::new(Rank::minimize(Metric::energy()))
                .with_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 90.0, 5)),
        );
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.active().constraints.len(), 1);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let reg = StateRegistry::figure5();
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["energy", "performance"]);
    }

    #[test]
    fn states_serialize_roundtrip() {
        let reg = StateRegistry::figure5();
        let json = serde_json::to_string(&reg).unwrap();
        let back: StateRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(reg, back);
    }

    #[test]
    fn decoding_rejects_an_unregistered_active_state() {
        // Regression: this used to decode, and `active()` then panicked.
        let err = serde_json::from_str::<StateRegistry>(r#"{"states":{},"active":"x"}"#)
            .expect_err("the active state is not registered");
        assert!(err.to_string().contains("`x`"), "{err}");
        let json = serde_json::to_string(&StateRegistry::figure5()).unwrap();
        let renamed = json.replace(r#""active":"energy""#, r#""active":"turbo""#);
        assert_ne!(renamed, json);
        assert!(serde_json::from_str::<StateRegistry>(&renamed).is_err());
    }
}
