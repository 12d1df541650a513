//! The unified fleet-runtime surface: one stepping API
//! ([`FleetRuntime`]) over the lockstep, event-driven and distributed
//! runtimes, plus the event stream ([`FleetEvent`]) their observers
//! consume.
//!
//! Everything is keyed to the **virtual clock**: `run_until(t)`
//! advances a runtime to virtual time `t`, `run_events(n)` processes a
//! bounded number of scheduler events, and registered observers see
//! every arrival, step, publish and retirement as it happens. The
//! lockstep runtimes implement the surface on top of their round
//! semantics — one synchronized round is one scheduler event — while
//! [`crate::EventFleet`] implements it natively on a discrete-event
//! heap.

use std::fmt;

/// A never-reused instance handle: a slot in the runtime's sparse pool
/// plus the slot's reuse generation. Retiring an instance frees its
/// slot for later joiners (memory stays bounded by the *peak* live
/// count under churn), but the freed slot re-enters at the next
/// generation, so a stale handle can never alias a successor — the id
/// stability audit of the historical dense-index runtimes, where
/// `retire_instance` + `add_instance` silently reused indices.
///
/// The dense lockstep runtimes mint their ids at generation 0 (they
/// never reuse an index), so one handle type serves every
/// [`FleetRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(u64);

impl InstanceId {
    /// Packs a (slot, generation) pair.
    pub(crate) fn new(slot: u32, generation: u32) -> Self {
        InstanceId(u64::from(generation) << 32 | u64::from(slot))
    }

    /// The pool slot this handle points at.
    pub fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    /// The slot's reuse generation when this handle was minted.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The packed representation — unique across the runtime's whole
    /// lifetime, never reused.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}v{}", self.slot(), self.generation())
    }
}

/// One scheduler event, as delivered to registered observers
/// ([`FleetRuntime::observe`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// An instance joined the fleet.
    Arrived {
        /// The joiner's handle.
        id: InstanceId,
        /// Virtual arrival time, seconds.
        t_s: f64,
    },
    /// An instance left the fleet (orderly retirement — panics surface
    /// through the runtime's stats instead).
    Retired {
        /// The leaver's handle.
        id: InstanceId,
        /// Virtual retirement time, seconds.
        t_s: f64,
    },
    /// An instance executed one kernel invocation.
    Stepped {
        /// The stepping instance.
        id: InstanceId,
        /// Virtual start time of the invocation, seconds.
        t_start_s: f64,
        /// Observed (noisy) execution time, seconds.
        time_s: f64,
        /// Observed average power, watts.
        power_w: f64,
        /// Whether the configuration was forced (cooperative
        /// exploration or warm-boot validation) rather than planned.
        forced: bool,
    },
    /// An instance's observation was merged into the shared knowledge.
    Published {
        /// The publishing instance.
        id: InstanceId,
        /// Virtual publish time, seconds.
        t_s: f64,
        /// The pool's knowledge epoch after the merge. Lockstep
        /// runtimes publish a whole round as one batch, so every
        /// publisher of a round reports the same post-batch epoch.
        epoch: u64,
    },
}

impl FleetEvent {
    /// The instance the event concerns.
    pub fn id(&self) -> InstanceId {
        match *self {
            FleetEvent::Arrived { id, .. }
            | FleetEvent::Retired { id, .. }
            | FleetEvent::Stepped { id, .. }
            | FleetEvent::Published { id, .. } => id,
        }
    }

    /// The event's virtual time, seconds (for [`FleetEvent::Stepped`],
    /// the invocation's start time).
    pub fn t_s(&self) -> f64 {
        match *self {
            FleetEvent::Arrived { t_s, .. }
            | FleetEvent::Retired { t_s, .. }
            | FleetEvent::Published { t_s, .. }
            | FleetEvent::Stepped { t_start_s: t_s, .. } => t_s,
        }
    }
}

/// A registered event-stream observer. Observers are pure consumers:
/// they run sequentially, in registration order, on the runtime's
/// control thread, and cannot influence scheduling — the event
/// sequence (and all learned state) is bit-identical with or without
/// them.
pub type EventObserver = Box<dyn FnMut(&FleetEvent) + Send>;

/// The unified stepping surface over every fleet runtime: in-process
/// lockstep ([`crate::Fleet`]), in-process event-driven
/// ([`crate::EventFleet`]) and distributed lockstep
/// ([`crate::DistributedFleet`]).
///
/// Time is the **virtual clock**, not rounds: `run_until(t)` advances
/// the runtime until every schedulable instance has reached virtual
/// time `t`, however many scheduler events that takes. For the
/// lockstep implementors one scheduler event is one synchronized round;
/// for the event-driven runtime it is
/// one heap event (a step, an arrival or a retirement).
pub trait FleetRuntime {
    /// Advances the runtime until no schedulable instance's virtual
    /// clock is below `t_s` (absolute virtual time, seconds). Returns
    /// the number of scheduler events processed.
    fn run_until(&mut self, t_s: f64) -> u64;

    /// Processes at most `n` scheduler events (stopping early when
    /// nothing is schedulable); returns the number processed.
    fn run_events(&mut self, n: u64) -> u64;

    /// Registers an event-stream observer. Observers run sequentially
    /// in registration order and never affect scheduling or learned
    /// state.
    fn observe(&mut self, observer: EventObserver);

    /// The runtime's virtual clock, seconds: the latest virtual time
    /// the scheduler has reached (0 before anything ran).
    fn virtual_now_s(&self) -> f64;

    /// Number of instances currently schedulable.
    fn active_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_ids_pack_slot_and_generation() {
        let id = InstanceId::new(7, 3);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 3);
        assert_eq!(id.to_string(), "7v3");
        // Same slot, later generation: a different handle.
        assert_ne!(id, InstanceId::new(7, 4));
        assert_ne!(id.raw(), InstanceId::new(7, 4).raw());
        // Full range round-trips.
        let max = InstanceId::new(u32::MAX, u32::MAX);
        assert_eq!(max.slot(), u32::MAX);
        assert_eq!(max.generation(), u32::MAX);
    }

    #[test]
    fn events_report_their_instance_and_time() {
        let id = InstanceId::new(1, 0);
        let stepped = FleetEvent::Stepped {
            id,
            t_start_s: 2.5,
            time_s: 0.5,
            power_w: 90.0,
            forced: false,
        };
        assert_eq!(stepped.id(), id);
        assert_eq!(stepped.t_s(), 2.5);
        let retired = FleetEvent::Retired { id, t_s: 4.0 };
        assert_eq!(retired.t_s(), 4.0);
    }
}
