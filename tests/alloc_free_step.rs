//! The lockstep MAPE-K step allocates nothing in steady state.
//!
//! A counting global allocator tallies, per thread, every allocation
//! and reallocation. A lockstep fleet of 8 2mm instances runs on a
//! platform 1.6× hotter than the one its knowledge was profiled on,
//! with an observer registered, in 1-virtual-second `run_until` slices.
//! Over those calls (boot excluded) the fleet must average fewer than
//! one allocation per step. Knob configurations carry their flags
//! inline, each dispatched configuration's expectation is memoised, the
//! manager and the pool caches are refreshed in place, and the round
//! keeps its buffers. What is left are the sweep's first expectations,
//! the trace's amortised growth and the first-round setup.

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{Fleet, FleetConfig, FleetEvent, FleetRuntime, Toolchain};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract. The counter is a
// const-initialised thread-local `Cell` without a destructor, so
// counting neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Virtual seconds the fleet runs, in 1-s slices.
const HORIZON_S: u32 = 300;

#[test]
fn a_lockstep_step_allocates_less_than_once_on_average() {
    let enhanced = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("2mm enhances");
    let base = enhanced.platform.hotter(1.6).machine(11);
    let mut fleet = Fleet::new(FleetConfig::builder().build().expect("defaults are valid"))
        .expect("a lockstep config");
    fleet.spawn_on(&enhanced, &Rank::throughput_per_watt2(), &base, 8);
    let steps = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&steps);
    fleet.observe(Box::new(move |event: &FleetEvent| {
        if let FleetEvent::Stepped { .. } = event {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    }));

    let mut allocated = 0;
    for t in 1..=HORIZON_S {
        let before = allocations();
        fleet.run_until(f64::from(t));
        allocated += allocations() - before;
    }
    let steps = steps.load(Ordering::Relaxed);
    assert_eq!(fleet.failed_instances(), 0);
    assert!(
        steps > 10_000,
        "only {steps} steps in {HORIZON_S} virtual s"
    );
    let per_step = allocated as f64 / steps as f64;
    assert!(
        per_step < 1.0,
        "{allocated} allocations in {steps} steps: {per_step:.3} per step"
    );
}
