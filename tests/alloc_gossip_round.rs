//! A lossy gossip round allocates at most half of what it did when
//! replicas copied what they logged and forwarded.
//!
//! A counting global allocator tallies, per thread, every allocation
//! and reallocation. An 8-node gossip fleet of 2mm (fanout 2) runs over
//! a link that drops 30% of the messages, duplicates 10% and delays
//! them by 0 to 2 ticks, with an observer registered, in 1-virtual-second
//! `run_until` slices from 2 to 6 virtual s. Each replica keeps every
//! observation once in an append-only arena that its log, points,
//! origins and outbox address by slot; each frame is written once from
//! those references and shared by every target and duplicate copy; and
//! saved fold states reuse their buffers. What is left is decoding (one
//! metric bundle per fresh observation), one shared buffer per frame,
//! the ordered maps' nodes, the summaries and the adoption deltas.

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{
    DistTopology, DistributedConfig, DistributedFleet, FleetConfig, FleetEvent, FleetRuntime,
    LinkConfig, Toolchain,
};
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

/// Heap allocations per invocation this test counts when every replica
/// cloned the observations it logged and forwarded and every frame was
/// encoded once per target: 106,611 in 1,450 invocations.
const COPYING_PER_INVOCATION: f64 = 73.5;

#[test]
fn a_gossip_invocation_allocates_at_most_half_of_the_copying_exchange() {
    let enhanced = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("2mm enhances");
    let dist = DistributedConfig {
        topology: DistTopology::Gossip { fanout: 2 },
        link: LinkConfig {
            seed: 5,
            min_latency: 0,
            max_latency: 2,
            drop_prob: 0.3,
            dup_prob: 0.1,
        },
        ..DistributedConfig::default()
    };
    let config = FleetConfig::builder()
        .exploration_interval(0)
        .distributed(Some(dist))
        .expect("a gossip deployment")
        .build()
        .expect("a valid config");
    let mut fleet = DistributedFleet::new(config, &enhanced).expect("a distributed config");
    fleet.spawn(&Rank::throughput_per_watt2(), 5, 8);
    let steps = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&steps);
    fleet.observe(Box::new(move |event: &FleetEvent| {
        if let FleetEvent::Stepped { .. } = event {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    }));

    // The first 2 virtual s fill the logs, the rings and the buffers.
    fleet.run_until(2.0);
    let warm = steps.load(Ordering::Relaxed);
    let mut allocated = 0;
    for t in 3..=6 {
        let before = allocations();
        fleet.run_until(f64::from(t));
        allocated += allocations() - before;
    }
    let invocations = steps.load(Ordering::Relaxed) - warm;
    assert!(
        invocations > 1_000,
        "only {invocations} invocations in 4 virtual s"
    );
    let per_invocation = allocated as f64 / invocations as f64;
    assert!(
        per_invocation <= COPYING_PER_INVOCATION / 2.0,
        "{allocated} allocations in {invocations} invocations: {per_invocation:.1} per \
         invocation, more than half of {COPYING_PER_INVOCATION}"
    );
}
