//! Pipeline/monolith equivalence: the staged, shared-corpus batch path
//! must be **bit-identical** to the serial per-app path.
//!
//! These tests pin the ISSUE 2 acceptance criteria:
//!
//! - `enhance_all` over all 12 Polybench apps equals per-app `enhance`
//!   output (flags, knowledge, weaved AST — the whole `EnhancedApp`)
//!   for a fixed seed. CI re-runs this file under forced
//!   `RAYON_NUM_THREADS` values, so the identity holds at any thread
//!   count.
//! - The shared store performs COBAYN corpus construction (parse +
//!   features + iterative compilation per app) exactly **once** per
//!   `(app, dataset, config)` instead of once per target.
//! - A warm store answers repeated enhancements purely from cache, and
//!   a cold store over a persistence directory reloads knowledge
//!   instead of re-profiling, with identical results.

use polybench::{App, Dataset};
use socrates::{ArtifactStore, Toolchain};

/// FNV-1a over every metric of every point, by name and `to_bits`, in
/// point order, across the apps in batch order.
fn knowledge_hash(batch: &[socrates::EnhancedApp]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for e in batch {
        for p in e.knowledge.points() {
            for (metric, value) in p.metrics.iter() {
                write(metric.as_str().as_bytes());
                write(&value.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The 12-app batch's design knowledge, pinned: Large dataset, seed 11,
/// 3 DSE repetitions, every metric of all 6,144 points by its bits.
#[test]
fn batch_knowledge_matches_the_pinned_hash() {
    let toolchain = Toolchain {
        seed: 11,
        dataset: Dataset::Large,
        dse_repetitions: 3,
        ..Toolchain::default()
    };
    let batch = toolchain.enhance_all(&App::ALL).expect("batch enhance");
    let points: usize = batch.iter().map(|e| e.knowledge.len()).sum();
    assert_eq!(points, 12 * 512);
    let got = knowledge_hash(&batch);
    assert_eq!(got, 0x7956_47c4_0e52_543b, "batch hash {got:#018x}");
}

fn quick() -> Toolchain {
    Toolchain {
        dataset: Dataset::Small,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
}

#[test]
fn enhance_all_is_bit_identical_to_per_app_enhance() {
    let toolchain = quick();
    let batch = toolchain.enhance_all(&App::ALL).expect("batch enhance");
    assert_eq!(batch.len(), App::ALL.len());
    for (batched, app) in batch.iter().zip(App::ALL) {
        let serial = toolchain.enhance(app).expect("serial enhance");
        // Whole-struct equality: flags, knowledge, weaved AST, metrics,
        // versions, features, profile, platform — everything.
        assert_eq!(*batched, serial, "{app}: batch != serial");
    }
}

#[test]
fn batch_preserves_input_order_and_handles_subsets() {
    let toolchain = quick();
    let subset = [App::Mvt, App::TwoMm, App::Syrk];
    let batch = toolchain.enhance_all(&subset).expect("subset enhance");
    let apps: Vec<App> = batch.iter().map(|e| e.app).collect();
    assert_eq!(apps, subset);
    // Leave-one-out semantics do not depend on batch membership: the
    // subset results equal the full-suite results for the same apps.
    let full = toolchain.enhance_all(&App::ALL).expect("full enhance");
    for e in &batch {
        let same = full.iter().find(|f| f.app == e.app).expect("in full run");
        assert_eq!(e, same);
    }
}

#[test]
fn duplicate_targets_are_computed_once_and_reexpanded() {
    let toolchain = quick();
    let store = ArtifactStore::new();
    let batch = toolchain
        .enhance_all_with_store(&[App::Atax, App::Atax, App::Atax], &store)
        .expect("duplicate batch");
    assert_eq!(batch.len(), 3);
    assert_eq!(batch[0], batch[1]);
    assert_eq!(batch[1], batch[2]);
    let stats = store.stats();
    // The per-target artifacts were built once, not three times, and a
    // single-target batch only warms the 11 sibling corpus entries.
    assert_eq!(stats.model_builds, 1, "{stats:?}");
    assert_eq!(stats.knowledge_builds, 1, "{stats:?}");
    assert_eq!(
        stats.corpus_builds,
        (App::ALL.len() - 1) as u64,
        "{stats:?}"
    );
}

#[test]
fn shared_corpus_is_built_exactly_once_per_app() {
    let toolchain = quick();
    let store = ArtifactStore::new();
    toolchain
        .enhance_all_with_store(&App::ALL, &store)
        .expect("batch enhance");
    let stats = store.stats();
    let n = App::ALL.len() as u64;
    // O(n), not O(n²): every shared artifact is computed once per app.
    assert_eq!(stats.parse_builds, n, "{stats:?}");
    assert_eq!(stats.feature_builds, n, "{stats:?}");
    assert_eq!(stats.corpus_builds, n, "{stats:?}");
    // Per-target artifacts: one leave-one-out model, one prediction,
    // one weave, one DSE per target.
    assert_eq!(stats.model_builds, n, "{stats:?}");
    assert_eq!(stats.prediction_builds, n, "{stats:?}");
    assert_eq!(stats.weave_builds, n, "{stats:?}");
    assert_eq!(stats.knowledge_builds, n, "{stats:?}");
}

#[test]
fn warm_store_rerun_is_a_pure_cache_walk() {
    let toolchain = quick();
    let store = ArtifactStore::new();
    let first = toolchain
        .enhance_with_store(App::Gemver, &store)
        .expect("cold run");
    let builds = store.stats().total_builds();
    let second = toolchain
        .enhance_with_store(App::Gemver, &store)
        .expect("warm run");
    assert_eq!(first, second);
    assert_eq!(
        store.stats().total_builds(),
        builds,
        "warm rerun must not rebuild anything: {:?}",
        store.stats()
    );
}

#[test]
fn cold_store_with_persistence_matches_in_memory_cache_hit() {
    let toolchain = quick();
    let dir = std::env::temp_dir().join(format!(
        "socrates-pipeline-equivalence-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm run: profiles the DSE and persists the knowledge as JSON.
    let warm = ArtifactStore::with_persist_dir(&dir);
    let fresh = toolchain
        .enhance_with_store(App::Doitgen, &warm)
        .expect("fresh enhance");
    assert_eq!(warm.stats().knowledge_builds, 1);

    // In-memory cache hit on the same store.
    let hit = toolchain
        .enhance_with_store(App::Doitgen, &warm)
        .expect("cache hit");
    assert_eq!(fresh, hit);

    // Cold store over the same directory: knowledge is reloaded from
    // the persisted artifact, not re-profiled, and the result is
    // identical to both the fresh run and the cache hit.
    let cold = ArtifactStore::with_persist_dir(&dir);
    let reloaded = toolchain
        .enhance_with_store(App::Doitgen, &cold)
        .expect("cold enhance");
    assert_eq!(cold.stats().knowledge_builds, 0, "{:?}", cold.stats());
    assert_eq!(cold.stats().knowledge_loads, 1, "{:?}", cold.stats());
    assert_eq!(fresh, reloaded);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_changes_invalidate_the_cache() {
    let base = quick();
    let store = ArtifactStore::new();
    let a = base.enhance_with_store(App::Atax, &store).unwrap();
    let other = Toolchain {
        seed: base.seed + 1,
        ..quick()
    };
    let b = other.enhance_with_store(App::Atax, &store).unwrap();
    // Different config fingerprints never collide in the store; the
    // noisy DSE knowledge must differ across seeds.
    assert_ne!(a.knowledge, b.knowledge);
    assert_eq!(store.stats().knowledge_builds, 2);
}
