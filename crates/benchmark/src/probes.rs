//! The traced run's per-layer replay probes.
//!
//! After the timed phase, the run's own inputs are replayed through the
//! leaf layers' public functions, one layer at a time, so each number is
//! that layer's cost alone:
//!
//! - the design-time flow stage by stage on a fresh store, for the
//!   workload's applications (every accessor in dependency order, so a
//!   stage's timing never includes an upstream stage), then the same
//!   applications through the serial and the parallel pipeline;
//! - the runtime layers on the run's final knowledge and a seeded stream
//!   of observations executed on the workload's deployment machine.

use crate::sut::{self, App, EnhancedApp, KnobConfig, Knowledge, Machine, Toolchain};
use crate::trace::Tracer;
use crate::workloads::{timed, Result, Size};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What the probes replay.
pub struct ProbeInputs {
    /// The workload's toolchain.
    pub toolchain: Toolchain,
    /// The applications the workload enhances.
    pub apps: Vec<App>,
    /// The set-up's enhanced 2mm (profile and version table).
    pub twomm: EnhancedApp,
    /// The knowledge the run ended with (learned, or design-time).
    pub knowledge: Knowledge<KnobConfig>,
    /// The workload's deployment machine.
    pub machine: Machine,
    /// The workload seed.
    pub seed: u64,
    /// Probe sizes.
    pub size: Size,
}

/// What the probes measured.
pub struct Probed {
    /// Per-layer metrics: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host seconds per call of each probed operation.
    pub cost_s: BTreeMap<&'static str, f64>,
    /// Serial pipeline wall minus the summed stage probes, percent of
    /// the wall.
    pub stage_gap_pct: f64,
}

/// Host time and call count per probed operation.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, (f64, u64)>);

impl Acc {
    /// Times one call of `key` inside a span of the same name.
    fn call<T>(&mut self, tr: &Tracer, key: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, dt) = timed(tr, key, f);
        self.add(key, dt, 1);
        out
    }

    /// Times a loop of `calls` calls of `key` inside one span.
    fn calls<T>(
        &mut self,
        tr: &Tracer,
        key: &'static str,
        calls: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, dt) = timed(tr, key, f);
        self.add(key, dt, calls as u64);
        out
    }

    fn add(&mut self, key: &'static str, dt: f64, calls: u64) {
        let e = self.0.entry(key).or_default();
        e.0 += dt;
        e.1 += calls;
    }

    fn total_s(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |e| e.0)
    }

    fn per_call_s(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .map_or(0.0, |&(t, n)| if n == 0 { 0.0 } else { t / n as f64 })
    }
}

/// Stages of the serial pipeline, in order (the kernel probe's extra
/// `run` is not one of them).
const STAGES: [&str; 9] = [
    "minic.parse",
    "milepost.features",
    "cobayn.corpus",
    "cobayn.train",
    "cobayn.predict",
    "lara.weave",
    "minivm.kernel",
    "dse.profile",
    "core.assemble",
];

/// Runs every probe and returns the per-layer metrics.
pub fn run(tr: &Tracer, inputs: &mut ProbeInputs) -> Result<Probed> {
    let mut acc = Acc::default();
    let design = tr.span("probe.design", || design(tr, inputs, &mut acc))?;
    let runtime = tr.span("probe.runtime", || runtime(tr, inputs, &mut acc))?;

    let stage_sum: f64 = STAGES.iter().map(|k| acc.total_s(k)).sum();
    let stage_gap_pct = 100.0 * (design.serial_s - stage_sum) / design.serial_s;
    let us = |k: &str| acc.per_call_s(k) * 1e6;
    let ms = |k: &str| acc.per_call_s(k) * 1e3;
    let kernel_us = us("minivm.kernel");
    let run_us = us("minivm.run");
    let metrics = vec![
        ("minic.parse_us", us("minic.parse"), "us"),
        ("milepost.features_us", us("milepost.features"), "us"),
        ("cobayn.corpus_ms", ms("cobayn.corpus"), "ms"),
        ("cobayn.train_ms", ms("cobayn.train"), "ms"),
        ("cobayn.predict_us", us("cobayn.predict"), "us"),
        ("lara.weave_ms", ms("lara.weave"), "ms"),
        ("lara.weaved_loc", design.weaved_loc as f64, "count"),
        ("minivm.kernel_us", kernel_us, "us"),
        ("minivm.run_us", run_us, "us"),
        ("minivm.lower_us", kernel_us - run_us, "us"),
        ("minivm.kernel_builds", design.kernel_builds as f64, "count"),
        ("minivm.kernel_hits", design.kernel_hits as f64, "count"),
        ("dse.profile_ms", ms("dse.profile"), "ms"),
        ("dse.points", design.points as f64, "count"),
        ("core.assemble_us", us("core.assemble"), "us"),
        (
            "core.batch_parallelism",
            design.serial_s / design.parallel_s,
            "x",
        ),
        ("core.stage_gap_pct", stage_gap_pct, "%"),
        ("platform.execute_us", us("platform.execute"), "us"),
        (
            "platform.noise_ns",
            acc.per_call_s("platform.noise") * 1e9,
            "ns",
        ),
        ("margot.best_us", us("margot.best"), "us"),
        ("margot.update_us", us("margot.update"), "us"),
        ("margot.publish_batch_us", us("margot.publish_batch"), "us"),
        ("margot.refresh_us", us("margot.refresh"), "us"),
        ("margot.publish_into_us", us("margot.publish_into"), "us"),
        ("margot.fold_us", us("margot.fold"), "us"),
        (
            "transport.encode_ns_per_byte",
            acc.per_call_s("transport.encode_byte") * 1e9,
            "ns",
        ),
        (
            "transport.decode_ns_per_byte",
            acc.per_call_s("transport.decode_byte") * 1e9,
            "ns",
        ),
        ("transport.frame_bytes", runtime.frame_bytes as f64, "count"),
    ];
    let cost_s = acc.0.keys().map(|&k| (k, acc.per_call_s(k))).collect();
    Ok(Probed {
        metrics,
        cost_s,
        stage_gap_pct,
    })
}

struct DesignOut {
    weaved_loc: usize,
    points: usize,
    kernel_builds: u64,
    kernel_hits: u64,
    serial_s: f64,
    parallel_s: f64,
}

fn design(tr: &Tracer, inp: &ProbeInputs, acc: &mut Acc) -> Result<DesignOut> {
    let tc = &inp.toolchain;
    let apps = &inp.apps;
    let store = sut::ArtifactStore::new();
    // Every application is parsed and featurised: the targets for
    // themselves, their siblings for the leave-one-out corpus.
    for app in App::ALL {
        acc.call(tr, "minic.parse", || sut::parsed(&store, tc, app))?;
    }
    for app in App::ALL {
        acc.call(tr, "milepost.features", || sut::features(&store, tc, app))?;
    }
    for app in App::ALL.into_iter().filter(|a| apps.iter().any(|t| t != a)) {
        acc.call(tr, "cobayn.corpus", || sut::corpus_entry(&store, tc, app))?;
    }
    let mut weaved_loc = 0;
    let mut points = 0;
    for &app in apps {
        acc.call(tr, "cobayn.train", || sut::cobayn_model(&store, tc, app))?;
        acc.call(tr, "cobayn.predict", || sut::predictions(&store, tc, app))?;
        weaved_loc += acc.call(tr, "lara.weave", || sut::weave(&store, tc, app))?;
        for threads in sut::thread_counts(tc) {
            let kernel = acc.call(tr, "minivm.kernel", || {
                sut::compiled_kernel(&store, tc, app, threads)
            })?;
            acc.call(tr, "minivm.run", || sut::run_kernel(&kernel))?;
        }
        points += acc.call(tr, "dse.profile", || sut::profile(&store, tc, app))?;
        acc.call(tr, "core.assemble", || sut::assemble(&store, tc, app))?;
    }
    let (kernel_builds, kernel_hits) = sut::kernel_counts(&store);
    let (serial, serial_s) = timed(tr, "toolchain.enhance_serial", || {
        sut::enhance_serial(tc, apps)
    });
    serial?;
    let (parallel, parallel_s) = timed(tr, "toolchain.enhance_all", || sut::enhance_all(tc, apps));
    parallel?;
    Ok(DesignOut {
        weaved_loc,
        points,
        kernel_builds,
        kernel_hits,
        serial_s,
        parallel_s,
    })
}

struct RuntimeOut {
    frame_bytes: usize,
}

/// Observations a lockstep round publishes at once (the `online-drift`
/// fleet size).
const ROUND_BATCH: usize = 8;

/// Gossip origins the codec probe spreads observations over.
const ORIGINS: usize = 16;

fn runtime(tr: &Tracer, inp: &mut ProbeInputs, acc: &mut Acc) -> Result<RuntimeOut> {
    let n = inp.size.probe_observations;
    let points: Vec<KnobConfig> = inp
        .knowledge
        .points()
        .iter()
        .map(|p| p.config.clone())
        .collect();
    let order = permutation(points.len(), inp.seed);
    let configs: Vec<KnobConfig> = (0..n)
        .map(|i| points[order[i % points.len()]].clone())
        .collect();

    let profile = &inp.twomm.profile;
    let machine = &mut inp.machine;
    let execs: Vec<(f64, f64)> = acc.calls(tr, "platform.execute", n, || {
        configs
            .iter()
            .map(|c| sut::execute(machine, profile, c))
            .collect()
    });
    let noise = acc.calls(tr, "platform.noise", n, || {
        (0..n as u64).fold(0.0, |sum, i| {
            let (t, p) = sut::noise(machine, i % ORIGINS as u64, i);
            sum + t + p
        })
    });
    black_box(noise);
    let observations: Vec<_> = configs
        .iter()
        .zip(&execs)
        .map(|(c, &(t, p))| (c.clone(), sut::observed(t, p)))
        .collect();

    let rtm = sut::asrtm(inp.knowledge.clone());
    let calls = inp.size.probe_best_calls;
    acc.calls(tr, "margot.best", calls, || {
        for _ in 0..calls {
            black_box(sut::best(black_box(&rtm)));
        }
    });

    let mut manager = sut::manager(inp.knowledge.clone());
    acc.calls(tr, "margot.update", n, || {
        for &(t, p) in &execs {
            black_box(sut::mapek_step(&mut manager, t, p));
        }
    });

    let shared = sut::shared(inp.knowledge.clone(), sut::default_shards());
    let mut cache = sut::effective(&shared);
    tr.span("probe.margot.round", || {
        for batch in observations.chunks(ROUND_BATCH) {
            let start = Instant::now();
            black_box(sut::publish_batch(&shared, batch));
            let mid = Instant::now();
            black_box(sut::refresh(&shared, &mut cache));
            acc.add("margot.publish_batch", (mid - start).as_secs_f64(), 1);
            acc.add("margot.refresh", mid.elapsed().as_secs_f64(), 1);
        }
    });

    let shared = sut::shared(inp.knowledge.clone(), sut::default_shards());
    let mut cache = sut::effective(&shared);
    acc.calls(tr, "margot.publish_into", n, || {
        for (c, v) in &observations {
            black_box(sut::publish_into(&shared, c, v, &mut cache));
        }
    });

    let reference = sut::shared(inp.knowledge.clone(), 1);
    acc.calls(tr, "margot.fold", n, || {
        for (c, v) in &observations {
            black_box(sut::publish(&reference, c, v));
        }
    });

    let ops = observations
        .into_iter()
        .enumerate()
        .map(|(i, (c, v))| sut::wire_observation((i % ORIGINS) as u32, i as u64, c, v))
        .collect();
    let message = sut::ops_message(ops);
    let frame = sut::encode(&message)?;
    let reps = inp.size.probe_codec_reps;
    let bytes = frame.len() * reps;
    acc.calls(tr, "transport.encode_byte", bytes, || -> Result<()> {
        for _ in 0..reps {
            black_box(sut::encode(black_box(&message))?);
        }
        Ok(())
    })?;
    acc.calls(tr, "transport.decode_byte", bytes, || -> Result<()> {
        for _ in 0..reps {
            black_box(sut::decode(black_box(&frame))?);
        }
        Ok(())
    })?;
    Ok(RuntimeOut {
        frame_bytes: frame.len(),
    })
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
