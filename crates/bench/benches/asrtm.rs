//! Criterion micro-benchmarks of the mARGOt runtime: AS-RTM selection
//! latency, monitor overhead and one MAPE-K step of an adaptive
//! application end to end. This quantifies the paper's claim that
//! mARGOt's intrusiveness (the per-invocation update/start/stop cost) is
//! small compared to kernel execution times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use margot::{
    ApplicationManager, AsRtm, Cmp, Constraint, Knowledge, Metric, MetricValues, Monitor,
    OperatingPoint, Rank,
};
use platform_sim::{KnobConfig, Machine, Topology};

/// Builds a knowledge base of `n` operating points over the real
/// configuration space using the platform model.
fn knowledge(n: usize) -> Knowledge<KnobConfig> {
    let machine = Machine::xeon_e5_2630_v3(7).noiseless();
    let profile = platform_sim::WorkloadProfile::builder("bench")
        .flops(2.5e9)
        .bytes(6e8)
        .parallel_fraction(0.995)
        .build();
    let topo = Topology::xeon_e5_2630_v3();
    let space = dse::DesignSpace::socrates(platform_sim::paper_cf_combos().to_vec(), &topo);
    space
        .full_factorial()
        .into_iter()
        .take(n)
        .map(|cfg| {
            let e = machine.expected(&profile, &cfg);
            OperatingPoint::new(
                cfg,
                MetricValues::new()
                    .with(Metric::exec_time(), e.time_s)
                    .with(Metric::power(), e.power_w)
                    .with(Metric::throughput(), 1.0 / e.time_s)
                    .with(Metric::energy(), e.energy_j),
            )
        })
        .collect()
}

fn bench_best_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("asrtm-best");
    group.sample_size(40);
    for n in [64usize, 256, 512] {
        let mut rtm = AsRtm::new(knowledge(n), Rank::throughput_per_watt2());
        rtm.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            100.0,
            10,
        ));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rtm, |b, rtm| {
            b.iter(|| rtm.best().unwrap().config.clone());
        });
    }
    group.finish();
}

fn bench_manager_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("manager-update");
    group.sample_size(40);
    let mut manager = ApplicationManager::new(knowledge(512), Rank::throughput_per_watt2());
    for metric in [Metric::exec_time(), Metric::power(), Metric::throughput()] {
        manager.add_monitor(metric, 5);
    }
    manager.update();
    manager.observe_execution(0.1, 90.0);
    group.bench_function("512-points-with-feedback", |b| {
        b.iter(|| manager.update().unwrap());
    });
    group.finish();
}

fn bench_monitor_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    group.sample_size(60);
    group.bench_function("push-and-mean-window32", |b| {
        let mut m = Monitor::new(32);
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            m.push(x % 17.0);
            m.mean().unwrap()
        });
    });
    group.finish();
}

fn bench_pareto_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto-filter");
    group.sample_size(20);
    let k = knowledge(512);
    group.bench_function("512-points", |b| {
        b.iter(|| dse::power_throughput_pareto(&k).len());
    });
    group.finish();
}

fn bench_adaptive_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive-runtime");
    group.sample_size(10);
    let toolchain = socrates::Toolchain {
        dataset: polybench::Dataset::Medium,
        dse_repetitions: 1,
        ..socrates::Toolchain::default()
    };
    let enhanced = toolchain.enhance(polybench::App::TwoMm).unwrap();
    group.bench_function("mape-k-step", |bench| {
        let mut app = socrates::AdaptiveApplication::new(
            enhanced.clone(),
            Rank::maximize(Metric::throughput()),
            9,
        );
        bench.iter(|| app.step());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_best_selection,
    bench_manager_update,
    bench_monitor_push,
    bench_pareto_filter,
    bench_adaptive_loop
);
criterion_main!(benches);
