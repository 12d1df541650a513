//! Criterion benchmarks of the design-time pipeline: full-factorial DSE
//! profiling, COBAYN training/prediction and Milepost extraction — the
//! stages whose cost the SOCRATES toolchain pays once per application.

use cobayn::{iterative_compilation, Cobayn, CobaynConfig, TrainingApp};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milepost::extract_function;
use platform_sim::{BindingPolicy, KnobConfig, Machine, Topology};
use polybench::{App, Dataset};

fn bench_full_factorial_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse-profile");
    group.sample_size(10);
    let topo = Topology::xeon_e5_2630_v3();
    let space = dse::DesignSpace::socrates(platform_sim::paper_cf_combos().to_vec(), &topo);
    let configs = space.full_factorial();
    let profile = App::TwoMm.profile(Dataset::Large);
    // The 512-point sweep at the toolchain's 3 repetitions and at 20,
    // where the per-repetition noise draws dominate the one expectation
    // each point computes.
    for reps in [3u32, 20] {
        group.bench_function(format!("2mm-512x{reps}"), |b| {
            b.iter(|| {
                let machine = Machine::xeon_e5_2630_v3(3);
                dse::profile(&machine, &profile, &configs, reps).len()
            });
        });
    }
    group.finish();
}

fn bench_engine_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-run");
    group.sample_size(10);
    for app in [App::TwoMm, App::Doitgen] {
        let tu = minic::parse(&polybench::source(app, Dataset::Large)).unwrap();
        let mut weaver = lara::Weaver::new(tu);
        let versions = [lara::StaticVersion::new(["O2"], "close")];
        let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions).unwrap();
        let (weaved, _) = weaver.finish();
        let entry = woven.version_functions[0].clone();
        let spec = socrates::functional_spec(app, Dataset::Large, 1);
        group.bench_function(format!("{}-ast", app.name()), |b| {
            b.iter(|| minivm::interpret(&weaved, &entry, &spec).unwrap().checksum);
        });
        let kernel = minivm::compile(&weaved, &entry, &spec).unwrap();
        group.bench_function(format!("{}-bytecode", app.name()), |b| {
            b.iter(|| kernel.run().unwrap().checksum);
        });
    }
    group.finish();
}

fn bench_milepost_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("milepost-extract");
    group.sample_size(40);
    for app in [App::TwoMm, App::Nussinov] {
        let tu = minic::parse(&polybench::source(app, Dataset::Large)).unwrap();
        let kernel = app.kernel_name();
        group.bench_with_input(BenchmarkId::from_parameter(app.name()), &tu, |b, tu| {
            b.iter(|| extract_function(tu, &kernel).unwrap());
        });
    }
    group.finish();
}

fn training_corpus() -> Vec<TrainingApp> {
    let machine = Machine::xeon_e5_2630_v3(1).noiseless();
    App::ALL
        .iter()
        .take(8)
        .map(|&app| {
            let tu = minic::parse(&polybench::source(app, Dataset::Large)).unwrap();
            let features = extract_function(&tu, &app.kernel_name()).unwrap();
            let profile = app.profile(Dataset::Large);
            let good = iterative_compilation(
                |co| {
                    let cfg = KnobConfig::new(co.clone(), 1, BindingPolicy::Close);
                    1.0 / machine.expected(&profile, &cfg).time_s
                },
                0.15,
            );
            TrainingApp { features, good }
        })
        .collect()
}

fn bench_cobayn_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("cobayn");
    group.sample_size(10);
    let corpus = training_corpus();
    group.bench_function("train-8apps", |b| {
        b.iter(|| Cobayn::train(&corpus, CobaynConfig::default()).unwrap());
    });
    let model = Cobayn::train(&corpus, CobaynConfig::default()).unwrap();
    let target = corpus[0].features.clone();
    group.bench_function("predict-top4", |b| {
        b.iter(|| model.predict(&target, 4));
    });
    group.finish();
}

fn bench_iterative_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterative-compilation");
    group.sample_size(20);
    let machine = Machine::xeon_e5_2630_v3(5).noiseless();
    let profile = App::Syrk.profile(Dataset::Large);
    group.bench_function("syrk-128combos", |b| {
        b.iter(|| {
            iterative_compilation(
                |co| {
                    let cfg = KnobConfig::new(co.clone(), 1, BindingPolicy::Close);
                    1.0 / machine.expected(&profile, &cfg).time_s
                },
                0.15,
            )
            .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_factorial_profiling,
    bench_engine_execution,
    bench_milepost_extraction,
    bench_cobayn_train,
    bench_iterative_compilation
);
criterion_main!(benches);
