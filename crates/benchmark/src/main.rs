//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release -p socrates-benchmark -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--out <file>]
//! ```
//!
//! An untraced run (`--trace 0`, the default) prints every end-to-end
//! metric; a traced run (`--trace 1`) records spans around every call
//! into the system, replays the run's inputs through each layer and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`,
//! and the full record (run context, exact numbers, spans) is written to
//! `--out` (default `target/benchmark/<workload>-<seed>[-traced].json`).
//! See `README.md` next to this crate for the workloads and metrics.

mod context;
mod probes;
mod stats;
mod sut;
mod trace;
mod workloads;

use context::Context;
use serde::Serialize;
use stats::Timing;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Span, SpanTotals, Tracer};
use workloads::{timed, Checks, Kind, Measured, Size};

const USAGE: &str = "usage: socrates-benchmark --workload <design-batch|online-drift|\
event-diurnal|dist-gossip> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--out <file>]";

/// The measuring budget when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let s = value("--seed")?;
                seed = Some(
                    s.parse()
                        .map_err(|_| format!("--seed {s:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let s = value("--seconds")?;
                seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or(format!("--seconds {s:?} is not a positive number"))?;
            }
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    trace = v == "1";
                    it.next();
                }
                _ => trace = true,
            },
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// One metric of the result line.
#[derive(Debug, Clone, Serialize)]
struct MetricValue {
    value: f64,
    unit: &'static str,
}

/// The result line (the last line of standard output).
#[derive(Debug, Clone, Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, MetricValue>,
}

/// The full record written to `--out`.
#[derive(Serialize)]
struct Record {
    context: Context,
    sizes: Size,
    result: Line,
    setup_s: Vec<f64>,
    reps: u64,
    units: f64,
    timed_wall_s: f64,
    virtual_kernel_s: f64,
    unit_us: Timing,
    exact: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    span_totals: BTreeMap<&'static str, SpanTotals>,
    spans: Vec<Span>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!(
            "{}",
            serde_json::to_string(&line).expect("the result line serialises")
        ),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Line, String> {
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let context = Context {
        commit: context::commit(),
        workload: args.workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.trace,
        rayon_threads: rayon::current_num_threads(),
        nproc: context::nproc(),
        cpu_model: context::cpu_model(),
    };
    eprintln!(
        "{} seed {} ({}, {}s budget) at {} on {} [{} rayon threads / {} cpus]",
        context.workload,
        context.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds,
        context.commit,
        context.cpu_model,
        context.rayon_threads,
        context.nproc,
    );
    let tr = Tracer::new(args.trace);
    let mut w = args.workload.build(args.seed, &size);
    let mut checks = Checks::default();
    let err = |e: sut::Error| e.to_string();

    let mut setup_s = Vec::with_capacity(size.setups);
    for _ in 0..size.setups {
        let (r, dt) = timed(&tr, "bench.setup", || w.setup(&tr));
        r.map_err(err)?;
        setup_s.push(dt);
    }
    tr.span("bench.prepare", || w.prepare(&tr, &mut checks))
        .map_err(err)?;

    let off = Tracer::new(false);
    let mut untraced = Measured::default();
    let mut traced = Measured::default();
    let start = Instant::now();
    let mut reps = 0;
    while reps < w.min_reps() || start.elapsed().as_secs_f64() < args.seconds {
        w.rep(reps, &off, &mut untraced, &mut checks).map_err(err)?;
        if args.trace {
            // Same repetition again with spans on: the difference is
            // the tracing overhead.
            tr.span("bench.rep", || w.rep(reps, &tr, &mut traced, &mut checks))
                .map_err(err)?;
        }
        reps += 1;
    }
    if untraced.unit_us.is_empty() || untraced.kernel_s <= 0.0 {
        return Err("the timed phase did no work".to_string());
    }

    let timing = Timing::of(&untraced.unit_us, w.tail_percentile());
    let metrics = if args.trace {
        let mut inputs = w.probe_inputs();
        let probed = probes::run(&tr, &mut inputs).map_err(err)?;
        let unexplained = if w.timed_phase_is_pipeline() {
            probed.stage_gap_pct
        } else {
            let modelled: f64 = untraced
                .calls
                .iter()
                .map(|(k, n)| n * probed.cost_s.get(k).copied().unwrap_or(0.0))
                .sum();
            100.0 * (untraced.wall_s - modelled) / untraced.wall_s
        };
        let overhead = 100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s;
        let mut m = probed.metrics;
        m.push(("core.unexplained_pct", unexplained, "%"));
        m.push(("bench.trace_overhead_pct", overhead, "%"));
        m
    } else {
        vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("unit_us_p50", timing.p50, "us"),
            ("unit_us_tail", timing.tail, "us"),
            ("units_per_s", untraced.units / untraced.wall_s, "1/s"),
            (
                "overhead_ppm",
                untraced.wall_s / untraced.kernel_s * 1e6,
                "ppm",
            ),
            (
                "peak_rss_mb",
                context::peak_rss_mb().ok_or("VmHWM is unreadable")?,
                "MB",
            ),
        ]
    };
    let mut out = BTreeMap::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if out.insert(name, MetricValue { value, unit }).is_some() {
            return Err(format!("metric {name} emitted twice"));
        }
    }
    let line = Line {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: out,
    };
    for (name, m) in &line.metrics {
        eprintln!("  {name:<32} {:>16.6} {}", m.value, m.unit);
    }
    for f in &checks.failures {
        eprintln!("  FAILED: {f}");
    }

    let record = Record {
        context,
        sizes: size,
        result: line.clone(),
        setup_s,
        reps,
        units: untraced.units,
        timed_wall_s: untraced.wall_s,
        virtual_kernel_s: untraced.kernel_s,
        unit_us: timing,
        exact: w.exact(),
        failures: checks.failures,
        span_totals: tr.totals(),
        spans: tr.spans(),
    };
    for (name, v) in &record.exact {
        eprintln!("  exact {name:<26} {v}");
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| default_out(args.workload, args.seed, args.trace));
    write_record(&path, &record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("  record: {}", path.display());
    Ok(line)
}

/// `<workspace>/target/benchmark/<workload>-<seed>[-traced].json`.
fn default_out(workload: Kind, seed: u64, traced: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."));
    let suffix = if traced { "-traced" } else { "" };
    root.join("target")
        .join("benchmark")
        .join(format!("{}-{seed}{suffix}.json", workload.name()))
}

fn write_record(path: &Path, record: &Record) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(record).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args("--workload online-drift --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Kind::OnlineDrift);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace && !a.smoke);
        let a = args("--workload dist-gossip --seed 1 --trace 0 --smoke").unwrap();
        assert!(!a.trace && a.smoke);
    }

    #[test]
    fn bare_trace_flag_turns_tracing_on() {
        let a = args("--workload design-batch --trace --seed 3").unwrap();
        assert!(a.trace);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload design-batch --seed x").is_err());
        assert!(args("--workload design-batch --seed 1 --seconds 0").is_err());
        assert!(args("--workload design-batch --seed 1 --bogus").is_err());
        assert!(args("--workload design-batch --seed").is_err());
    }
}
