//! Shared helpers for the experiment binaries (`table1`, `fig3`, `fig4`,
//! `fig5`) that regenerate the paper's Table I and Figures 3–5.

#![warn(missing_docs)]

use margot::{Knowledge, Metric};
use platform_sim::{CompilerOptions, KnobConfig, OptLevel};
use polybench::{App, Dataset};
use serde::Serialize;
use socrates::{EnhancedApp, Toolchain};
use std::path::{Path, PathBuf};

/// Five-number summary of a sample (the boxplot statistics of Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Computes the five-number summary.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite numbers.
    pub fn from_values(values: &[f64]) -> BoxStats {
        assert!(!values.is_empty(), "empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite sample value"
        );
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        BoxStats {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Full range (max - min).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Linear-interpolated quantile of an already sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Human label for a compiler option in the version table: standard
/// levels as `-O2`, COBAYN predictions as `CF1`..`CFn` (paper Fig. 4).
pub fn co_label(co: &CompilerOptions, cobayn_flags: &[CompilerOptions]) -> String {
    if co.flags.is_empty() {
        return format!("-{}", co.level);
    }
    match cobayn_flags.iter().position(|c| c == co) {
        Some(i) => format!("CF{}", i + 1),
        None => co.to_string(),
    }
}

/// A numeric index for plotting the CO axis of Fig. 4: standard levels
/// first (0..4), then CF combinations (4..).
pub fn co_axis_index(co: &CompilerOptions, cobayn_flags: &[CompilerOptions]) -> usize {
    if co.flags.is_empty() {
        return OptLevel::ALL
            .iter()
            .position(|l| *l == co.level)
            .expect("level in ALL");
    }
    match cobayn_flags.iter().position(|c| c == co) {
        Some(i) => OptLevel::ALL.len() + i,
        None => OptLevel::ALL.len() + cobayn_flags.len(),
    }
}

/// Normalises a metric across operating points by its mean (the Fig. 3
/// y-axis is "normalized metrics").
///
/// # Panics
///
/// Panics if the knowledge is empty or the metric missing everywhere.
pub fn normalized_metric(knowledge: &Knowledge<KnobConfig>, metric: &Metric) -> Vec<f64> {
    let values: Vec<f64> = knowledge
        .points()
        .iter()
        .filter_map(|p| p.metric(metric))
        .collect();
    assert!(!values.is_empty(), "metric {metric} missing");
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.into_iter().map(|v| v / mean).collect()
}

/// Directory where experiment binaries drop their JSON outputs
/// (`<workspace>/results`). Creates it if missing.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// The 2mm deployment (Medium dataset, one DSE repetition) with its
/// design knowledge subsampled evenly to `points` operating points —
/// the shared workload of the fleet-scaling and distributed-fleet
/// benches. The version table is keyed by (CO, BP) and stays
/// complete, so every kept point dispatches.
///
/// # Panics
///
/// Panics if the toolchain fails or `points` is zero.
pub fn subsampled_twomm(points: usize) -> EnhancedApp {
    assert!(points > 0, "need at least one operating point");
    let mut enhanced = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("enhance 2mm");
    let all = enhanced.knowledge.points();
    let stride = (all.len() / points).max(1);
    enhanced.knowledge = all
        .iter()
        .step_by(stride)
        .take(points)
        .cloned()
        .collect::<Knowledge<_>>();
    enhanced
}

/// Earliest virtual time after which every later *planned* selection
/// of `trace` has true efficiency within 1.5% of the oracle (infinity
/// if the instance never converges; forced exploration steps execute
/// arbitrary configurations by design and are excluded).
pub fn convergence_time_s(
    trace: &[socrates::TraceSample],
    true_eff: &impl Fn(&KnobConfig) -> f64,
    oracle_eff: f64,
) -> f64 {
    let mut converged_since = f64::INFINITY;
    for s in trace.iter().filter(|s| !s.forced) {
        if true_eff(&s.config) >= 0.985 * oracle_eff {
            if converged_since.is_infinite() {
                converged_since = s.t_start_s;
            }
        } else {
            converged_since = f64::INFINITY;
        }
    }
    converged_since
}

/// Median of a sample (mean of the middle pair for even lengths).
/// Infinite values are allowed — a "never converged" instance sorts
/// after every finite time.
///
/// # Panics
///
/// Panics if `values` is empty or contains a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Serialises a value as pretty JSON into `results/<name>.json`.
///
/// # Panics
///
/// Panics on I/O or serialisation failure (experiment binaries want loud
/// failures).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialise");
    std::fs::write(&path, json).expect("write results file");
    eprintln!("wrote {}", path.display());
}

/// An experiment binary's command line: `--smoke` (the seconds-long
/// sizes), `--check` (gate against the committed baseline) and
/// `--tolerance <x>` (the gate's bound).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BinArgs {
    /// `--smoke` was given.
    pub smoke: bool,
    /// `--check` was given.
    pub check: bool,
    /// The `--tolerance` value, if given.
    pub tolerance: Option<f64>,
}

/// Parses a binary's arguments (the program name excluded), accepting
/// only the flags in `accepted`. A mistyped or retired flag is an error
/// instead of a silent full run that overwrites committed results.
///
/// # Errors
///
/// Returns a message naming an argument that is not an accepted flag,
/// or a `--tolerance` without a number after it.
pub fn parse_args(args: &[String], accepted: &[&str]) -> Result<BinArgs, String> {
    let mut out = BinArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !accepted.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--check" => out.check = true,
            "--tolerance" => {
                let value = it.next().ok_or("--tolerance needs a value")?;
                let tolerance = value
                    .parse::<f64>()
                    .map_err(|_| format!("--tolerance `{value}` is not a number"))?;
                out.tolerance = Some(tolerance);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// [`parse_args`] over this process's arguments. On an error it prints
/// the message and the accepted flags, and exits with status 2.
pub fn args(accepted: &[&str]) -> BinArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, accepted).unwrap_or_else(|e| {
        if accepted.is_empty() {
            eprintln!("{e}: this binary takes no arguments");
        } else {
            eprintln!("{e}; accepted: {}", accepted.join(" "));
        }
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform_sim::CompilerFlag;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn bin_args_accept_only_their_flags() {
        let all = ["--smoke", "--check", "--tolerance"];
        assert_eq!(parse_args(&[], &[]), Ok(BinArgs::default()));
        assert_eq!(
            parse_args(
                &strings(&["--check", "--tolerance", "0.5", "--smoke"]),
                &all
            ),
            Ok(BinArgs {
                smoke: true,
                check: true,
                tolerance: Some(0.5),
            })
        );
        // A retired flag fails instead of running the default mode.
        assert!(parse_args(&strings(&["--check"]), &["--smoke"]).is_err());
        assert!(parse_args(&strings(&["--smoek"]), &all).is_err());
        assert!(parse_args(&strings(&["--smoke"]), &[]).is_err());
        assert!(parse_args(&strings(&["--tolerance"]), &all).is_err());
        assert!(parse_args(&strings(&["--tolerance", "wide"]), &all).is_err());
    }

    #[test]
    fn boxstats_on_known_sample() {
        let s = BoxStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.iqr(), 2.0);
        assert_eq!(s.range(), 4.0);
    }

    #[test]
    fn boxstats_single_value() {
        let s = BoxStats::from_values(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.q3, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn boxstats_rejects_empty() {
        let _ = BoxStats::from_values(&[]);
    }

    #[test]
    fn co_labels_match_figure_4_axis() {
        let cf = vec![CompilerOptions::with_flags(
            OptLevel::O2,
            [CompilerFlag::NoInlineFunctions],
        )];
        assert_eq!(co_label(&CompilerOptions::level(OptLevel::O3), &cf), "-O3");
        assert_eq!(co_label(&cf[0], &cf), "CF1");
        assert_eq!(co_axis_index(&CompilerOptions::level(OptLevel::Os), &cf), 0);
        assert_eq!(co_axis_index(&cf[0], &cf), 4);
    }
}
