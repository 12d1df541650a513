//! The SOCRATES autotuning knobs: compiler options (CO), thread number
//! (TN) and OpenMP binding policy (BP).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// GCC standard optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// `-Os`: optimize for size.
    Os,
    /// `-O1`
    O1,
    /// `-O2`
    O2,
    /// `-O3`
    O3,
}

impl OptLevel {
    /// All four standard levels used by the paper.
    pub const ALL: [OptLevel; 4] = [OptLevel::Os, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// GCC spelling without the leading dash (as used in
    /// `#pragma GCC optimize`).
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::Os => "Os",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for OptLevel {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim_start_matches('-') {
            "Os" => Ok(OptLevel::Os),
            "O1" => Ok(OptLevel::O1),
            "O2" => Ok(OptLevel::O2),
            "O3" => Ok(OptLevel::O3),
            other => Err(ParseConfigError(format!("unknown opt level `{other}`"))),
        }
    }
}

/// The individual GCC transformation flags explored by SOCRATES
/// (Section II of the paper, derived from Chen et al. 2012).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CompilerFlag {
    /// `-funsafe-math-optimizations`
    UnsafeMathOptimizations,
    /// `-fno-guess-branch-probability`
    NoGuessBranchProbability,
    /// `-fno-ivopts`
    NoIvopts,
    /// `-fno-tree-loop-optimize`
    NoTreeLoopOptimize,
    /// `-fno-inline-functions`
    NoInlineFunctions,
    /// `-funroll-all-loops`
    UnrollAllLoops,
}

impl CompilerFlag {
    /// All six transformation flags, in a fixed canonical order.
    pub const ALL: [CompilerFlag; 6] = [
        CompilerFlag::UnsafeMathOptimizations,
        CompilerFlag::NoGuessBranchProbability,
        CompilerFlag::NoIvopts,
        CompilerFlag::NoTreeLoopOptimize,
        CompilerFlag::NoInlineFunctions,
        CompilerFlag::UnrollAllLoops,
    ];

    /// GCC spelling without the `-f` prefix (pragma form).
    pub fn as_str(self) -> &'static str {
        match self {
            CompilerFlag::UnsafeMathOptimizations => "unsafe-math-optimizations",
            CompilerFlag::NoGuessBranchProbability => "no-guess-branch-probability",
            CompilerFlag::NoIvopts => "no-ivopts",
            CompilerFlag::NoTreeLoopOptimize => "no-tree-loop-optimize",
            CompilerFlag::NoInlineFunctions => "no-inline-functions",
            CompilerFlag::UnrollAllLoops => "unroll-all-loops",
        }
    }

    /// Index in [`CompilerFlag::ALL`] (used as a bit position).
    pub fn bit(self) -> usize {
        match self {
            CompilerFlag::UnsafeMathOptimizations => 0,
            CompilerFlag::NoGuessBranchProbability => 1,
            CompilerFlag::NoIvopts => 2,
            CompilerFlag::NoTreeLoopOptimize => 3,
            CompilerFlag::NoInlineFunctions => 4,
            CompilerFlag::UnrollAllLoops => 5,
        }
    }
}

impl fmt::Display for CompilerFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CompilerFlag {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim_start_matches("-f");
        CompilerFlag::ALL
            .into_iter()
            .find(|f| f.as_str() == s)
            .ok_or_else(|| ParseConfigError(format!("unknown compiler flag `{s}`")))
    }
}

/// A complete compiler configuration: a base level plus a set of
/// transformation flags (possibly empty).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Base `-O` level.
    pub level: OptLevel,
    /// Additional transformation flags in canonical order.
    pub flags: Vec<CompilerFlag>,
}

impl CompilerOptions {
    /// A bare standard level.
    pub fn level(level: OptLevel) -> Self {
        CompilerOptions {
            level,
            flags: Vec::new(),
        }
    }

    /// A level plus flags; flags are sorted into canonical order and
    /// deduplicated so equal configurations compare equal.
    pub fn with_flags(level: OptLevel, flags: impl IntoIterator<Item = CompilerFlag>) -> Self {
        let mut flags: Vec<CompilerFlag> = flags.into_iter().collect();
        flags.sort();
        flags.dedup();
        CompilerOptions { level, flags }
    }

    /// Returns `true` if `flag` is enabled.
    pub fn has(&self, flag: CompilerFlag) -> bool {
        self.flags.contains(&flag)
    }

    /// The flag strings for `#pragma GCC optimize(...)`, level first.
    pub fn pragma_flags(&self) -> Vec<String> {
        let mut v = vec![self.level.as_str().to_string()];
        v.extend(self.flags.iter().map(|f| f.as_str().to_string()));
        v
    }

    /// Parses the pragma form back (`["O2", "no-ivopts", ...]`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseConfigError`] when a token is not a level or flag.
    pub fn from_pragma_flags(flags: &[String]) -> Result<Self, ParseConfigError> {
        let mut level = None;
        let mut fs = Vec::new();
        for tok in flags {
            if let Ok(l) = tok.parse::<OptLevel>() {
                level = Some(l);
            } else {
                fs.push(tok.parse::<CompilerFlag>()?);
            }
        }
        let level = level.ok_or_else(|| ParseConfigError("missing opt level".into()))?;
        Ok(CompilerOptions::with_flags(level, fs))
    }

    /// Encodes the flag set as a bitmask (bit i = `CompilerFlag::ALL[i]`).
    pub fn flag_mask(&self) -> u8 {
        self.flags.iter().fold(0u8, |m, f| m | (1 << f.bit()))
    }

    /// Decodes a flag bitmask.
    pub fn from_mask(level: OptLevel, mask: u8) -> Self {
        let flags = CompilerFlag::ALL
            .into_iter()
            .filter(|f| mask & (1 << f.bit()) != 0);
        CompilerOptions::with_flags(level, flags)
    }

    /// The COBAYN search space from the original paper: base level in
    /// {O2, O3} × all 2^6 flag subsets = 128 combinations.
    pub fn cobayn_space() -> Vec<CompilerOptions> {
        let mut v = Vec::with_capacity(128);
        for level in [OptLevel::O2, OptLevel::O3] {
            for mask in 0u8..64 {
                v.push(CompilerOptions::from_mask(level, mask));
            }
        }
        v
    }
}

impl fmt::Display for CompilerOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-{}", self.level)?;
        for fl in &self.flags {
            write!(f, ",{fl}")?;
        }
        Ok(())
    }
}

/// OpenMP binding policy (with `OMP_PLACES=cores`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BindingPolicy {
    /// `proc_bind(close)`: pack threads on consecutive cores.
    Close,
    /// `proc_bind(spread)`: spread threads across sockets.
    Spread,
}

impl BindingPolicy {
    /// Both policies, in paper order.
    pub const ALL: [BindingPolicy; 2] = [BindingPolicy::Close, BindingPolicy::Spread];

    /// The OpenMP clause spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BindingPolicy::Close => "close",
            BindingPolicy::Spread => "spread",
        }
    }
}

impl fmt::Display for BindingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BindingPolicy {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "close" => Ok(BindingPolicy::Close),
            "spread" => Ok(BindingPolicy::Spread),
            other => Err(ParseConfigError(format!(
                "unknown binding policy `{other}`"
            ))),
        }
    }
}

/// One point of the SOCRATES autotuning space: (CO, TN, BP).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KnobConfig {
    /// Compiler options.
    pub co: CompilerOptions,
    /// Number of OpenMP threads (1 ..= logical cores).
    pub tn: u32,
    /// OpenMP binding policy.
    pub bp: BindingPolicy,
}

impl KnobConfig {
    /// Creates a configuration.
    pub fn new(co: CompilerOptions, tn: u32, bp: BindingPolicy) -> Self {
        KnobConfig { co, tn, bp }
    }
}

impl fmt::Display for KnobConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "co={} tn={} bp={}", self.co, self.tn, self.bp)
    }
}

/// Error parsing a knob value from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(pub String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseConfigError {}

/// The custom flag combinations reported for 2mm in the paper (Fig. 4).
///
/// CF1: O3, no-guess-branch-probability, no-ivopts, no-tree-loop-optimize,
///      no-inline; CF2: O2, no-inline, unroll-all-loops; CF3: O2,
///      unsafe-math-optimizations, no-ivopts, no-tree-loop-optimize,
///      unroll-all-loops; CF4: O2, no-inline.
pub fn paper_cf_combos() -> [CompilerOptions; 4] {
    use CompilerFlag::*;
    [
        CompilerOptions::with_flags(
            OptLevel::O3,
            [
                NoGuessBranchProbability,
                NoIvopts,
                NoTreeLoopOptimize,
                NoInlineFunctions,
            ],
        ),
        CompilerOptions::with_flags(OptLevel::O2, [NoInlineFunctions, UnrollAllLoops]),
        CompilerOptions::with_flags(
            OptLevel::O2,
            [
                UnsafeMathOptimizations,
                NoIvopts,
                NoTreeLoopOptimize,
                UnrollAllLoops,
            ],
        ),
        CompilerOptions::with_flags(OptLevel::O2, [NoInlineFunctions]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_level_parses_with_or_without_dash() {
        assert_eq!("-O3".parse::<OptLevel>().unwrap(), OptLevel::O3);
        assert_eq!("Os".parse::<OptLevel>().unwrap(), OptLevel::Os);
        assert!("O9".parse::<OptLevel>().is_err());
    }

    #[test]
    fn flags_roundtrip_through_strings() {
        for f in CompilerFlag::ALL {
            assert_eq!(f.as_str().parse::<CompilerFlag>().unwrap(), f);
        }
    }

    #[test]
    fn flag_bits_index_all() {
        for (i, f) in CompilerFlag::ALL.into_iter().enumerate() {
            assert_eq!(f.bit(), i, "{f}");
        }
    }

    #[test]
    fn with_flags_sorts_and_dedups() {
        let a = CompilerOptions::with_flags(
            OptLevel::O2,
            [
                CompilerFlag::UnrollAllLoops,
                CompilerFlag::NoIvopts,
                CompilerFlag::UnrollAllLoops,
            ],
        );
        let b = CompilerOptions::with_flags(
            OptLevel::O2,
            [CompilerFlag::NoIvopts, CompilerFlag::UnrollAllLoops],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn pragma_flags_roundtrip() {
        let co = CompilerOptions::with_flags(
            OptLevel::O3,
            [
                CompilerFlag::UnsafeMathOptimizations,
                CompilerFlag::NoIvopts,
            ],
        );
        let flags = co.pragma_flags();
        assert_eq!(flags[0], "O3");
        let back = CompilerOptions::from_pragma_flags(&flags).unwrap();
        assert_eq!(back, co);
    }

    #[test]
    fn mask_roundtrip_covers_all_subsets() {
        for mask in 0u8..64 {
            let co = CompilerOptions::from_mask(OptLevel::O2, mask);
            assert_eq!(co.flag_mask(), mask);
        }
    }

    #[test]
    fn cobayn_space_has_128_unique_points() {
        let space = CompilerOptions::cobayn_space();
        assert_eq!(space.len(), 128);
        let set: std::collections::HashSet<_> = space.iter().collect();
        assert_eq!(set.len(), 128);
    }

    #[test]
    fn paper_cf_combos_match_section_iii() {
        let [cf1, cf2, cf3, cf4] = paper_cf_combos();
        assert_eq!(cf1.level, OptLevel::O3);
        assert_eq!(cf1.flags.len(), 4);
        assert!(cf2.has(CompilerFlag::UnrollAllLoops));
        assert!(cf3.has(CompilerFlag::UnsafeMathOptimizations));
        assert_eq!(cf4.flags, vec![CompilerFlag::NoInlineFunctions]);
    }

    #[test]
    fn knob_config_display_is_readable() {
        let c = KnobConfig::new(
            CompilerOptions::level(OptLevel::O2),
            8,
            BindingPolicy::Spread,
        );
        assert_eq!(c.to_string(), "co=-O2 tn=8 bp=spread");
    }

    #[test]
    fn binding_policy_parses() {
        assert_eq!(
            "close".parse::<BindingPolicy>().unwrap(),
            BindingPolicy::Close
        );
        assert!("scatter".parse::<BindingPolicy>().is_err());
    }
}
