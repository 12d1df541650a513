//! The SOCRATES autotuning knobs: compiler options (CO), thread number
//! (TN) and OpenMP binding policy (BP).

use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
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

/// A set of [`CompilerFlag`]s in one byte: bit `i` stands for
/// `CompilerFlag::ALL[i]`, the form the wire codec writes.
///
/// A configuration carries its flags without a heap allocation, yet the
/// set iterates, prints, hashes, orders and serialises exactly as the
/// canonical (`ALL`-ordered, duplicate-free) `Vec<CompilerFlag>` would:
/// shard assignment, content digests, trace digests and persisted
/// configurations all read those forms.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagSet(u8);

impl FlagSet {
    /// Number of flags in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `flag` is in the set.
    pub fn contains(self, flag: CompilerFlag) -> bool {
        self.0 & (1 << flag.bit()) != 0
    }

    /// The flags in canonical order.
    pub fn iter(self) -> FlagIter {
        FlagIter(self.0)
    }

    /// The flags as the canonical list: the first `len` entries of the
    /// array, the rest padding.
    fn list(self) -> ([CompilerFlag; 6], usize) {
        let mut list = [CompilerFlag::UnsafeMathOptimizations; 6];
        let mut len = 0;
        for flag in self {
            list[len] = flag;
            len += 1;
        }
        (list, len)
    }
}

impl IntoIterator for FlagSet {
    type Item = CompilerFlag;
    type IntoIter = FlagIter;

    fn into_iter(self) -> FlagIter {
        self.iter()
    }
}

impl FromIterator<CompilerFlag> for FlagSet {
    fn from_iter<T: IntoIterator<Item = CompilerFlag>>(iter: T) -> Self {
        FlagSet(
            iter.into_iter()
                .fold(0, |mask, flag| mask | (1 << flag.bit())),
        )
    }
}

/// The canonical list's `Hash`: its length, then each flag.
impl Hash for FlagSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (list, len) = self.list();
        list[..len].hash(state);
    }
}

/// The canonical lists' lexicographic order.
impl Ord for FlagSet {
    fn cmp(&self, other: &Self) -> Ordering {
        let ((a, la), (b, lb)) = (self.list(), other.list());
        a[..la].cmp(&b[..lb])
    }
}

impl PartialOrd for FlagSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A list, as `[NoIvopts, UnrollAllLoops]`.
impl fmt::Debug for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An array of flag names in canonical order.
impl Serialize for FlagSet {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|flag| flag.to_value()).collect())
    }
}

/// Any array of flag names, duplicates and order ignored.
impl Deserialize for FlagSet {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Vec::<CompilerFlag>::from_value(v)?.into_iter().collect())
    }
}

/// Iterator over a [`FlagSet`] in canonical order.
#[derive(Debug, Clone)]
pub struct FlagIter(u8);

impl Iterator for FlagIter {
    type Item = CompilerFlag;

    fn next(&mut self) -> Option<CompilerFlag> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(CompilerFlag::ALL[bit])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.0.count_ones() as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for FlagIter {}

/// A complete compiler configuration: a base level plus a set of
/// transformation flags (possibly empty).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Base `-O` level.
    pub level: OptLevel,
    /// Additional transformation flags.
    pub flags: FlagSet,
}

impl CompilerOptions {
    /// A bare standard level.
    pub fn level(level: OptLevel) -> Self {
        CompilerOptions {
            level,
            flags: FlagSet::default(),
        }
    }

    /// A level plus flags, in any order and with repeats: equal flag
    /// sets make equal configurations.
    pub fn with_flags(level: OptLevel, flags: impl IntoIterator<Item = CompilerFlag>) -> Self {
        CompilerOptions {
            level,
            flags: flags.into_iter().collect(),
        }
    }

    /// Returns `true` if `flag` is enabled.
    pub fn has(&self, flag: CompilerFlag) -> bool {
        self.flags.contains(flag)
    }

    /// The flag strings for `#pragma GCC optimize(...)`, level first.
    pub fn pragma_flags(&self) -> Vec<String> {
        let mut v = vec![self.level.as_str().to_string()];
        v.extend(self.flags.iter().map(|f| f.as_str().to_string()));
        v
    }

    /// Encodes the flag set as a bitmask (bit i = `CompilerFlag::ALL[i]`).
    pub fn flag_mask(&self) -> u8 {
        self.flags.0
    }

    /// Decodes a flag bitmask; bits past the sixth are ignored.
    pub fn from_mask(level: OptLevel, mask: u8) -> Self {
        CompilerOptions {
            level,
            flags: FlagSet(mask & ((1 << CompilerFlag::ALL.len()) - 1)),
        }
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
        for fl in self.flags {
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
        assert_eq!(
            cf4.flags.iter().collect::<Vec<_>>(),
            vec![CompilerFlag::NoInlineFunctions]
        );
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
