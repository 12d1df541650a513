//! The Milepost-style static feature vector.
//!
//! Milepost GCC exports ~56 counters extracted from GIMPLE. We work one
//! level up, on the `minic` AST, and extract 36 analogous counters that
//! carry the same signal: loop structure, instruction mix, memory access
//! shape, control density and size metrics. COBAYN consumes these as
//! evidence for its Bayesian network.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

/// Enumeration of the extracted static code features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // names are self-describing counters
pub enum FeatureKind {
    Statements,
    Loops,
    ForLoops,
    WhileLoops,
    MaxLoopDepth,
    TotalLoopDepth,
    TripleNests,
    LoopsWithConstantBounds,
    IfStatements,
    BranchesInLoops,
    StatementsInLoops,
    Assignments,
    CompoundAssignments,
    BinaryOps,
    AddSubOps,
    MulDivOps,
    RemOps,
    Comparisons,
    LogicalOps,
    BitwiseOps,
    UnaryOps,
    TernaryOps,
    ArrayAccesses,
    MaxIndexChain,
    ScalarRefs,
    IntLiterals,
    FloatLiterals,
    Calls,
    DistinctCallees,
    PointerDerefs,
    Returns,
    Parameters,
    LocalDecls,
    FloatDecls,
    IntDecls,
    CyclomaticComplexity,
}

impl FeatureKind {
    /// All features in a fixed canonical order (index = vector position).
    pub const ALL: [FeatureKind; 36] = [
        FeatureKind::Statements,
        FeatureKind::Loops,
        FeatureKind::ForLoops,
        FeatureKind::WhileLoops,
        FeatureKind::MaxLoopDepth,
        FeatureKind::TotalLoopDepth,
        FeatureKind::TripleNests,
        FeatureKind::LoopsWithConstantBounds,
        FeatureKind::IfStatements,
        FeatureKind::BranchesInLoops,
        FeatureKind::StatementsInLoops,
        FeatureKind::Assignments,
        FeatureKind::CompoundAssignments,
        FeatureKind::BinaryOps,
        FeatureKind::AddSubOps,
        FeatureKind::MulDivOps,
        FeatureKind::RemOps,
        FeatureKind::Comparisons,
        FeatureKind::LogicalOps,
        FeatureKind::BitwiseOps,
        FeatureKind::UnaryOps,
        FeatureKind::TernaryOps,
        FeatureKind::ArrayAccesses,
        FeatureKind::MaxIndexChain,
        FeatureKind::ScalarRefs,
        FeatureKind::IntLiterals,
        FeatureKind::FloatLiterals,
        FeatureKind::Calls,
        FeatureKind::DistinctCallees,
        FeatureKind::PointerDerefs,
        FeatureKind::Returns,
        FeatureKind::Parameters,
        FeatureKind::LocalDecls,
        FeatureKind::FloatDecls,
        FeatureKind::IntDecls,
        FeatureKind::CyclomaticComplexity,
    ];

    /// Number of features.
    pub const COUNT: usize = Self::ALL.len();

    /// Position of this feature in [`FeatureKind::ALL`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short `ftNN-name` label in the Milepost spirit.
    pub fn label(self) -> String {
        format!("ft{:02}-{:?}", self.index() + 1, self)
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A feature vector for one kernel function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Features {
    values: Vec<f64>,
}

impl Features {
    /// Creates an all-zero vector.
    pub fn zeros() -> Self {
        Features {
            values: vec![0.0; FeatureKind::COUNT],
        }
    }

    /// Creates from raw values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != FeatureKind::COUNT`.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert_eq!(values.len(), FeatureKind::COUNT, "wrong feature count");
        Features { values }
    }

    /// The raw values in canonical order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access used by the extractor.
    pub(crate) fn set(&mut self, kind: FeatureKind, v: f64) {
        self.values[kind.index()] = v;
    }

    /// Increments a counter feature.
    pub(crate) fn bump(&mut self, kind: FeatureKind, by: f64) {
        self.values[kind.index()] += by;
    }

    /// Euclidean distance to another vector (after caller normalisation).
    pub fn distance(&self, other: &Features) -> f64 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<FeatureKind> for Features {
    type Output = f64;

    fn index(&self, kind: FeatureKind) -> &f64 {
        &self.values[kind.index()]
    }
}

impl Default for Features {
    fn default() -> Self {
        Self::zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_features_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for f in FeatureKind::ALL {
            assert!(seen.insert(f.index()));
            assert_eq!(FeatureKind::ALL[f.index()], f);
        }
        assert_eq!(seen.len(), FeatureKind::COUNT);
    }

    #[test]
    fn labels_are_milepost_like() {
        assert_eq!(FeatureKind::Statements.label(), "ft01-Statements");
        assert!(FeatureKind::CyclomaticComplexity
            .label()
            .starts_with("ft36"));
    }

    #[test]
    fn zeros_vector_has_right_len() {
        assert_eq!(Features::zeros().as_slice().len(), FeatureKind::COUNT);
    }

    #[test]
    fn distance_is_metric_like() {
        let a = Features::zeros();
        let mut b = Features::zeros();
        b.set(FeatureKind::Loops, 3.0);
        b.set(FeatureKind::Calls, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong feature count")]
    fn from_values_validates_length() {
        let _ = Features::from_values(vec![0.0; 3]);
    }

    #[test]
    fn indexing_by_kind() {
        let mut f = Features::zeros();
        f.bump(FeatureKind::MulDivOps, 2.0);
        f.bump(FeatureKind::MulDivOps, 1.0);
        assert_eq!(f[FeatureKind::MulDivOps], 3.0);
    }
}
