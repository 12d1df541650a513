//! A discrete Bayesian network with tabular CPDs.
//!
//! Nodes are added in topological order (parents must already exist), so
//! the structure is a DAG by construction. Parameters are learned from
//! complete data with Laplace smoothing; inference needs are modest —
//! COBAYN ranks full assignments under fixed evidence, for which the
//! joint probability suffices — plus ancestral sampling for generation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A discrete Bayesian network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BayesianNetwork {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    name: String,
    arity: usize,
    parents: Vec<usize>,
    /// `cpt[parent_combo_index][value]`, rows sum to 1.
    cpt: Vec<Vec<f64>>,
}

/// Errors building or training a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BnError {
    /// A parent index refers to a node added later (or not at all).
    BadParent {
        /// Offending node name.
        node: String,
        /// The invalid parent index.
        parent: usize,
    },
    /// Node arity must be at least 2.
    BadArity(String),
    /// A training row has the wrong length or an out-of-range value.
    BadRow(usize),
}

impl fmt::Display for BnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BnError::BadParent { node, parent } => {
                write!(
                    f,
                    "node `{node}`: parent index {parent} is not an earlier node"
                )
            }
            BnError::BadArity(node) => write!(f, "node `{node}`: arity must be >= 2"),
            BnError::BadRow(i) => write!(f, "training row {i} is malformed"),
        }
    }
}

impl std::error::Error for BnError {}

impl BayesianNetwork {
    /// An empty network.
    pub fn new() -> Self {
        BayesianNetwork { nodes: Vec::new() }
    }

    /// Adds a node with the given arity and parent indices; returns its
    /// index. Parents must have smaller indices (topological insertion),
    /// which makes cycles unrepresentable.
    ///
    /// # Errors
    ///
    /// Returns [`BnError`] on arity < 2 or a forward/self parent
    /// reference.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        parents: Vec<usize>,
    ) -> Result<usize, BnError> {
        let name = name.into();
        if arity < 2 {
            return Err(BnError::BadArity(name));
        }
        let idx = self.nodes.len();
        for &p in &parents {
            if p >= idx {
                return Err(BnError::BadParent {
                    node: name,
                    parent: p,
                });
            }
        }
        let combos = parents
            .iter()
            .map(|&p| self.nodes[p].arity)
            .product::<usize>()
            .max(1);
        // Uniform prior until fitted.
        let cpt = vec![vec![1.0 / arity as f64; arity]; combos];
        self.nodes.push(Node {
            name,
            arity,
            parents,
            cpt,
        });
        Ok(idx)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node name by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn name(&self, idx: usize) -> &str {
        &self.nodes[idx].name
    }

    /// Parent indices of a node.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn parents(&self, idx: usize) -> &[usize] {
        &self.nodes[idx].parents
    }

    fn combo_index(&self, node: &Node, assignment: &[usize]) -> usize {
        let mut idx = 0;
        for &p in &node.parents {
            idx = idx * self.nodes[p].arity + assignment[p];
        }
        idx
    }

    /// Learns all CPTs from complete data rows (`row[i]` = value of node
    /// `i`) with Laplace smoothing `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::BadRow`] when a row has the wrong length or an
    /// out-of-range value.
    pub fn fit(&mut self, rows: &[Vec<usize>], alpha: f64) -> Result<(), BnError> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.nodes.len() {
                return Err(BnError::BadRow(i));
            }
            for (v, n) in row.iter().zip(&self.nodes) {
                if *v >= n.arity {
                    return Err(BnError::BadRow(i));
                }
            }
        }
        for ni in 0..self.nodes.len() {
            let node = self.nodes[ni].clone();
            let combos = node.cpt.len();
            let mut counts = vec![vec![alpha; node.arity]; combos];
            for row in rows {
                let c = self.combo_index(&node, row);
                counts[c][row[ni]] += 1.0;
            }
            for row_counts in &mut counts {
                let total: f64 = row_counts.iter().sum();
                for v in row_counts.iter_mut() {
                    *v /= total;
                }
            }
            self.nodes[ni].cpt = counts;
        }
        Ok(())
    }

    /// Joint probability of a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length or any value is out of range.
    pub fn joint(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.nodes.len(), "assignment length");
        let mut p = 1.0;
        for (ni, node) in self.nodes.iter().enumerate() {
            let c = self.combo_index(node, assignment);
            p *= node.cpt[c][assignment[ni]];
        }
        p
    }

    /// Ancestral sampling with optional clamped evidence
    /// (`evidence[i] = Some(v)` fixes node `i` to `v`).
    ///
    /// # Panics
    ///
    /// Panics if `evidence.len()` differs from the node count.
    pub fn sample<R: Rng>(&self, rng: &mut R, evidence: &[Option<usize>]) -> Vec<usize> {
        assert_eq!(evidence.len(), self.nodes.len(), "evidence length");
        let mut assignment = vec![0usize; self.nodes.len()];
        for (ni, node) in self.nodes.iter().enumerate() {
            if let Some(v) = evidence[ni] {
                assignment[ni] = v;
                continue;
            }
            let c = self.combo_index(node, &assignment);
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = node.arity - 1;
            for (v, p) in node.cpt[c].iter().enumerate() {
                acc += p;
                if u < acc {
                    chosen = v;
                    break;
                }
            }
            assignment[ni] = chosen;
        }
        assignment
    }

    /// Checks that all CPT rows are proper distributions (within `tol`).
    pub fn validate(&self, tol: f64) -> bool {
        self.nodes.iter().all(|n| {
            n.cpt.iter().all(|row| {
                let s: f64 = row.iter().sum();
                (s - 1.0).abs() <= tol && row.iter().all(|p| (0.0..=1.0).contains(p))
            })
        })
    }
}

impl Default for BayesianNetwork {
    fn default() -> Self {
        Self::new()
    }
}

/// Empirical mutual information (nats) between two discrete columns.
///
/// # Panics
///
/// Panics if the columns have different lengths or are empty.
pub fn mutual_information(xs: &[usize], ys: &[usize], x_arity: usize, y_arity: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "column lengths differ");
    assert!(!xs.is_empty(), "empty columns");
    let n = xs.len() as f64;
    let mut joint = vec![vec![0.0f64; y_arity]; x_arity];
    let mut px = vec![0.0f64; x_arity];
    let mut py = vec![0.0f64; y_arity];
    for (&x, &y) in xs.iter().zip(ys) {
        joint[x][y] += 1.0;
        px[x] += 1.0;
        py[y] += 1.0;
    }
    let mut mi = 0.0;
    for x in 0..x_arity {
        for y in 0..y_arity {
            let pxy = joint[x][y] / n;
            if pxy > 0.0 {
                mi += pxy * (pxy / ((px[x] / n) * (py[y] / n))).ln();
            }
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A -> B network where B strongly follows A.
    fn chain() -> BayesianNetwork {
        let mut bn = BayesianNetwork::new();
        let a = bn.add_node("A", 2, vec![]).unwrap();
        bn.add_node("B", 2, vec![a]).unwrap();
        let rows: Vec<Vec<usize>> = (0..100)
            .map(|i| {
                let a = usize::from(i % 3 == 0); // P(A=1) ~ 1/3
                let b = a; // B copies A
                vec![a, b]
            })
            .collect();
        bn.fit(&rows, 0.5).unwrap();
        bn
    }

    #[test]
    fn dag_by_construction() {
        let mut bn = BayesianNetwork::new();
        let a = bn.add_node("A", 2, vec![]).unwrap();
        assert!(matches!(
            bn.add_node("B", 2, vec![5]),
            Err(BnError::BadParent { .. })
        ));
        assert!(bn.add_node("B", 2, vec![a]).is_ok());
        assert!(matches!(
            bn.add_node("C", 1, vec![]),
            Err(BnError::BadArity(_))
        ));
    }

    #[test]
    fn fit_learns_dependency() {
        let bn = chain();
        assert!(bn.validate(1e-9));
        // P(A=1, B=1) ~ 1/3, P(A=1, B=0) ~ 0.
        assert!(bn.joint(&[1, 1]) > 0.25);
        assert!(bn.joint(&[1, 0]) < 0.05);
    }

    #[test]
    fn joint_sums_to_one() {
        let bn = chain();
        let total: f64 = (0..2)
            .flat_map(|a| (0..2).map(move |b| (a, b)))
            .map(|(a, b)| bn.joint(&[a, b]))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn malformed_rows_rejected() {
        let mut bn = BayesianNetwork::new();
        bn.add_node("A", 2, vec![]).unwrap();
        assert_eq!(bn.fit(&[vec![0, 1]], 1.0), Err(BnError::BadRow(0)));
        assert_eq!(bn.fit(&[vec![7]], 1.0), Err(BnError::BadRow(0)));
    }

    #[test]
    fn sampling_respects_evidence_and_distribution() {
        let bn = chain();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut b_ones = 0;
        for _ in 0..500 {
            let s = bn.sample(&mut rng, &[Some(1), None]);
            assert_eq!(s[0], 1);
            b_ones += s[1];
        }
        // B copies A: with A clamped to 1, B must be 1 almost always.
        assert!(b_ones > 450, "b_ones={b_ones}");
    }

    #[test]
    fn mi_detects_dependence_and_independence() {
        let xs: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let copy = xs.clone();
        let indep: Vec<usize> = (0..200).map(|i| (i / 2) % 2).collect();
        let mi_dep = mutual_information(&xs, &copy, 2, 2);
        let mi_ind = mutual_information(&xs, &indep, 2, 2);
        assert!(mi_dep > 0.6, "dependent MI {mi_dep}"); // ln 2 ≈ 0.693
        assert!(mi_ind < 0.01, "independent MI {mi_ind}");
        assert!(mi_dep > mi_ind * 10.0);
    }

    #[test]
    fn unfitted_network_is_uniform() {
        let mut bn = BayesianNetwork::new();
        bn.add_node("A", 4, vec![]).unwrap();
        assert!((bn.joint(&[2]) - 0.25).abs() < 1e-12);
        assert!(bn.validate(1e-12));
    }
}
