//! Feature normalisation and dimensionality reduction.
//!
//! COBAYN reduces the Milepost feature space with exploratory factor
//! analysis before feeding it to the Bayesian network. We implement the
//! same pipeline shape: z-score normalisation over a training corpus
//! followed by PCA (power iteration with deflation), keeping the top
//! components. Downstream code then discretises the projected values.

use crate::features::{FeatureKind, Features};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fitted normalise-and-project transformation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureReducer {
    mean: Vec<f64>,
    std: Vec<f64>,
    components: Vec<Vec<f64>>,
}

/// Error fitting a reducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two training vectors were supplied.
    TooFewSamples,
    /// More components requested than features exist.
    TooManyComponents,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples => write!(f, "need at least two training samples"),
            FitError::TooManyComponents => {
                write!(f, "cannot extract more components than features")
            }
        }
    }
}

impl std::error::Error for FitError {}

impl FeatureReducer {
    /// Fits a reducer with `k` principal components on a training corpus.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] when the corpus is too small or `k` exceeds
    /// the feature count.
    pub fn fit(corpus: &[Features], k: usize) -> Result<Self, FitError> {
        let d = FeatureKind::COUNT;
        if corpus.len() < 2 {
            return Err(FitError::TooFewSamples);
        }
        if k > d {
            return Err(FitError::TooManyComponents);
        }
        let n = corpus.len() as f64;
        let mut mean = vec![0.0; d];
        for f in corpus {
            for (m, v) in mean.iter_mut().zip(f.as_slice()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0; d];
        for f in corpus {
            for ((s, v), m) in std.iter_mut().zip(f.as_slice()).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: harmless passthrough
            }
        }
        // Normalised data matrix.
        let data: Vec<Vec<f64>> = corpus
            .iter()
            .map(|f| {
                f.as_slice()
                    .iter()
                    .zip(&mean)
                    .zip(&std)
                    .map(|((v, m), s)| (v - m) / s)
                    .collect()
            })
            .collect();
        // Covariance (d × d). Index-based loops: the upper-triangle
        // access pattern does not map onto iterator adapters cleanly.
        #[allow(clippy::needless_range_loop)]
        let mut cov = vec![vec![0.0; d]; d];
        for row in &data {
            for i in 0..d {
                for j in i..d {
                    cov[i][j] += row[i] * row[j];
                }
            }
        }
        #[allow(clippy::needless_range_loop)] // mirrored triangle writes
        for i in 0..d {
            for j in i..d {
                cov[i][j] /= n;
                cov[j][i] = cov[i][j];
            }
        }
        let components = principal_components(cov, k);
        Ok(FeatureReducer {
            mean,
            std,
            components,
        })
    }

    /// Projects a feature vector to the reduced space.
    pub fn project(&self, f: &Features) -> Vec<f64> {
        let z: Vec<f64> = f
            .as_slice()
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| (v - m) / s)
            .collect();
        self.components
            .iter()
            .map(|c| c.iter().zip(&z).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// Top-`k` eigenvectors of a symmetric matrix by power iteration with
/// deflation. Adequate for our ≤36-dimensional, well-separated spectra.
fn principal_components(mut cov: Vec<Vec<f64>>, k: usize) -> Vec<Vec<f64>> {
    let d = cov.len();
    let mut comps = Vec::with_capacity(k);
    for ci in 0..k {
        // Deterministic start vector that is unlikely to be orthogonal to
        // the dominant eigenvector.
        let mut v: Vec<f64> = (0..d)
            .map(|i| 1.0 + ((i * 31 + ci * 17) % 7) as f64 * 0.1)
            .collect();
        orthogonalize(&mut v, &comps);
        normalize(&mut v);
        let mut eigenvalue = 0.0;
        for _ in 0..300 {
            let mut w = vec![0.0; d];
            for i in 0..d {
                for j in 0..d {
                    w[i] += cov[i][j] * v[j];
                }
            }
            // Keep the iterate inside the orthogonal complement of the
            // components already found; without this, rounding noise in a
            // (near-)degenerate tail subspace drifts back towards them.
            orthogonalize(&mut w, &comps);
            let norm = normalize(&mut w);
            if norm < 1e-12 {
                // Deflated matrix is numerically zero: keep the current
                // orthonormal direction as an (arbitrary) basis vector.
                break;
            }
            let delta: f64 = w.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
            v = w;
            eigenvalue = norm;
            if delta < 1e-12 {
                break;
            }
        }
        // Deflate: cov -= lambda v vᵀ.
        for i in 0..d {
            for j in 0..d {
                cov[i][j] -= eigenvalue * v[i] * v[j];
            }
        }
        comps.push(v);
    }
    comps
}

/// Removes the projections of `v` onto each vector of `basis`
/// (classical Gram-Schmidt; basis vectors are unit length).
fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(a, c)| a * c).sum();
        for (x, c) in v.iter_mut().zip(b) {
            *x -= dot * c;
        }
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-300 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a corpus where feature 0 and 1 vary together (one strong
    /// direction) and feature 2 carries small independent noise.
    fn synthetic_corpus() -> Vec<Features> {
        (0..20)
            .map(|i| {
                let mut v = vec![0.0; FeatureKind::COUNT];
                let t = f64::from(i);
                v[0] = 3.0 * t;
                v[1] = -3.0 * t;
                v[2] = ((i * 7) % 5) as f64 * 0.1;
                Features::from_values(v)
            })
            .collect()
    }

    #[test]
    fn fit_requires_two_samples() {
        assert_eq!(
            FeatureReducer::fit(&[Features::zeros()], 2).unwrap_err(),
            FitError::TooFewSamples
        );
    }

    #[test]
    fn fit_rejects_too_many_components() {
        let corpus = synthetic_corpus();
        assert_eq!(
            FeatureReducer::fit(&corpus, FeatureKind::COUNT + 1).unwrap_err(),
            FitError::TooManyComponents
        );
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        let corpus = synthetic_corpus();
        let r = FeatureReducer::fit(&corpus, 1).unwrap();
        // Projections must separate small-t from large-t samples linearly.
        let p0 = r.project(&corpus[0])[0];
        let p10 = r.project(&corpus[10])[0];
        let p19 = r.project(&corpus[19])[0];
        assert!((p10 - (p0 + p19) / 2.0).abs() < 0.2, "{p0} {p10} {p19}");
        assert!((p19 - p0).abs() > 1.0);
    }

    #[test]
    fn components_are_orthonormal() {
        let corpus = synthetic_corpus();
        let r = FeatureReducer::fit(&corpus, 3).unwrap();
        for (i, a) in r.components.iter().enumerate() {
            let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for b in &r.components[..i] {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-4, "components not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn projection_dimension_matches_k() {
        let corpus = synthetic_corpus();
        let r = FeatureReducer::fit(&corpus, 4).unwrap();
        assert_eq!(r.project(&corpus[3]).len(), 4);
    }

    #[test]
    fn constant_features_do_not_produce_nan() {
        let corpus: Vec<Features> = (0..5)
            .map(|i| {
                let mut v = vec![2.5; FeatureKind::COUNT]; // all constant
                v[0] = f64::from(i);
                Features::from_values(v)
            })
            .collect();
        let r = FeatureReducer::fit(&corpus, 2).unwrap();
        for f in &corpus {
            assert!(r.project(f).iter().all(|x| x.is_finite()));
        }
    }
}
