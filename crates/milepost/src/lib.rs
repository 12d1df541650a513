//! # milepost — static program features for compiler autotuning
//!
//! Reimplementation of the role GCC-Milepost plays in the SOCRATES
//! toolchain (DATE 2018): extract a static feature vector from every
//! kernel so COBAYN can predict promising compiler-flag combinations for
//! unseen code from combinations that worked on similar code.
//!
//! - [`extract_function`] walks a [`minic`] AST and fills the 36-counter
//!   [`Features`] vector (loop structure, instruction mix, memory access
//!   shape, control density);
//! - [`FeatureReducer`] mirrors COBAYN's factor-analysis step: z-score
//!   normalisation + PCA projection to a handful of components.
//!
//! ## Example
//!
//! ```
//! use milepost::{extract_function, FeatureKind};
//!
//! let tu = minic::parse(
//!     "void k(int n, double A[100]) {
//!          for (int i = 0; i < n; i++) { A[i] = A[i] * 2.0; }
//!      }",
//! ).unwrap();
//! let f = extract_function(&tu, "k").unwrap();
//! assert_eq!(f[FeatureKind::Loops], 1.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod extract;
mod features;
mod reduce;

pub use extract::{extract_function, UnknownFunctionError};
pub use features::{FeatureKind, Features};
pub use reduce::{FeatureReducer, FitError};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use polybench::{App, Dataset};

    fn kernel_features(app: App) -> Features {
        let src = polybench::source(app, Dataset::Large);
        let tu = minic::parse(&src).unwrap();
        extract_function(&tu, &app.kernel_name()).unwrap()
    }

    #[test]
    fn all_polybench_kernels_extract() {
        for app in App::ALL {
            let f = kernel_features(app);
            assert!(f[FeatureKind::Loops] >= 2.0, "{app}: too few loops");
            assert!(f[FeatureKind::Statements] > 0.0, "{app}");
        }
    }

    #[test]
    fn gemm_kernels_have_two_triple_nests() {
        let f = kernel_features(App::TwoMm);
        assert_eq!(f[FeatureKind::TripleNests], 2.0);
        let f3 = kernel_features(App::ThreeMm);
        assert_eq!(f3[FeatureKind::TripleNests], 3.0);
    }

    #[test]
    fn nussinov_is_the_branchiest_kernel() {
        let branchiness = |app: App| {
            let f = kernel_features(app);
            f[FeatureKind::IfStatements] / f[FeatureKind::Statements].max(1.0)
        };
        let nussinov = branchiness(App::Nussinov);
        for app in App::ALL {
            if app != App::Nussinov {
                assert!(branchiness(app) < nussinov, "{app} branchier than nussinov");
            }
        }
    }

    #[test]
    fn stencils_have_wide_access_fans() {
        // seidel reads 9 neighbours in one statement: far more array
        // accesses per statement-in-loop than gemm kernels.
        let density = |app: App| {
            let f = kernel_features(app);
            f[FeatureKind::ArrayAccesses] / f[FeatureKind::StatementsInLoops].max(1.0)
        };
        assert!(density(App::Seidel2d) > density(App::TwoMm));
    }

    #[test]
    fn feature_vectors_distinguish_all_apps() {
        let all: Vec<Features> = App::ALL.iter().map(|&a| kernel_features(a)).collect();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(
                    all[i].distance(&all[j]) > 1e-9,
                    "{} and {} have identical features",
                    App::ALL[i],
                    App::ALL[j]
                );
            }
        }
    }

    #[test]
    fn reducer_fits_on_polybench_corpus() {
        let corpus: Vec<Features> = App::ALL.iter().map(|&a| kernel_features(a)).collect();
        let r = FeatureReducer::fit(&corpus, 4).unwrap();
        // Projections stay finite and apps remain distinguishable.
        let proj: Vec<Vec<f64>> = corpus.iter().map(|f| r.project(f)).collect();
        for p in &proj {
            assert!(p.iter().all(|v| v.is_finite()));
        }
        let mut distinct = 0;
        for i in 0..proj.len() {
            for j in (i + 1)..proj.len() {
                let d: f64 = proj[i]
                    .iter()
                    .zip(&proj[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if d > 1e-6 {
                    distinct += 1;
                }
            }
        }
        assert_eq!(distinct, 66, "all pairs distinguishable after reduction");
    }
}
