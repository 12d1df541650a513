//! Compiler-flag response model.
//!
//! Replaces the real GCC in the simulation: maps a
//! ([`WorkloadProfile`], [`CompilerOptions`]) pair to a single-thread
//! *speedup* (relative to `-O1`) and a *power factor* (relative dynamic
//! power per active core). Effects are feature-dependent — unrolling helps
//! branch-free loop nests, unsafe-math helps FP-dense code, `-fno-inline`
//! hurts call-heavy code — plus a small deterministic per-(kernel, flags)
//! idiosyncrasy term that mimics the unpredictable interactions iterative
//! compilation observes in practice. The structured part is what COBAYN
//! learns; the idiosyncrasy is the noise floor it cannot.

use crate::config::{CompilerFlag, CompilerOptions, OptLevel};
use crate::workload::WorkloadProfile;
use serde::{Deserialize, Serialize};

/// Deterministic compiler-response model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlagEffectModel {
    /// Scale of the per-(kernel, flag-set) idiosyncrasy term (default 0.03,
    /// i.e. up to ±3% unexplained variation).
    pub idiosyncrasy: f64,
}

impl Default for FlagEffectModel {
    fn default() -> Self {
        FlagEffectModel { idiosyncrasy: 0.03 }
    }
}

impl FlagEffectModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-thread speedup of `co` relative to `-O1` for this workload.
    /// Always strictly positive; typical range 0.7–1.8.
    pub fn speedup(&self, w: &WorkloadProfile, co: &CompilerOptions) -> f64 {
        let mut s = self.level_speedup(w, co.level);
        for flag in co.flags {
            s *= self.flag_multiplier(w, flag, co.level);
        }
        s *= 1.0 + self.idiosyncrasy_term(w, co);
        s.max(0.05)
    }

    /// Relative dynamic power per active core (1.0 = `-O1` baseline).
    ///
    /// Faster code keeps more functional units busy: the factor grows with
    /// the ILP-derived part of the speedup, and `-Os` runs slightly cooler.
    pub fn power_factor(&self, w: &WorkloadProfile, co: &CompilerOptions) -> f64 {
        let s = self.speedup(w, co);
        let base = match co.level {
            OptLevel::Os => 0.94,
            OptLevel::O1 => 1.0,
            OptLevel::O2 => 1.03,
            OptLevel::O3 => 1.07,
        };
        let unroll_extra = if co.has(CompilerFlag::UnrollAllLoops) {
            0.02
        } else {
            0.0
        };
        (base + 0.22 * (s - 1.0).max(0.0) + unroll_extra).clamp(0.85, 1.35)
    }

    fn level_speedup(&self, w: &WorkloadProfile, level: OptLevel) -> f64 {
        // Vectorisation (the big -O3 win) needs FP-dense, branch-poor loops.
        let vectorizability = w.fp_intensity * (1.0 - w.branch_density) * w.loop_nest_depth;
        match level {
            // -Os: smaller code; loses scheduling aggressiveness, gains a
            // little on branchy code through icache friendliness.
            OptLevel::Os => 0.86 + 0.06 * w.branch_density,
            OptLevel::O1 => 1.0,
            OptLevel::O2 => 1.18 + 0.05 * w.loop_nest_depth,
            OptLevel::O3 => 1.20 + 0.05 * w.loop_nest_depth + 0.22 * vectorizability,
        }
    }

    fn flag_multiplier(&self, w: &WorkloadProfile, flag: CompilerFlag, level: OptLevel) -> f64 {
        let stencil = if w.stencil { 1.0 } else { 0.0 };
        match flag {
            // Re-association / FMA contraction: helps FP reductions, more so
            // under -O3 where it unlocks vectorisation of reductions.
            CompilerFlag::UnsafeMathOptimizations => {
                let o3_bonus = if level == OptLevel::O3 { 0.05 } else { 0.0 };
                1.0 + (0.10 + o3_bonus) * w.fp_intensity * (1.0 - 0.4 * stencil)
            }
            // Static branch prediction off: mildly harmful with branches,
            // slightly helpful for perfectly regular code (shorter passes,
            // no profile-guided block reordering to get wrong).
            CompilerFlag::NoGuessBranchProbability => {
                1.0 + 0.025 * (1.0 - w.branch_density) - 0.07 * w.branch_density
            }
            // Induction-variable optimisation off: hurts deep loop nests,
            // occasionally helps stencils where ivopts picks bad candidates.
            CompilerFlag::NoIvopts => 1.0 - 0.06 * w.loop_nest_depth + 0.05 * stencil,
            // Loop optimiser off: loses interchange/distribution on deep
            // nests; near-neutral for flat or branchy code.
            CompilerFlag::NoTreeLoopOptimize => {
                1.0 - 0.09 * w.loop_nest_depth * (1.0 - w.branch_density)
            }
            // No inlining: costs call-dense code, trims icache pressure a
            // touch for large kernels.
            CompilerFlag::NoInlineFunctions => {
                1.0 - 0.14 * w.call_density + 0.01 * (1.0 - w.call_density)
            }
            // Aggressive unrolling: rewards branch-free loop nests, costs
            // branchy/stencil code icache and register pressure.
            CompilerFlag::UnrollAllLoops => {
                1.0 + 0.10 * (1.0 - w.branch_density) * w.loop_nest_depth
                    - 0.05 * w.branch_density
                    - 0.03 * stencil
            }
        }
    }

    /// Deterministic pseudo-random term in `[-idiosyncrasy, +idiosyncrasy]`
    /// derived from the kernel name and exact flag set.
    fn idiosyncrasy_term(&self, w: &WorkloadProfile, co: &CompilerOptions) -> f64 {
        let mut h = fnv1a(w.name.as_bytes());
        h = fnv1a_u64(h, co.level as u64 + 1);
        h = fnv1a_u64(h, u64::from(co.flag_mask()) + 0x9E37);
        // Map to [-1, 1), then scale.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        (2.0 * unit - 1.0) * self.idiosyncrasy
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompilerFlag::*, CompilerOptions as CO, OptLevel::*};

    fn gemm_like() -> WorkloadProfile {
        WorkloadProfile::builder("gemm")
            .fp_intensity(0.9)
            .branch_density(0.02)
            .loop_nest_depth(1.0)
            .build()
    }

    fn branchy() -> WorkloadProfile {
        WorkloadProfile::builder("nussinov")
            .fp_intensity(0.3)
            .branch_density(0.6)
            .loop_nest_depth(0.8)
            .build()
    }

    #[test]
    fn o3_beats_o1_for_vectorizable_code() {
        let m = FlagEffectModel::new();
        let w = gemm_like();
        assert!(m.speedup(&w, &CO::level(O3)) > m.speedup(&w, &CO::level(O1)) * 1.2);
    }

    #[test]
    fn os_is_slower_but_cooler() {
        let m = FlagEffectModel::new();
        let w = gemm_like();
        assert!(m.speedup(&w, &CO::level(Os)) < m.speedup(&w, &CO::level(O1)));
        assert!(m.power_factor(&w, &CO::level(Os)) < m.power_factor(&w, &CO::level(O3)));
    }

    #[test]
    fn unroll_helps_regular_hurts_branchy() {
        let m = FlagEffectModel { idiosyncrasy: 0.0 };
        let with = CO::with_flags(O2, [UnrollAllLoops]);
        let without = CO::level(O2);
        let w = gemm_like();
        assert!(m.speedup(&w, &with) > m.speedup(&w, &without));
        let b = branchy();
        // For branchy code the gain shrinks (relative benefit smaller).
        let gain_regular = m.speedup(&w, &with) / m.speedup(&w, &without);
        let gain_branchy = m.speedup(&b, &with) / m.speedup(&b, &without);
        assert!(gain_regular > gain_branchy);
    }

    #[test]
    fn unsafe_math_scales_with_fp_intensity() {
        let m = FlagEffectModel { idiosyncrasy: 0.0 };
        let co = CO::with_flags(O2, [UnsafeMathOptimizations]);
        let base = CO::level(O2);
        let hi = WorkloadProfile::builder("fp").fp_intensity(1.0).build();
        let lo = WorkloadProfile::builder("int").fp_intensity(0.1).build();
        let gain_hi = m.speedup(&hi, &co) / m.speedup(&hi, &base);
        let gain_lo = m.speedup(&lo, &co) / m.speedup(&lo, &base);
        assert!(gain_hi > gain_lo);
        assert!(gain_hi > 1.05);
    }

    #[test]
    fn no_inline_costs_call_dense_code() {
        let m = FlagEffectModel { idiosyncrasy: 0.0 };
        let co = CO::with_flags(O2, [NoInlineFunctions]);
        let callsy = WorkloadProfile::builder("callsy").call_density(0.8).build();
        let flat = WorkloadProfile::builder("flat").call_density(0.0).build();
        assert!(m.speedup(&callsy, &co) < m.speedup(&callsy, &CO::level(O2)));
        assert!(m.speedup(&flat, &co) >= m.speedup(&flat, &CO::level(O2)) * 0.99);
    }

    #[test]
    fn speedup_is_deterministic() {
        let m = FlagEffectModel::new();
        let w = gemm_like();
        let co = CO::with_flags(O3, [UnsafeMathOptimizations, UnrollAllLoops]);
        assert_eq!(m.speedup(&w, &co), m.speedup(&w, &co));
    }

    #[test]
    fn idiosyncrasy_differs_per_kernel_but_is_bounded() {
        let m = FlagEffectModel::new();
        let co = CO::with_flags(O2, [NoIvopts]);
        let w1 = WorkloadProfile::builder("a").build();
        let w2 = WorkloadProfile::builder("b").build();
        let s1 = m.speedup(&w1, &co);
        let s2 = m.speedup(&w2, &co);
        assert_ne!(s1, s2);
        let clean = FlagEffectModel { idiosyncrasy: 0.0 };
        let base = clean.speedup(&w1, &co);
        assert!((s1 / base - 1.0).abs() <= 0.0301);
    }

    #[test]
    fn speedups_stay_positive_over_whole_cobayn_space() {
        let m = FlagEffectModel::new();
        for w in [gemm_like(), branchy()] {
            for co in CO::cobayn_space() {
                let s = m.speedup(&w, &co);
                assert!(s > 0.0 && s.is_finite(), "{co} -> {s}");
                let p = m.power_factor(&w, &co);
                assert!((0.85..=1.35).contains(&p));
            }
        }
    }

    #[test]
    fn best_flags_differ_between_kernel_classes() {
        // The heterogeneity that motivates the whole paper: the argmax
        // configuration must differ between a dense FP kernel and a
        // branchy integer kernel.
        let m = FlagEffectModel::new();
        let best = |w: &WorkloadProfile| {
            CO::cobayn_space()
                .into_iter()
                .max_by(|a, b| {
                    m.speedup(w, a)
                        .partial_cmp(&m.speedup(w, b))
                        .expect("finite")
                })
                .expect("non-empty space")
        };
        assert_ne!(best(&gemm_like()), best(&branchy()));
    }
}
