//! Deterministic random mini-C program generator for differential
//! engine testing.
//!
//! [`generate`] maps a seed to a small, always-terminating kernel
//! program in the executable dialect both SOCRATES execution engines
//! support: global arrays with literal dimensions, an `init_array`
//! filler, and a `kernel` entry built from bounded loop nests, branches,
//! compound assignments, casts, `sqrt`, ternaries and short-circuit
//! logic. Every array subscript is constructed in-bounds by design
//! (loop variables run exactly over the array extents), every loop has a
//! structurally decreasing bound, and division only ever uses non-zero
//! literal divisors — so any generated program must run to completion,
//! and an engine disagreement is a real semantics bug, never a flaky
//! input.
//!
//! Generated programs may reference named specialization parameters
//! (listed in [`GeneratedProgram::params`]) in value positions and in an
//! optional `num_threads` pragma; the caller binds them to arbitrary
//! integers, which is how the proptest suite exercises arbitrary pragma
//! configurations.
//!
//! [`generate_adversarial`] keeps the same skeleton but deliberately
//! injects the trap fault classes (out-of-bounds accesses, reads of
//! uninitialized cells, zero divisors) — fuel for the checked-VM
//! suites, which hold its traps to the armed faults exactly.

/// A generated program plus the contract the caller must satisfy.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The program text (parseable with [`crate::parse`]).
    pub source: String,
    /// Names of specialization parameters the program references; each
    /// must be bound to an integer in the execution configuration.
    pub params: Vec<String>,
    /// The entry function name (always parameterless).
    pub entry: String,
    /// Fault classes armed by [`generate_adversarial`] (always empty
    /// for [`generate`], whose programs are fault-free by design).
    pub faults: Vec<ArmedFault>,
}

/// The run-time fault classes the checked VM traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// An array subscript exceeding the declared extent.
    OutOfBounds,
    /// A read of a never-initialized array cell.
    UninitRead,
    /// A division or remainder by zero.
    DivByZero,
}

/// One fault armed in an adversarial program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedFault {
    /// Which checked-VM trap class the fault belongs to.
    pub class: FaultClass,
    /// `true` when the faulting statement is unconditionally reached
    /// (the program *must* trap in checked mode); `false` when it is
    /// gated on a specialization parameter, so the caller's binding
    /// decides.
    pub definite: bool,
}

/// SplitMix64 — a tiny, high-quality, dependency-free PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct`/100.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

struct Gen {
    rng: Rng,
    /// The single literal array extent shared by every axis.
    d: u64,
    params: Vec<String>,
    /// Loop variables currently in scope (all iterate `0..d`).
    ivs: Vec<String>,
}

impl Gen {
    /// A parameter name, registering it on first use.
    fn param(&mut self) -> String {
        if self.params.is_empty() || (self.params.len() < 3 && self.rng.chance(40)) {
            let name = format!("P{}", self.params.len());
            self.params.push(name.clone());
            name
        } else {
            self.params[self.rng.below(self.params.len() as u64) as usize].clone()
        }
    }

    /// An always-in-bounds index expression over a loop variable.
    fn index(&mut self) -> String {
        let iv = self.ivs[self.rng.below(self.ivs.len() as u64) as usize].clone();
        match self.rng.below(4) {
            0 | 1 => iv,
            2 => format!("{} - 1 - {iv}", self.d),
            _ => format!("({iv} + {}) % {}", 1 + self.rng.below(self.d), self.d),
        }
    }

    /// An integer-valued expression (loop vars, params, literals,
    /// wrapping arithmetic, int array reads).
    fn int_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.chance(35) {
            return match self.rng.below(4) {
                0 => format!("{}", self.rng.below(9)),
                1 => self.ivs[self.rng.below(self.ivs.len() as u64) as usize].clone(),
                2 => self.param(),
                _ => format!("t[{}]", self.index()),
            };
        }
        let a = self.int_expr(depth - 1);
        let b = self.int_expr(depth - 1);
        match self.rng.below(7) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / {})", 2 + self.rng.below(4)),
            4 => format!("({a} % {})", 3 + self.rng.below(5)),
            5 => format!("({a} << {})", self.rng.below(3)),
            _ => format!("({} ? {a} : {b})", self.cond(depth - 1)),
        }
    }

    /// A float-valued expression (element reads, promotions, sqrt,
    /// ternaries over mixed types).
    fn float_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.chance(30) {
            return match self.rng.below(4) {
                0 => format!("{}.{}", self.rng.below(4), 25 * (1 + self.rng.below(3))),
                1 => format!("A[{}][{}]", self.index(), self.index()),
                2 => format!("v[{}]", self.index()),
                _ => format!("({} * 0.5)", self.int_expr(depth.saturating_sub(1))),
            };
        }
        let a = self.float_expr(depth - 1);
        let b = self.float_expr(depth - 1);
        match self.rng.below(7) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / 2.0)"),
            4 => format!("sqrt(({a} * {a}) + 1.0)"),
            5 => format!("({} ? {a} : {b})", self.cond(depth - 1)),
            _ => format!("(double)({})", self.int_expr(depth - 1)),
        }
    }

    /// A branch condition, including short-circuit combinations.
    fn cond(&mut self, depth: u32) -> String {
        let simple = match self.rng.below(4) {
            0 => {
                let iv = self.ivs[self.rng.below(self.ivs.len() as u64) as usize].clone();
                format!("({iv} % 2 == 0)")
            }
            1 => format!("(A[{}][{}] > 1.5)", self.index(), self.index()),
            2 => format!("({} > 2)", self.param()),
            _ => {
                let a = self.int_expr(1);
                format!("({a} < {})", 1 + self.rng.below(8))
            }
        };
        if depth > 0 && self.rng.chance(30) {
            let other = self.cond(0);
            if self.rng.chance(50) {
                format!("({simple} && {other})")
            } else {
                format!("({simple} || {other})")
            }
        } else {
            simple
        }
    }

    /// One statement writing into the global state.
    fn store_stmt(&mut self, indent: &str) -> String {
        match self.rng.below(6) {
            0 => format!(
                "{indent}A[{}][{}] = {};\n",
                self.index(),
                self.index(),
                self.float_expr(2)
            ),
            1 => {
                let op = ["+=", "-=", "*="][self.rng.below(3) as usize];
                format!(
                    "{indent}A[{}][{}] {op} {};\n",
                    self.index(),
                    self.index(),
                    self.float_expr(1)
                )
            }
            2 => format!("{indent}v[{}] = {};\n", self.index(), self.float_expr(2)),
            3 => format!("{indent}t[{}] = {};\n", self.index(), self.int_expr(2)),
            4 => {
                let op = ["+=", "^=", "&="][self.rng.below(3) as usize];
                format!("{indent}t[{}] {op} {};\n", self.index(), self.int_expr(1))
            }
            _ => format!("{indent}acc = acc + {};\n", self.float_expr(2)),
        }
    }

    /// A statement, possibly a conditional around stores.
    fn stmt(&mut self, indent: &str) -> String {
        if self.rng.chance(30) {
            let cond = self.cond(1);
            let mut s = format!("{indent}if ({cond}) {{\n");
            s.push_str(&self.store_stmt(&format!("{indent}  ")));
            s.push_str(&format!("{indent}}}"));
            if self.rng.chance(50) {
                s.push_str(" else {\n");
                s.push_str(&self.store_stmt(&format!("{indent}  ")));
                s.push_str(&format!("{indent}}}\n"));
            } else {
                s.push('\n');
            }
            s
        } else {
            self.store_stmt(indent)
        }
    }

    /// A 1- or 2-deep loop nest over the shared extent, optionally
    /// carrying a `num_threads` pragma bound to a parameter.
    fn loop_nest(&mut self, id: usize) -> String {
        let mut s = String::new();
        if self.rng.chance(30) {
            let p = self.param();
            s.push_str(&format!("#pragma omp parallel for num_threads({p})\n"));
        }
        let iv0 = format!("i{id}a");
        let d = self.d;
        s.push_str(&format!("  for (int {iv0} = 0; {iv0} < {d}; {iv0}++) {{\n"));
        self.ivs.push(iv0);
        if self.rng.chance(60) {
            let iv1 = format!("i{id}b");
            let header = if self.rng.chance(70) {
                format!("    for (int {iv1} = 0; {iv1} < {d}; {iv1}++) {{\n")
            } else {
                format!("    for (int {iv1} = {d} - 1; {iv1} >= 0; {iv1}--) {{\n")
            };
            s.push_str(&header);
            self.ivs.push(iv1);
            for _ in 0..=self.rng.below(2) {
                s.push_str(&self.stmt("      "));
            }
            self.ivs.pop();
            s.push_str("    }\n");
        } else {
            for _ in 0..=self.rng.below(2) {
                s.push_str(&self.stmt("    "));
            }
        }
        self.ivs.pop();
        s.push_str("  }\n");
        s
    }

    /// A while/do-while loop with a structurally decreasing counter.
    fn counter_loop(&mut self, id: usize) -> String {
        let k = format!("k{id}");
        let d = self.d;
        let mut s = String::new();
        self.ivs.push(k.clone());
        if self.rng.chance(50) {
            s.push_str(&format!("  int {k} = {d} - 1;\n"));
            s.push_str(&format!("  while ({k} > 0) {{\n"));
            s.push_str(&self.stmt("    "));
            s.push_str(&format!("    {k}--;\n  }}\n"));
        } else {
            s.push_str(&format!("  int {k} = 0;\n"));
            s.push_str("  do {\n");
            s.push_str(&self.stmt("    "));
            s.push_str(&format!("    {k}++;\n  }} while ({k} < {d});\n"));
        }
        self.ivs.pop();
        s
    }
}

/// Generates a deterministic random program from `seed`. Equal seeds
/// produce byte-identical sources.
pub fn generate(seed: u64) -> GeneratedProgram {
    let mut g = Gen {
        rng: Rng(seed),
        d: 0,
        params: Vec::new(),
        ivs: Vec::new(),
    };
    g.d = 3 + g.rng.below(5); // extents 3..=7
    let d = g.d;

    let mut src = String::new();
    src.push_str(&format!(
        "double A[{d}][{d}];\ndouble v[{d}];\nlong t[{d}];\ndouble acc;\n\n"
    ));
    src.push_str(&format!(
        "void init_array() {{\n  for (int i = 0; i < {d}; i++) {{\n    \
         v[i] = i * 0.75 + 1.0;\n    t[i] = (i * 5) % 9;\n    \
         for (int j = 0; j < {d}; j++)\n      \
         A[i][j] = ((i * 7 + j * 3) % 11) * 0.25 + 0.5;\n  }}\n}}\n\n"
    ));

    src.push_str("void kernel() {\n");
    let nests = 1 + g.rng.below(3);
    for id in 0..nests {
        src.push_str(&g.loop_nest(id as usize));
    }
    if g.rng.chance(40) {
        src.push_str(&g.counter_loop(99));
    }
    src.push_str(&format!("  acc += A[0][0] + v[{d} - 1];\n}}\n"));

    GeneratedProgram {
        source: src,
        params: g.params,
        entry: "kernel".to_string(),
        faults: Vec::new(),
    }
}

/// Generates a deterministic *adversarial* program from `seed`: the
/// same always-terminating skeleton as [`generate`], but seasoned with
/// the three fault classes the checked VM traps — out-of-bounds index
/// arithmetic, reads of never-initialized array cells, and zero
/// divisors. Each class is injected independently with moderate
/// probability (so a fraction of seeds stays clean), and within a class
/// the fault is either *definite* (always reached) or *conditional* on
/// a specialization parameter the caller binds: a conditional
/// out-of-bounds access fires when the parameter is above 5, a
/// conditional zero divisor when it is below 0. That is what makes the
/// checked-VM suites non-vacuous in both directions: programs that must
/// trap, programs that must not, and programs whose fate the parameter
/// binding decides.
///
/// Termination is never compromised: faults are extra statements (and
/// an init gap), all loop bounds stay structurally decreasing.
pub fn generate_adversarial(seed: u64) -> GeneratedProgram {
    let mut g = Gen {
        rng: Rng(seed ^ 0xADD_12E55),
        d: 0,
        params: Vec::new(),
        ivs: Vec::new(),
    };
    g.d = 3 + g.rng.below(5); // extents 3..=7
    let d = g.d;

    let inject_uninit = g.rng.chance(45);
    let inject_oob = g.rng.chance(45);
    let inject_div = g.rng.chance(45);
    let mut faults = Vec::new();
    if inject_uninit {
        faults.push(ArmedFault {
            class: FaultClass::UninitRead,
            definite: true,
        });
    }

    let mut src = String::new();
    src.push_str(&format!(
        "double A[{d}][{d}];\ndouble v[{d}];\nlong t[{d}];\ndouble u[{d}];\nlong z;\ndouble acc;\n\n"
    ));
    // The init gap: skip the first or last cell of `u` when the uninit
    // fault is armed, fill it completely otherwise.
    let (u_from, u_to, gap_cell) = if inject_uninit {
        if g.rng.chance(50) {
            (1, d, 0)
        } else {
            (0, d - 1, d - 1)
        }
    } else {
        (0, d, 0)
    };
    src.push_str(&format!(
        "void init_array() {{\n  z = 0;\n  for (int i = 0; i < {d}; i++) {{\n    \
         v[i] = i * 0.75 + 1.0;\n    t[i] = (i * 5) % 9 + 1;\n    \
         for (int j = 0; j < {d}; j++)\n      \
         A[i][j] = ((i * 7 + j * 3) % 11) * 0.25 + 0.5;\n  }}\n  \
         for (int i = {u_from}; i < {u_to}; i++) {{\n    u[i] = i * 0.5;\n  }}\n}}\n\n"
    ));

    src.push_str("void kernel() {\n");
    let nests = 1 + g.rng.below(2);
    for id in 0..nests {
        src.push_str(&g.loop_nest(id as usize));
    }
    if inject_oob {
        let variant = g.rng.below(3);
        match variant {
            // Definite direct overshoot.
            0 => src.push_str(&format!("  t[{}] = 7;\n", d + g.rng.below(3))),
            // Loop whose last iteration walks off the end.
            1 => src.push_str(&format!(
                "  for (int fi = 0; fi < {d}; fi++) {{\n    acc = acc + v[fi + 1];\n  }}\n"
            )),
            // Conditional on a caller-bound parameter.
            _ => {
                let p = g.param();
                src.push_str(&format!(
                    "  if ({p} > 5) {{\n    acc = acc + A[{d}][0];\n  }}\n"
                ));
            }
        }
        faults.push(ArmedFault {
            class: FaultClass::OutOfBounds,
            definite: variant < 2,
        });
    }
    if inject_div {
        let variant = g.rng.below(3);
        match variant {
            // Definite: `z` is zeroed by init_array.
            0 => src.push_str("  t[0] = (t[0] + 3) / z;\n"),
            // Definite, through the remainder operator.
            1 => src.push_str("  t[1] = 9 % (z * 2);\n"),
            // Conditional on a caller-bound parameter.
            _ => {
                let p = g.param();
                src.push_str(&format!("  if ({p} < 0) {{\n    t[0] = 5 / z;\n  }}\n"));
            }
        }
        faults.push(ArmedFault {
            class: FaultClass::DivByZero,
            definite: variant < 2,
        });
    }
    // The `u` read: the gap cell when the uninit fault is armed (a
    // checked-mode-only trap — the unchecked VM reads a zero), a
    // well-initialized cell otherwise.
    src.push_str(&format!("  acc += u[{gap_cell}];\n"));
    src.push_str(&format!("  acc += A[0][0] + v[{d} - 1];\n}}\n"));

    GeneratedProgram {
        source: src,
        params: g.params,
        entry: "kernel".to_string(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse() {
        for seed in 0..64 {
            let p = generate(seed);
            crate::parse(&p.source)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{}", p.source));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.source, b.source);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn seeds_vary_the_program() {
        assert_ne!(generate(1).source, generate(2).source);
    }

    #[test]
    fn adversarial_programs_parse() {
        for seed in 0..64 {
            let p = generate_adversarial(seed);
            crate::parse(&p.source)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{}", p.source));
        }
    }

    #[test]
    fn adversarial_generation_is_deterministic_and_distinct() {
        let a = generate_adversarial(42);
        let b = generate_adversarial(42);
        assert_eq!(a.source, b.source);
        assert_eq!(a.params, b.params);
        assert_ne!(a.source, generate(42).source);
    }

    #[test]
    fn adversarial_seeds_cover_every_fault_class_and_clean_programs() {
        let programs: Vec<GeneratedProgram> = (0..64).map(generate_adversarial).collect();
        for class in [
            FaultClass::OutOfBounds,
            FaultClass::UninitRead,
            FaultClass::DivByZero,
        ] {
            for definite in [true, false] {
                // Uninit reads are always definite by construction.
                if class == FaultClass::UninitRead && !definite {
                    continue;
                }
                assert!(
                    programs.iter().any(|p| p
                        .faults
                        .iter()
                        .any(|f| f.class == class && f.definite == definite)),
                    "no seed in 0..64 arms {class:?} (definite = {definite})"
                );
            }
        }
        let clean = programs.iter().filter(|p| p.faults.is_empty()).count();
        let definite = programs
            .iter()
            .filter(|p| p.faults.iter().any(|f| f.definite))
            .count();
        assert!(clean >= 4, "expected some clean programs, got {clean}");
        assert!(
            definite >= 24,
            "expected many definitely-trapping programs, got {definite}"
        );
    }
}
