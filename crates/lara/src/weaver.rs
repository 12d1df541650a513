//! The weaving engine: join-point queries and code actions over a
//! `minic` AST, with attribute/action accounting (the MANET role).
//!
//! Every `select_*`/`query_*` method *checks attributes* of the program
//! (and bumps the `attributes` counter per inspected property, as the
//! paper's Att column counts); every `insert_*`/`clone_*`/`replace_*`
//! method *performs actions* (the Act column).

use crate::metrics::WeavingMetrics;
use minic::ast::*;
use minic::pragma::Pragma;
use minic::visit::map_exprs_in_stmt;
use minic::TranslationUnit;
use std::fmt;

/// Error produced by weaving operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeaveError(pub String);

impl fmt::Display for WeaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "weave error: {}", self.0)
    }
}

impl std::error::Error for WeaveError {}

/// The weaver: owns the program being transformed plus the metric
/// counters.
#[derive(Debug, Clone)]
pub struct Weaver {
    tu: TranslationUnit,
    attributes: usize,
    actions: usize,
    original_loc: usize,
}

impl Weaver {
    /// Starts weaving over a parsed program.
    pub fn new(tu: TranslationUnit) -> Self {
        let original_loc = minic::logical_loc(&tu);
        Weaver {
            tu,
            attributes: 0,
            actions: 0,
            original_loc,
        }
    }

    /// The current program.
    pub fn program(&self) -> &TranslationUnit {
        &self.tu
    }

    /// Finishes weaving: returns the transformed program and the metrics.
    pub fn finish(self) -> (TranslationUnit, WeavingMetrics) {
        let weaved_loc = minic::logical_loc(&self.tu);
        (
            self.tu,
            WeavingMetrics {
                attributes: self.attributes,
                actions: self.actions,
                original_loc: self.original_loc,
                weaved_loc,
            },
        )
    }

    /// Metrics so far (without consuming the weaver).
    pub fn metrics(&self) -> WeavingMetrics {
        WeavingMetrics {
            attributes: self.attributes,
            actions: self.actions,
            original_loc: self.original_loc,
            weaved_loc: minic::logical_loc(&self.tu),
        }
    }

    fn att(&mut self, n: usize) {
        self.attributes += n;
    }

    fn act(&mut self, n: usize) {
        self.actions += n;
    }

    // ----- queries (attribute checks) ---------------------------------

    /// Finds a function definition by name. Checks the `name` attribute
    /// of every function until the match (as an aspect engine matching a
    /// pointcut would).
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the function does not exist.
    pub fn select_function(&mut self, name: &str) -> Result<Function, WeaveError> {
        let mut checked = 0;
        let mut found = None;
        for item in &self.tu.items {
            if let Item::Function(f) = item {
                checked += 1;
                if f.name == name && f.body.is_some() {
                    found = Some(f.clone());
                    break;
                }
            }
        }
        self.att(checked);
        found.ok_or_else(|| WeaveError(format!("function `{name}` not found")))
    }

    /// Reads a function's signature attributes (name, return type, every
    /// parameter's name and type).
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the function does not exist.
    pub fn query_signature(&mut self, name: &str) -> Result<(Type, Vec<Param>), WeaveError> {
        let f = self.select_function(name)?;
        // name + return type + (type, name) per parameter
        self.att(2 + 2 * f.params.len());
        Ok((f.ret.clone(), f.params.clone()))
    }

    /// Collects the indices (paths) of the outermost `for` loops of a
    /// function body. Inspects every top-level statement's kind plus,
    /// for pragmas, their payload (the "OpenMP pragma information" the
    /// paper's Att column mentions).
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the function does not exist.
    pub fn select_outer_loops(&mut self, name: &str) -> Result<Vec<usize>, WeaveError> {
        let f = self.select_function(name)?;
        let body = f.body.as_ref().expect("definition");
        let mut out = Vec::new();
        let mut checked = 0;
        for (i, s) in body.stmts.iter().enumerate() {
            checked += 1;
            match s {
                Stmt::For { .. } => {
                    // Before parallelising, the strategy inspects the loop
                    // header: init clause, bound and step (three further
                    // attribute checks per candidate loop).
                    checked += 3;
                    out.push(i);
                }
                Stmt::Pragma(_) => checked += 1,
                _ => {}
            }
        }
        self.att(checked);
        Ok(out)
    }

    /// Counts call expressions to `callee` in the whole program,
    /// inspecting every call site.
    pub fn select_calls_to(&mut self, callee: &str) -> usize {
        let mut total_calls = 0usize;
        let mut matching = 0usize;
        for item in &mut self.tu.items {
            if let Item::Function(f) = item {
                if let Some(body) = &mut f.body {
                    for s in &mut body.stmts {
                        map_exprs_in_stmt(s, &mut |e| {
                            if let Expr::Call { callee: c, .. } = e {
                                total_calls += 1;
                                if c == callee {
                                    matching += 1;
                                }
                            }
                            None
                        });
                    }
                }
            }
        }
        self.att(total_calls);
        matching
    }

    // ----- actions -----------------------------------------------------

    /// Clones a function under a new name, attaching the given pragmas
    /// to the clone, and appends it after the original.
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the source function does not exist.
    pub fn clone_function(
        &mut self,
        src: &str,
        new_name: &str,
        pragmas: Vec<Pragma>,
    ) -> Result<(), WeaveError> {
        let mut f = self.select_function(src)?;
        let pragma_count = pragmas.len();
        f.name = new_name.to_string();
        f.pragmas = pragmas;
        let pos = self
            .tu
            .items
            .iter()
            .position(|it| matches!(it, Item::Function(g) if g.name == src))
            .expect("function located by select_function");
        self.tu.items.insert(pos + 1, Item::Function(f));
        // clone + rename + each pragma attachment
        self.act(2 + pragma_count);
        Ok(())
    }

    /// Inserts an OpenMP pragma before the `stmt_index`-th statement of
    /// `function`'s body.
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] on a missing function or out-of-range index.
    pub fn insert_pragma_before_stmt(
        &mut self,
        function: &str,
        stmt_index: usize,
        pragma: Pragma,
    ) -> Result<(), WeaveError> {
        let f = self
            .tu
            .function_mut(function)
            .ok_or_else(|| WeaveError(format!("function `{function}` not found")))?;
        let body = f.body.as_mut().expect("definition");
        if stmt_index > body.stmts.len() {
            return Err(WeaveError(format!(
                "statement index {stmt_index} out of range in `{function}`"
            )));
        }
        body.stmts.insert(stmt_index, Stmt::Pragma(pragma));
        self.act(1);
        Ok(())
    }

    /// Inserts a global declaration ahead of the first function.
    pub fn insert_global(&mut self, decl: Decl) {
        let pos = self.tu.first_function_index();
        self.tu.items.insert(pos, Item::Global(vec![decl]));
        self.act(1);
    }

    /// Inserts an `#include` at the top of the file (after existing
    /// includes), unless it is already present.
    pub fn insert_include(&mut self, include: &str) {
        let exists = self
            .tu
            .items
            .iter()
            .any(|it| matches!(it, Item::Include(s) if s == include));
        self.att(1); // checked the "already included" attribute
        if exists {
            return;
        }
        let pos = self
            .tu
            .items
            .iter()
            .rposition(|it| matches!(it, Item::Include(_)))
            .map(|p| p + 1)
            .unwrap_or(0);
        self.tu
            .items
            .insert(pos, Item::Include(include.to_string()));
        self.act(1);
    }

    /// Inserts a brand-new function definition right after the function
    /// named `after` — so generated code is declared before its callers,
    /// as C requires.
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] if `after` does not exist.
    pub fn insert_function_after(&mut self, after: &str, f: Function) -> Result<(), WeaveError> {
        let pos = self
            .tu
            .items
            .iter()
            .rposition(|it| matches!(it, Item::Function(g) if g.name == after))
            .ok_or_else(|| WeaveError(format!("function `{after}` not found")))?;
        let loc = minic::function_loc(&f);
        self.tu.items.insert(pos + 1, Item::Function(f));
        self.act(loc);
        Ok(())
    }

    /// Inserts statements at the front of a function body.
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the function does not exist.
    pub fn insert_stmts_at_start(
        &mut self,
        function: &str,
        stmts: Vec<Stmt>,
    ) -> Result<(), WeaveError> {
        let n = stmts.len();
        let f = self
            .tu
            .function_mut(function)
            .ok_or_else(|| WeaveError(format!("function `{function}` not found")))?;
        let body = f.body.as_mut().expect("definition");
        for (i, s) in stmts.into_iter().enumerate() {
            body.stmts.insert(i, s);
        }
        self.act(n);
        Ok(())
    }

    /// Replaces every call to `from` with a call to `to` (same
    /// arguments) everywhere except inside `excluded` functions.
    /// Returns the number of replaced call sites.
    pub fn replace_calls(&mut self, from: &str, to: &str, excluded: &[String]) -> usize {
        let mut replaced = 0usize;
        for item in &mut self.tu.items {
            if let Item::Function(f) = item {
                if excluded.iter().any(|e| e == &f.name) {
                    continue;
                }
                if let Some(body) = &mut f.body {
                    for s in &mut body.stmts {
                        map_exprs_in_stmt(s, &mut |e| match e {
                            Expr::Call { callee, args } if callee == from => {
                                replaced += 1;
                                Some(Expr::call(to, args.clone()))
                            }
                            _ => None,
                        });
                    }
                }
            }
        }
        self.act(replaced);
        replaced
    }

    /// Surrounds every top-level-or-nested statement that is exactly a
    /// call to `callee` (inside `function`) with `before` and `after`
    /// statements, preserving the call. Returns the number of sites.
    ///
    /// # Errors
    ///
    /// Returns [`WeaveError`] when the function does not exist.
    pub fn surround_call_statements(
        &mut self,
        function: &str,
        callee: &str,
        before: Vec<Stmt>,
        after: Vec<Stmt>,
    ) -> Result<usize, WeaveError> {
        let f = self
            .tu
            .function_mut(function)
            .ok_or_else(|| WeaveError(format!("function `{function}` not found")))?;
        let body = f.body.as_mut().expect("definition");
        let mut sites = 0usize;
        surround_in_block(body, callee, &before, &after, &mut sites);
        self.act(sites * (before.len() + after.len()));
        Ok(sites)
    }
}

fn is_call_to(s: &Stmt, callee: &str) -> bool {
    matches!(s, Stmt::Expr(Expr::Call { callee: c, .. }) if c == callee)
}

fn surround_in_block(
    block: &mut Block,
    callee: &str,
    before: &[Stmt],
    after: &[Stmt],
    sites: &mut usize,
) {
    let mut i = 0;
    while i < block.stmts.len() {
        if is_call_to(&block.stmts[i], callee) {
            let call = block.stmts.remove(i);
            let mut wrapped = Vec::with_capacity(before.len() + 1 + after.len());
            wrapped.extend(before.iter().cloned());
            wrapped.push(call);
            wrapped.extend(after.iter().cloned());
            block.stmts.insert(i, Stmt::Block(Block::new(wrapped)));
            *sites += 1;
            i += 1;
            continue;
        }
        match &mut block.stmts[i] {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                surround_in_block(then_branch, callee, before, after, sites);
                if let Some(eb) = else_branch {
                    surround_in_block(eb, callee, before, after, sites);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                surround_in_block(body, callee, before, after, sites);
            }
            Stmt::Block(b) => surround_in_block(b, callee, before, after, sites),
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    const SRC: &str = "\
#include <stdio.h>
void kernel(int n) {
    for (int i = 0; i < n; i++) { n--; }
    for (int j = 0; j < n; j++) { n--; }
}
int main() {
    kernel(10);
    kernel(20);
    return 0;
}
";

    fn weaver() -> Weaver {
        Weaver::new(parse(SRC).unwrap())
    }

    #[test]
    fn select_function_counts_attributes() {
        let mut w = weaver();
        let f = w.select_function("main").unwrap();
        assert_eq!(f.name, "main");
        // kernel checked first, then main.
        assert_eq!(w.metrics().attributes, 2);
        assert!(w.select_function("nope").is_err());
    }

    #[test]
    fn query_signature_counts_param_attributes() {
        let mut w = weaver();
        let (ret, params) = w.query_signature("kernel").unwrap();
        assert_eq!(ret, Type::Void);
        assert_eq!(params.len(), 1);
        // select (1) + name/ret (2) + 2 per param (2)
        assert_eq!(w.metrics().attributes, 5);
    }

    #[test]
    fn select_outer_loops_finds_top_level_fors() {
        let mut w = weaver();
        let loops = w.select_outer_loops("kernel").unwrap();
        assert_eq!(loops, vec![0, 1]);
    }

    #[test]
    fn clone_function_attaches_pragmas() {
        let mut w = weaver();
        w.clone_function("kernel", "kernel_v0", vec![Pragma::gcc_optimize(["O2"])])
            .unwrap();
        let clone = w.program().function("kernel_v0").unwrap();
        assert_eq!(clone.pragmas.len(), 1);
        assert!(w.program().function("kernel").is_some(), "original kept");
        assert!(w.metrics().actions >= 3);
    }

    #[test]
    fn insert_pragma_lands_before_loop() {
        let mut w = weaver();
        w.insert_pragma_before_stmt(
            "kernel",
            0,
            Pragma::parse("omp parallel for num_threads(NT)"),
        )
        .unwrap();
        let f = w.program().function("kernel").unwrap();
        assert!(matches!(f.body.as_ref().unwrap().stmts[0], Stmt::Pragma(_)));
        assert!(matches!(
            f.body.as_ref().unwrap().stmts[1],
            Stmt::For { .. }
        ));
    }

    #[test]
    fn insert_pragma_out_of_range_errors() {
        let mut w = weaver();
        let p = Pragma::parse("omp parallel for");
        assert!(w.insert_pragma_before_stmt("kernel", 99, p).is_err());
    }

    #[test]
    fn replace_calls_rewrites_call_sites() {
        let mut w = weaver();
        let n = w.replace_calls("kernel", "kernel_wrapper", &[]);
        assert_eq!(n, 2);
        let printed = minic::print(w.program());
        assert!(printed.contains("kernel_wrapper(10)"));
        assert!(!printed.contains(" kernel(10)"));
    }

    #[test]
    fn replace_calls_respects_exclusions() {
        let mut w = weaver();
        let n = w.replace_calls("kernel", "kernel_wrapper", &["main".to_string()]);
        assert_eq!(n, 0);
    }

    #[test]
    fn surround_call_statements_wraps_sites() {
        let mut w = weaver();
        let before = vec![Stmt::Expr(Expr::call("margot_update", vec![]))];
        let after = vec![Stmt::Expr(Expr::call("margot_log", vec![]))];
        let sites = w
            .surround_call_statements("main", "kernel", before, after)
            .unwrap();
        assert_eq!(sites, 2);
        let printed = minic::print(w.program());
        let update_pos = printed.find("margot_update()").unwrap();
        let call_pos = printed.find("kernel(10)").unwrap();
        let log_pos = printed.find("margot_log()").unwrap();
        assert!(update_pos < call_pos && call_pos < log_pos, "{printed}");
    }

    #[test]
    fn insert_include_is_idempotent() {
        let mut w = weaver();
        w.insert_include("\"margot.h\"");
        w.insert_include("\"margot.h\"");
        let count = w
            .program()
            .items
            .iter()
            .filter(|it| matches!(it, Item::Include(s) if s == "\"margot.h\""))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn weaved_program_reparses() {
        let mut w = weaver();
        w.clone_function("kernel", "kernel_v0", vec![Pragma::gcc_optimize(["O3"])])
            .unwrap();
        w.insert_pragma_before_stmt(
            "kernel_v0",
            0,
            Pragma::parse("omp parallel for num_threads(__nt) proc_bind(close)"),
        )
        .unwrap();
        w.insert_global(Decl::new(Type::Int, "__nt"));
        w.replace_calls("kernel", "kernel_v0", &[]);
        let (tu, metrics) = w.finish();
        let printed = minic::print(&tu);
        let reparsed = minic::parse(&printed).expect("weaved program is valid C");
        assert_eq!(tu, reparsed);
        assert!(metrics.weaved_loc > metrics.original_loc);
        assert!(metrics.actions > 0 && metrics.attributes > 0);
    }

    #[test]
    fn metrics_loc_tracks_growth() {
        let mut w = weaver();
        let before = w.metrics().weaved_loc;
        w.insert_global(Decl::new(Type::Int, "__v"));
        assert_eq!(w.metrics().weaved_loc, before + 1);
    }
}
