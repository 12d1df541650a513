//! Logical lines-of-code metrics, as used by the paper's Table I.
//!
//! The paper reports "logical lines of code" for the original and weaved
//! benchmarks. We count one logical line per: top-level directive
//! (`#include`, `#define`, pragma), global declaration statement, function
//! signature, and per statement inside bodies (loop/if headers count one,
//! braces count zero) — a conventional logical-LOC definition that is
//! stable under reformatting.

use crate::ast::*;
use crate::pragma::Pragma;
use crate::visit::{walk_stmt, walk_tu, Visitor};

/// Counts the logical lines of code of a translation unit.
///
/// # Examples
///
/// ```
/// let tu = minic::parse("int main() { int x = 0; return x; }").unwrap();
/// assert_eq!(minic::logical_loc(&tu), 3); // signature + decl + return
/// ```
pub fn logical_loc(tu: &TranslationUnit) -> usize {
    let mut c = LocCounter::default();
    walk_tu(&mut c, tu);
    c.count
}

/// Counts the logical lines of code of a single function definition
/// (signature + body statements + attached pragmas).
pub fn function_loc(f: &Function) -> usize {
    let mut c = LocCounter::default();
    c.visit_function(f);
    c.count
}

#[derive(Default)]
struct LocCounter {
    count: usize,
}

impl Visitor for LocCounter {
    fn visit_item(&mut self, item: &Item) {
        match item {
            Item::Include(_) | Item::Define(_) => self.count += 1,
            Item::Pragma(_) => self.count += 1,
            Item::Global(_) => self.count += 1,
            Item::Function(f) => self.visit_function(f),
        }
    }

    fn visit_function(&mut self, f: &Function) {
        self.count += 1; // signature
        self.count += f.pragmas.len();
        if let Some(body) = &f.body {
            for s in &body.stmts {
                self.visit_stmt(s);
            }
        }
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        match s {
            // Braces/nested blocks are free; everything else costs a line.
            Stmt::Block(_) => {}
            Stmt::Empty => {}
            _ => self.count += 1,
        }
        // Recurse into compound statements but not into expressions:
        // a statement is one logical line no matter how big its expression.
        match s {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                for st in &then_branch.stmts {
                    self.visit_stmt(st);
                }
                if let Some(eb) = else_branch {
                    for st in &eb.stmts {
                        self.visit_stmt(st);
                    }
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                for st in &body.stmts {
                    self.visit_stmt(st);
                }
            }
            Stmt::Block(b) => {
                for st in &b.stmts {
                    self.visit_stmt(st);
                }
            }
            _ => {
                // Leaf statements: nothing further. Deliberately do NOT call
                // walk_stmt, which would descend into expressions.
                let _ = walk_stmt::<Self>;
            }
        }
    }

    fn visit_pragma(&mut self, _p: &Pragma) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn counts_directives_and_globals() {
        let tu = parse(
            "#include <stdio.h>\n\
             #define N 10\n\
             static int a[10];\n",
        )
        .unwrap();
        assert_eq!(logical_loc(&tu), 3);
    }

    #[test]
    fn loop_header_counts_once() {
        let tu = parse("void f(int n) { for (int i = 0; i < n; i++) { n += i; } }").unwrap();
        // signature + for + body stmt
        assert_eq!(logical_loc(&tu), 3);
    }

    #[test]
    fn nested_blocks_are_free() {
        let tu = parse("void f() { { { int x = 0; } } }").unwrap();
        assert_eq!(logical_loc(&tu), 2); // signature + decl
    }

    #[test]
    fn pragmas_count_as_lines() {
        let tu = parse(
            "#pragma GCC optimize(\"O2\")\n\
             void k(int n) {\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < n; i++) { }\n\
             }",
        )
        .unwrap();
        // GCC pragma + signature + omp pragma + for
        assert_eq!(logical_loc(&tu), 4);
    }

    #[test]
    fn multi_declarator_counts_one_line() {
        let tu = parse("void f() { int i, j, k; }").unwrap();
        assert_eq!(logical_loc(&tu), 2);
    }

    #[test]
    fn big_expression_is_still_one_line() {
        let tu = parse("void f(int a) { a = a * a + a * a - a / (a + 1) * f(a); }").unwrap();
        assert_eq!(logical_loc(&tu), 2);
    }

    #[test]
    fn function_loc_matches_manual_count() {
        let tu = parse(
            "void g() { }\n\
             void f(int n) {\n\
               int acc = 0;\n\
               if (n > 0) { acc += n; } else { acc -= n; }\n\
               return;\n\
             }",
        )
        .unwrap();
        let f = tu.function("f").unwrap();
        // signature + decl + if + then-stmt + else-stmt + return
        assert_eq!(function_loc(f), 6);
        assert_eq!(logical_loc(&tu), 6 + 1);
    }

    #[test]
    fn loc_is_stable_under_reprinting() {
        let src = "void f(int n) { for (int i = 0; i < n; i++) if (i % 2) n--; }";
        let tu = parse(src).unwrap();
        let printed = crate::printer::print(&tu);
        let tu2 = parse(&printed).unwrap();
        assert_eq!(logical_loc(&tu), logical_loc(&tu2));
    }
}
