//! # minic — a mini-C front-end for source-to-source weaving
//!
//! This crate is the substrate under the SOCRATES reproduction's LARA/MANET
//! weaver (`lara` crate) and Milepost feature extractor (`milepost` crate):
//! a lexer, recursive-descent parser, typed AST, visitors and a
//! pretty-printer for the subset of C that the Polybench/C kernels use,
//! plus first-class support for the pragmas SOCRATES manipulates
//! (`#pragma GCC optimize`, OpenMP `parallel for` with
//! `num_threads`/`proc_bind` clauses).
//!
//! The printer is canonical and round-trip safe: for every AST the parser
//! produces, `parse(print(ast)) == ast`.
//!
//! ## Example
//!
//! ```
//! use minic::{parse, print, logical_loc};
//!
//! let tu = parse(
//!     "void kernel(int n, double A[100]) {
//!          for (int i = 0; i < n; i++) { A[i] = 2.0 * A[i]; }
//!      }",
//! ).unwrap();
//! assert_eq!(tu.functions().count(), 1);
//! assert_eq!(logical_loc(&tu), 3);
//! let c_text = print(&tu);
//! assert!(c_text.contains("kernel"));
//! ```
//!
//! ## Dialect limitations (by design)
//!
//! - no `struct`/`union`/`enum`, no `typedef` declarations (inject known
//!   type names through [`parser::Parser::add_type_name`]),
//! - preprocessor lines are opaque single items,
//! - array dimensions must be explicit expressions,
//! - calls are to named functions only (no function pointers).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod error;
pub mod genprog;
mod lexer;
pub mod loc;
pub mod parser;
pub mod pragma;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::{
    AssignOp, BinaryOp, Block, Decl, Expr, ForInit, Function, Init, Item, Param, PostfixOp, Stmt,
    TranslationUnit, Type, UnaryOp,
};
pub use error::{LexError, ParseError, Pos};
pub use lexer::lex;
pub use loc::{function_loc, logical_loc};
pub use parser::{parse, parse_expr, Parser};
pub use pragma::{OmpClause, OmpPragma, Pragma, PragmaKind};
pub use printer::{print, print_expr, print_stmt};
