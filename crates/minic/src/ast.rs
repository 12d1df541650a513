//! Abstract syntax tree for the mini-C dialect.
//!
//! The dialect covers the subset of C used by the Polybench/C kernels plus
//! the pragmas the SOCRATES weaver inserts (`#pragma GCC optimize`, OpenMP
//! `parallel for` pragmas). Structs, unions and the full preprocessor are
//! intentionally out of scope.

use crate::pragma::Pragma;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A whole source file: an ordered list of top-level items.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TranslationUnit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Compares a translation unit with one held behind an [`Arc`], such as
/// a program shared out of a cache, by value.
impl PartialEq<Arc<TranslationUnit>> for TranslationUnit {
    fn eq(&self, other: &Arc<TranslationUnit>) -> bool {
        *self == **other
    }
}

impl TranslationUnit {
    /// Creates an empty translation unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the function definition named `name`, if present.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.items.iter().find_map(|it| match it {
            Item::Function(f) if f.name == name && f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Returns a mutable reference to the function definition named `name`.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.items.iter_mut().find_map(|it| match it {
            Item::Function(f) if f.name == name && f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Iterates over all function definitions (items with a body).
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|it| match it {
            Item::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Returns the index of the first item that is a function definition,
    /// or `items.len()` if there is none. Useful for inserting globals
    /// ahead of all code.
    pub fn first_function_index(&self) -> usize {
        self.items
            .iter()
            .position(|it| matches!(it, Item::Function(f) if f.body.is_some()))
            .unwrap_or(self.items.len())
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// `#include <...>` or `#include "..."` — payload is the text after
    /// `#include`.
    Include(String),
    /// `#define ...` — payload is the text after `#define`.
    Define(String),
    /// A file-scope pragma.
    Pragma(Pragma),
    /// A global variable declaration statement (may declare several names).
    Global(Vec<Decl>),
    /// A function definition or prototype (prototype when `body` is `None`).
    Function(Function),
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Body; `None` for a prototype.
    pub body: Option<Block>,
    /// `static` storage class.
    pub is_static: bool,
    /// Pragmas attached immediately before the definition
    /// (e.g. `#pragma GCC optimize(...)`).
    pub pragmas: Vec<Pragma>,
}

impl Function {
    /// Creates a function definition with an empty body.
    pub fn new(ret: Type, name: impl Into<String>, params: Vec<Param>) -> Self {
        Function {
            ret,
            name: name.into(),
            params,
            body: Some(Block::default()),
            is_static: false,
            pragmas: Vec::new(),
        }
    }
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter type (arrays keep their dimensions).
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

impl Param {
    /// Creates a parameter.
    pub fn new(ty: Type, name: impl Into<String>) -> Self {
        Param {
            ty,
            name: name.into(),
        }
    }
}

/// A mini-C type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Type {
    /// `void`
    Void,
    /// `char`
    Char,
    /// `int`
    Int,
    /// `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
    /// Pointer to a type.
    Ptr(Box<Type>),
    /// Array with one expression per dimension, e.g. `double A[N][M]`.
    Array(Box<Type>, Vec<Expr>),
    /// A named (typedef'd or macro) type such as `DATA_TYPE`.
    Named(String),
}

impl Type {
    /// Convenience constructor for a pointer to `self`.
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Convenience constructor for an array of `self` with the given dims.
    pub fn array(self, dims: Vec<Expr>) -> Type {
        Type::Array(Box::new(self), dims)
    }

    /// Returns `true` for `float`/`double` (and arrays/pointers of them).
    pub fn is_floating(&self) -> bool {
        match self {
            Type::Float | Type::Double => true,
            Type::Ptr(t) | Type::Array(t, _) => t.is_floating(),
            _ => false,
        }
    }
}

/// One declarator inside a declaration statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decl {
    /// Declared type (base type combined with array dims / pointers).
    pub ty: Type,
    /// Declared name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Init>,
    /// `static` storage class.
    pub is_static: bool,
    /// `const` qualifier.
    pub is_const: bool,
}

impl Decl {
    /// Creates a plain declaration without initializer or qualifiers.
    pub fn new(ty: Type, name: impl Into<String>) -> Self {
        Decl {
            ty,
            name: name.into(),
            init: None,
            is_static: false,
            is_const: false,
        }
    }

    /// Builder-style: sets the initializer.
    pub fn with_init(mut self, init: Init) -> Self {
        self.init = Some(init);
        self
    }
}

/// An initializer: a single expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// `= expr`
    Expr(Expr),
    /// `= { ... }`
    List(Vec<Init>),
}

/// A brace-enclosed statement block.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<T: IntoIterator<Item = Stmt>>(iter: T) -> Self {
        Block {
            stmts: iter.into_iter().collect(),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// A declaration statement (`int i, j = 0;`).
    Decl(Vec<Decl>),
    /// An expression statement.
    Expr(Expr),
    /// `if (cond) { .. } else { .. }` — branches are always blocks.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Block,
        /// Optional else branch.
        else_branch: Option<Block>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `do { .. } while (cond);`
    DoWhile {
        /// Loop body.
        body: Block,
        /// Loop condition.
        cond: Expr,
    },
    /// `for (init; cond; step) { .. }`
    For {
        /// Optional init clause.
        init: Option<ForInit>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `return expr;` / `return;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A pragma in statement position (attaches to the following loop).
    Pragma(Pragma),
    /// A nested block.
    Block(Block),
    /// An empty statement (`;`).
    Empty,
}

/// The init clause of a `for` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ForInit {
    /// `for (int i = 0; ...)`
    Decl(Vec<Decl>),
    /// `for (i = 0; ...)`
    Expr(Expr),
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal (value-normalised; hex input prints as decimal).
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// String literal (escapes kept verbatim).
    StrLit(String),
    /// Character literal (escapes kept verbatim).
    CharLit(String),
    /// Identifier reference.
    Ident(String),
    /// Prefix unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Postfix `++`/`--`.
    Postfix {
        /// Operator.
        op: PostfixOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment (simple or compound).
    Assign {
        /// Operator.
        op: AssignOp,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `cond ? a : b`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then_expr: Box<Expr>,
        /// Value if false.
        else_expr: Box<Expr>,
    },
    /// Call of a named function.
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// Array subscript `base[index]`.
    Index {
        /// Subscripted expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// C cast `(type) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Casted expression.
        expr: Box<Expr>,
    },
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Identifier expression helper.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// Call expression helper.
    pub fn call(callee: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            callee: callee.into(),
            args,
        }
    }

    /// Binary expression helper.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Simple assignment helper (`lhs = rhs`).
    pub fn assign(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Assign {
            op: AssignOp::Assign,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Index expression helper (`base[index]`).
    pub fn index(base: Expr, index: Expr) -> Expr {
        Expr::Index {
            base: Box::new(base),
            index: Box::new(index),
        }
    }

    /// Attempts to evaluate this expression as a compile-time integer
    /// constant, resolving names through `lookup` (used for `#define`d
    /// dimension constants).
    pub fn eval_int(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            Expr::Ident(n) => lookup(n),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => expr.eval_int(lookup).map(|v| -v),
            Expr::Binary { op, lhs, rhs } => {
                let a = lhs.eval_int(lookup)?;
                let b = rhs.eval_int(lookup)?;
                match op {
                    BinaryOp::Add => Some(a + b),
                    BinaryOp::Sub => Some(a - b),
                    BinaryOp::Mul => Some(a * b),
                    BinaryOp::Div => (b != 0).then(|| a / b),
                    BinaryOp::Rem => (b != 0).then(|| a % b),
                    _ => None,
                }
            }
            Expr::Cast { expr, .. } => expr.eval_int(lookup),
            _ => None,
        }
    }
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*x`
    Deref,
    /// `&x`
    AddrOf,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
}

impl UnaryOp {
    /// The C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Deref => "*",
            UnaryOp::AddrOf => "&",
            UnaryOp::PreInc => "++",
            UnaryOp::PreDec => "--",
        }
    }
}

/// Postfix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PostfixOp {
    /// `x++`
    Inc,
    /// `x--`
    Dec,
}

impl PostfixOp {
    /// The C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            PostfixOp::Inc => "++",
            PostfixOp::Dec => "--",
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `||`
    LogOr,
    /// `&&`
    LogAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&`
    BitAnd,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

impl BinaryOp {
    /// The C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::LogOr => "||",
            BinaryOp::LogAnd => "&&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::BitAnd => "&",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Gt => ">",
            BinaryOp::Le => "<=",
            BinaryOp::Ge => ">=",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
        }
    }

    /// Precedence level; larger binds tighter. Matches the C grammar.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::LogOr => 1,
            BinaryOp::LogAnd => 2,
            BinaryOp::BitOr => 3,
            BinaryOp::BitXor => 4,
            BinaryOp::BitAnd => 5,
            BinaryOp::Eq | BinaryOp::Ne => 6,
            BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Le | BinaryOp::Ge => 7,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 10,
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
}

impl AssignOp {
    /// The C spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_int_arithmetic() {
        // (2 + 3) * 4
        let e = Expr::binary(
            BinaryOp::Mul,
            Expr::binary(BinaryOp::Add, Expr::int(2), Expr::int(3)),
            Expr::int(4),
        );
        assert_eq!(e.eval_int(&|_| None), Some(20));
    }

    #[test]
    fn eval_int_resolves_names() {
        let e = Expr::binary(BinaryOp::Div, Expr::ident("N"), Expr::int(2));
        let lookup = |n: &str| (n == "N").then_some(800);
        assert_eq!(e.eval_int(&lookup), Some(400));
        assert_eq!(e.eval_int(&|_| None), None);
    }

    #[test]
    fn eval_int_division_by_zero_is_none() {
        let e = Expr::binary(BinaryOp::Div, Expr::int(1), Expr::int(0));
        assert_eq!(e.eval_int(&|_| None), None);
    }

    #[test]
    fn function_lookup_by_name() {
        let mut tu = TranslationUnit::new();
        tu.items
            .push(Item::Function(Function::new(Type::Void, "kernel", vec![])));
        assert!(tu.function("kernel").is_some());
        assert!(tu.function("missing").is_none());
    }

    #[test]
    fn prototypes_are_not_definitions() {
        let mut tu = TranslationUnit::new();
        let mut f = Function::new(Type::Void, "proto", vec![]);
        f.body = None;
        tu.items.push(Item::Function(f));
        assert!(tu.function("proto").is_none());
        assert_eq!(tu.functions().count(), 0);
    }

    #[test]
    fn precedence_orders_match_c() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Shl.precedence());
        assert!(BinaryOp::Lt.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::LogAnd.precedence() > BinaryOp::LogOr.precedence());
    }

    #[test]
    fn type_helpers_compose() {
        let t = Type::Double.array(vec![Expr::int(8)]);
        assert!(t.is_floating());
        assert!(Type::Int.ptr() == Type::Ptr(Box::new(Type::Int)));
        assert!(!Type::Int.is_floating());
    }

    #[test]
    fn first_function_index_skips_headers() {
        let mut tu = TranslationUnit::new();
        tu.items.push(Item::Include("<stdio.h>".into()));
        tu.items.push(Item::Define("N 10".into()));
        tu.items
            .push(Item::Function(Function::new(Type::Int, "main", vec![])));
        assert_eq!(tu.first_function_index(), 2);
    }
}
