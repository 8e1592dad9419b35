//! # tfgc-syntax — front end for TFML
//!
//! Lexer, parser, and AST for **TFML**, the mini-ML source language of the
//! tag-free garbage collection reproduction (Goldberg, PLDI 1991). The
//! paper's worked examples — monomorphic and polymorphic `append` (§2.4,
//! §3), `map` (§2.2), the polymorphic `f`/`main` pair (§3) — are expressible
//! verbatim modulo spelling.
//!
//! ```
//! use tfgc_syntax::parse_program;
//!
//! # fn main() -> Result<(), tfgc_syntax::ParseError> {
//! let program = parse_program(
//!     "fun append [] ys = ys
//!        | append (x :: xs) ys = x :: append xs ys ;
//!      append [1, 2] [3]",
//! )?;
//! assert_eq!(program.fun_names(), vec!["append"]);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod span;

pub use ast::{
    Arm, BinOp, CtorDecl, DatatypeDecl, Decl, Expr, ExprKind, FunBind, LetBind, Pat, PatKind,
    Program, Ty, UnOp,
};
pub use error::{ParseError, ParseResult};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse_expr, parse_program};
pub use span::Span;
