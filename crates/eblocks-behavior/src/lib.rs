//! The eBlock behavior language.
//!
//! §3.3 of the paper: "The simulator maintains the behavior of each block,
//! defined in a Java-like language that is automatically transformed to a
//! syntax tree." This crate is that language: a small, imperative, statically
//! scoped DSL with persistent `state` variables, an `on input` handler run
//! whenever a packet arrives on any input port, and an `on tick` handler run
//! on the block's periodic timer (used by the pulse-generator and delay
//! blocks).
//!
//! ```text
//! // toggle block
//! state q = false;
//! state prev = false;
//! on input {
//!     if (in0 && !prev) { q = !q; }
//!     prev = in0;
//!     out0 = q;
//! }
//! ```
//!
//! * [`parse`] turns source text into a [`Program`] (the paper's syntax
//!   tree),
//! * [`check`](check::check) validates it against a block arity,
//! * [`Compiled`] resolves its names once — ports to port indices, every
//!   other name to a dense slot — and [`Machine`] runs the result (the
//!   simulator's interpreter); many machines share one compilation, each
//!   owning only its slots,
//! * [`library`] holds the canonical behavior program of every pre-defined
//!   compute block, generated from its [`eblocks_core::ComputeKind`],
//! * the AST supports systematic variable renaming
//!   ([`Program::rename_vars`]) — the primitive the code generator uses to
//!   merge the trees of a partition into one programmable-block program.
//!
//! # Example
//!
//! ```
//! use eblocks_behavior::{parse, Compiled, Machine, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse("on input { out0 = in0 && in1; }")?;
//! let code = Compiled::new(&program);
//! let mut m = Machine::new(&code);
//! let outs = m.on_input(&[Value::Bool(true), Value::Bool(true)])?;
//! assert_eq!(outs.get(0), Some(Value::Bool(true)));
//! assert_eq!(outs.get(1), None, "out1 was never driven");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod interp;
pub mod lexer;
pub mod library;
pub mod optimize;
pub mod parser;
pub mod span;
pub mod value;

pub use ast::{BinOp, Expr, Handler, HandlerKind, Program, StateDecl, Stmt, UnOp};
pub use check::{check, CheckError};
pub use interp::{Compiled, Machine, Outputs};
pub use lexer::LexError;
pub use optimize::optimize;
pub use parser::{parse, parse_spanned, ParseError};
pub use span::{HandlerSpans, ProgramSpans, Span, StmtSpans};
pub use value::{EvalError, Value};
