//! Runtime values and evaluation errors.

use std::error::Error;
use std::fmt;

/// A runtime value: the language is dynamically typed over booleans and
/// 64-bit integers. Packets on eBlock wires carry booleans; integers exist
/// for internal counters (pulse lengths, delays).
///
/// Values order booleans before integers, each by its own order, so sets
/// of them (lint's value sets) list in one canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
}

/// The language's two types: what a [`Value`] holds, and what each
/// operator takes and yields (see [`BinOp::result_type`](crate::BinOp::result_type)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `true` or `false`.
    Bool,
    /// A 64-bit signed integer.
    Int,
}

impl Value {
    /// The value's type.
    pub fn ty(self) -> Ty {
        match self {
            Self::Bool(_) => Ty::Bool,
            Self::Int(_) => Ty::Int,
        }
    }

    /// The value as a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::TypeMismatch`] when the value is an integer.
    pub fn as_bool(self) -> Result<bool, EvalError> {
        match self {
            Self::Bool(b) => Ok(b),
            Self::Int(_) => Err(EvalError::TypeMismatch {
                expected: "bool",
                found: "int",
            }),
        }
    }

    /// The value as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::TypeMismatch`] when the value is a boolean.
    pub fn as_int(self) -> Result<i64, EvalError> {
        match self {
            Self::Int(v) => Ok(v),
            Self::Bool(_) => Err(EvalError::TypeMismatch {
                expected: "int",
                found: "bool",
            }),
        }
    }

    /// The type name, for diagnostics.
    pub fn type_name(self) -> &'static str {
        match self {
            Self::Bool(_) => "bool",
            Self::Int(_) => "int",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bool(b) => write!(f, "{b}"),
            Self::Int(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}

/// Errors raised while evaluating a behavior program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// A variable was read before any assignment.
    UndefinedVariable {
        /// The variable name.
        name: String,
    },
    /// An operand had the wrong type.
    TypeMismatch {
        /// Expected type name.
        expected: &'static str,
        /// Actual type name.
        found: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Arithmetic overflow.
    Overflow,
    /// An input port was referenced beyond the values supplied.
    InputOutOfRange {
        /// The referenced port.
        port: u8,
        /// How many inputs were supplied.
        supplied: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UndefinedVariable { name } => write!(f, "undefined variable `{name}`"),
            Self::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Self::DivisionByZero => f.write_str("division by zero"),
            Self::Overflow => f.write_str("integer overflow"),
            Self::InputOutOfRange { port, supplied } => {
                write!(
                    f,
                    "input port {port} referenced but only {supplied} inputs supplied"
                )
            }
        }
    }
}

impl Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::Bool(true).as_bool(), Ok(true));
        assert_eq!(Value::Int(7).as_int(), Ok(7));
        assert!(Value::Int(7).as_bool().is_err());
        assert!(Value::Bool(false).as_int().is_err());
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Int(0).type_name(), "int");
    }

    #[test]
    fn error_display() {
        let e = EvalError::UndefinedVariable { name: "x".into() };
        assert_eq!(e.to_string(), "undefined variable `x`");
        assert!(EvalError::DivisionByZero.to_string().contains("zero"));
    }
}
