//! The OLAP layer's error type.

use std::fmt;

/// An error from the OLAP data-model layer: group-by parsing, catalog
/// lookups, or incremental maintenance.
#[derive(Debug, Clone, PartialEq)]
pub enum OlapError {
    /// An appended fact row carries a NaN or infinite measure, which would
    /// poison every SUM/MIN/MAX view and cached result it reaches. The
    /// whole batch is rejected before anything is mutated.
    NonFiniteMeasure {
        /// Index of the offending row within the batch.
        row: usize,
        /// The rejected measure.
        value: f64,
    },
    /// Any other failure, described by its message.
    Other(String),
}

impl OlapError {
    /// Wraps a message.
    pub fn new(msg: impl Into<String>) -> Self {
        OlapError::Other(msg.into())
    }
}

impl fmt::Display for OlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OlapError::NonFiniteMeasure { row, value } => {
                write!(f, "row {row} has non-finite measure {value}")
            }
            OlapError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for OlapError {}

impl From<String> for OlapError {
    fn from(msg: String) -> Self {
        OlapError::Other(msg)
    }
}

impl From<&str> for OlapError {
    fn from(msg: &str) -> Self {
        OlapError::new(msg)
    }
}
