//! The OLAP layer's error type.

use std::fmt;

/// An error from the OLAP data-model layer: group-by parsing, catalog
/// lookups, or incremental maintenance.
#[derive(Debug, Clone, PartialEq)]
pub enum OlapError {
    /// An appended fact row's measure lies outside the measure domain
    /// (`starshare_storage::measure`): not a whole number of quarter
    /// units, `-0.0`, NaN, infinite, or `|m| >= 2^20`. Aggregates over it
    /// could round, so the whole batch is rejected before anything is
    /// mutated.
    InexactMeasure {
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
            OlapError::InexactMeasure { row, value } => write!(
                f,
                "row {row} has measure {value:?}; measures must be whole quarter units with |m| < 2^20"
            ),
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
