//! Error types for dataset construction and query validation.

use std::fmt;

/// Errors raised while constructing datasets or validating query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A point's dimensionality did not match the dataset's.
    DimensionMismatch {
        /// Dimensionality the dataset expects.
        expected: usize,
        /// Dimensionality that was supplied.
        got: usize,
    },
    /// The dataset contains no points but at least one was required.
    EmptyDataset,
    /// A coordinate was NaN or infinite.
    NonFinite {
        /// Index of the offending point.
        point: usize,
        /// Index of the offending coordinate.
        coordinate: usize,
    },
    /// A neighborhood size `k` was zero or exceeded the number of usable points.
    InvalidK {
        /// The requested neighborhood size.
        k: usize,
        /// Number of points available to the query.
        available: usize,
    },
    /// A point id did not refer to a live point.
    UnknownPoint(usize),
    /// An index structure would exceed the number of entries its internal
    /// links can address.
    CapacityExceeded {
        /// The largest entry count the structure supports.
        capacity: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CoreError::EmptyDataset => write!(f, "dataset contains no points"),
            CoreError::NonFinite { point, coordinate } => {
                write!(
                    f,
                    "non-finite coordinate {coordinate} in point {point}; datasets must be finite"
                )
            }
            CoreError::InvalidK { k, available } => {
                write!(
                    f,
                    "invalid neighborhood size k={k} ({available} points available)"
                )
            }
            CoreError::UnknownPoint(id) => write!(f, "unknown point id {id}"),
            CoreError::CapacityExceeded { capacity } => {
                write!(f, "index capacity exceeded: at most {capacity} entries")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = CoreError::NonFinite {
            point: 7,
            coordinate: 1,
        };
        assert!(e.to_string().contains("point 7"));
        let e = CoreError::InvalidK {
            k: 0,
            available: 10,
        };
        assert!(e.to_string().contains("k=0"));
        assert!(CoreError::EmptyDataset.to_string().contains("no points"));
        assert!(CoreError::UnknownPoint(3).to_string().contains('3'));
        let e = CoreError::CapacityExceeded { capacity: 9 };
        assert!(e.to_string().contains("at most 9"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CoreError::EmptyDataset, CoreError::EmptyDataset);
        assert_ne!(CoreError::EmptyDataset, CoreError::UnknownPoint(0));
    }
}
