//! Error types for SWF parsing, validation, and conversion.

use crate::convert::DEFAULT_REORDER_WINDOW;
use crate::parse::MAX_LINE_BYTES;
use std::fmt;

/// An error produced while parsing an SWF file or a single SWF line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A data line did not contain the expected number of whitespace-separated fields.
    WrongFieldCount {
        /// 1-based line number in the input.
        line: usize,
        /// Number of fields found on the line.
        found: usize,
        /// Number of fields expected (always [`crate::record::FIELD_COUNT`]).
        expected: usize,
    },
    /// A field could not be parsed as an integer.
    InvalidInteger {
        /// 1-based line number in the input.
        line: usize,
        /// 0-based field index within the line.
        field: usize,
        /// The offending token.
        token: String,
    },
    /// A field held an integer that is out of the legal range for that field
    /// (e.g. a negative value other than the `-1` "unknown" sentinel).
    OutOfRange {
        /// 1-based line number in the input.
        line: usize,
        /// 0-based field index within the line.
        field: usize,
        /// The offending value.
        value: i64,
        /// Human readable description of the legal range.
        legal: &'static str,
    },
    /// A header comment used the `;Label: value` form but the label is not known and
    /// strict parsing was requested.
    UnknownHeaderLabel {
        /// 1-based line number in the input.
        line: usize,
        /// The unrecognized label.
        label: String,
    },
    /// A header comment value could not be interpreted (e.g. `MaxNodes` not an integer).
    InvalidHeaderValue {
        /// 1-based line number in the input.
        line: usize,
        /// The header label whose value was malformed.
        label: String,
        /// The offending value.
        value: String,
    },
    /// A line of the input is not valid UTF-8.
    InvalidUtf8 {
        /// 1-based line number in the input.
        line: usize,
    },
    /// A line of the input is longer than [`crate::parse::MAX_LINE_BYTES`].
    LineTooLong {
        /// 1-based line number in the input.
        line: usize,
    },
    /// An I/O error occurred while reading the input.
    Io(String),
    /// A raw accounting-log dialect failed to convert (streaming conversion
    /// surfaces [`ConvertError`]s through the [`crate::source::JobSource`]
    /// error channel).
    Convert(ConvertError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::WrongFieldCount {
                line,
                found,
                expected,
            } => write!(
                f,
                "line {line}: expected {expected} fields but found {found}"
            ),
            ParseError::InvalidInteger { line, field, token } => {
                write!(f, "line {line}: field {field} is not an integer: {token:?}")
            }
            ParseError::OutOfRange {
                line,
                field,
                value,
                legal,
            } => write!(
                f,
                "line {line}: field {field} value {value} out of range ({legal})"
            ),
            ParseError::UnknownHeaderLabel { line, label } => {
                write!(f, "line {line}: unknown header label {label:?}")
            }
            ParseError::InvalidHeaderValue { line, label, value } => {
                write!(
                    f,
                    "line {line}: invalid value for header {label:?}: {value:?}"
                )
            }
            ParseError::InvalidUtf8 { line } => write!(f, "line {line}: invalid UTF-8"),
            ParseError::LineTooLong { line } => {
                write!(f, "line {line}: longer than {MAX_LINE_BYTES} bytes")
            }
            ParseError::Io(msg) => write!(f, "i/o error: {msg}"),
            ParseError::Convert(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e.to_string())
    }
}

impl From<ConvertError> for ParseError {
    fn from(e: ConvertError) -> Self {
        ParseError::Convert(e)
    }
}

/// An error produced while converting a raw accounting log to SWF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// A raw record was malformed for the selected dialect.
    MalformedRecord {
        /// 1-based line number in the raw input.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A timestamp could not be interpreted.
    BadTimestamp {
        /// 1-based line number in the raw input.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The raw log declared one dialect but the converter was invoked with another.
    DialectMismatch {
        /// Dialect the data appears to be in.
        found: String,
        /// Dialect requested by the caller.
        requested: String,
    },
    /// The resulting log would be empty.
    EmptyLog,
    /// The input's submit-time disorder exceeded the streaming converter's
    /// reorder window of [`DEFAULT_REORDER_WINDOW`] records; the output could
    /// not be kept sorted.
    WindowExceeded,
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::MalformedRecord { line, reason } => {
                write!(f, "raw line {line}: {reason}")
            }
            ConvertError::BadTimestamp { line, token } => {
                write!(f, "raw line {line}: bad timestamp {token:?}")
            }
            ConvertError::DialectMismatch { found, requested } => {
                write!(
                    f,
                    "dialect mismatch: data looks like {found}, requested {requested}"
                )
            }
            ConvertError::EmptyLog => write!(f, "conversion produced no job records"),
            ConvertError::WindowExceeded => write!(
                f,
                "raw input is more unsorted than the {DEFAULT_REORDER_WINDOW}-record \
                 reorder window; put its records closer to submit order"
            ),
        }
    }
}

impl std::error::Error for ConvertError {}

/// An error produced while parsing the standard outage format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutageParseError {
    /// A data line did not contain the expected number of fields.
    WrongFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field could not be parsed.
    InvalidField {
        /// 1-based line number.
        line: usize,
        /// 0-based field index.
        field: usize,
        /// Offending token.
        token: String,
    },
    /// Outage interval is inverted (end before start).
    InvertedInterval {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for OutageParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutageParseError::WrongFieldCount {
                line,
                found,
                expected,
            } => write!(
                f,
                "outage line {line}: expected {expected} fields but found {found}"
            ),
            OutageParseError::InvalidField { line, field, token } => {
                write!(f, "outage line {line}: field {field} invalid: {token:?}")
            }
            OutageParseError::InvertedInterval { line } => {
                write!(f, "outage line {line}: end time precedes start time")
            }
        }
    }
}

impl std::error::Error for OutageParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_mentions_line() {
        let e = ParseError::WrongFieldCount {
            line: 7,
            found: 3,
            expected: 18,
        };
        let msg = e.to_string();
        assert!(msg.contains("line 7"));
        assert!(msg.contains("18"));
        assert!(msg.contains('3'));
    }

    #[test]
    fn invalid_integer_display() {
        let e = ParseError::InvalidInteger {
            line: 2,
            field: 5,
            token: "abc".to_string(),
        };
        assert!(e.to_string().contains("abc"));
        assert!(e.to_string().contains("field 5"));
    }

    #[test]
    fn out_of_range_display() {
        let e = ParseError::OutOfRange {
            line: 4,
            field: 1,
            value: -7,
            legal: ">= -1",
        };
        assert!(e.to_string().contains("-7"));
        assert!(e.to_string().contains(">= -1"));
    }

    #[test]
    fn invalid_utf8_display_names_the_line() {
        assert_eq!(
            ParseError::InvalidUtf8 { line: 2 }.to_string(),
            "line 2: invalid UTF-8"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: ParseError = io.into();
        assert!(matches!(e, ParseError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn convert_error_display() {
        let e = ConvertError::DialectMismatch {
            found: "sp2".into(),
            requested: "cm5".into(),
        };
        assert!(e.to_string().contains("sp2"));
        assert!(e.to_string().contains("cm5"));
    }

    #[test]
    fn outage_error_display() {
        let e = OutageParseError::InvertedInterval { line: 3 };
        assert!(e.to_string().contains("line 3"));
    }
}
