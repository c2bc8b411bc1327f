//! Error type for flow parsing and aggregation.

/// Errors produced while parsing or aggregating flow data.
#[derive(Debug)]
pub enum FlowError {
    /// An address string failed to parse.
    BadAddress(String),
    /// A binary buffer was shorter than the format requires.
    Truncated {
        /// What was being parsed.
        context: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A format-level field had an unsupported value.
    BadFormat {
        /// What was being parsed.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A text line could not be interpreted.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::BadAddress(s) => write!(f, "invalid address: {s:?}"),
            FlowError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated {context}: needed {needed} bytes, had {available}"
            ),
            FlowError::BadFormat { context, detail } => {
                write!(f, "bad {context}: {detail}")
            }
            FlowError::BadLine { line, detail } => {
                write!(f, "bad input at line {line}: {detail}")
            }
            FlowError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FlowError {
    fn from(e: std::io::Error) -> Self {
        FlowError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FlowError::BadAddress("nope".into());
        assert!(e.to_string().contains("nope"));
        let e = FlowError::Truncated {
            context: "netflow header",
            needed: 24,
            available: 3,
        };
        assert!(e.to_string().contains("netflow header"));
        let e = FlowError::BadLine {
            line: 7,
            detail: "missing dst".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_sources() {
        use std::error::Error as _;
        let e: FlowError = std::io::Error::other("disk on fire").into();
        assert!(e.source().is_some());
    }
}
