//! Why a transaction aborted, shared across the workspace.

use std::fmt;

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A replica's MVTSO check found a serializability conflict.
    Conflict,
    /// The transaction's timestamp exceeded a replica's acceptance window.
    TimestampOutOfBounds,
    /// A dependency of the transaction aborted.
    DependencyAborted,
    /// A dependency claimed by the transaction could not be validated.
    InvalidDependency,
    /// The transaction metadata itself proves client misbehaviour (e.g. it
    /// claims to have read a version newer than its own timestamp).
    Misbehavior,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Conflict => "serializability conflict",
            AbortReason::TimestampOutOfBounds => "timestamp outside acceptance window",
            AbortReason::DependencyAborted => "dependency aborted",
            AbortReason::InvalidDependency => "invalid dependency",
            AbortReason::Misbehavior => "client misbehaviour detected",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(AbortReason::Conflict.to_string().contains("conflict"));
        assert!(AbortReason::TimestampOutOfBounds
            .to_string()
            .contains("timestamp"));
    }

    #[test]
    fn all_abort_reasons_have_distinct_text() {
        use AbortReason::*;
        let all = [
            Conflict,
            TimestampOutOfBounds,
            DependencyAborted,
            InvalidDependency,
            Misbehavior,
        ];
        let texts: std::collections::HashSet<String> = all.iter().map(|r| r.to_string()).collect();
        assert_eq!(texts.len(), all.len());
    }
}
