//! The engine's typed error.
//!
//! Every fallible [`Engine`](crate::Engine) method returns [`Error`], one
//! variant per pipeline stage, wrapping that stage's own error type with
//! full [`std::error::Error::source`] chaining — so callers can match on
//! *where* a request failed (parse vs bind vs optimize vs execute vs
//! append) without string inspection, while `{}` still renders the whole
//! story.

use std::fmt;

use starshare_exec::ExecError;
use starshare_mdx::{BindError, ParseError};
use starshare_olap::OlapError;
use starshare_opt::OptError;
use starshare_storage::FaultError;

/// Why the serving layer refused a submission (see
/// [`Error::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overload {
    /// The server's bounded submission queue was full; `depth` is its
    /// capacity.
    Queue {
        /// The queue's capacity.
        depth: usize,
    },
    /// The submitting tenant already has `budget` submissions in flight.
    Tenant {
        /// The tenant's in-flight budget.
        budget: usize,
    },
}

impl fmt::Display for Overload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overload::Queue { depth } => {
                write!(f, "submission queue full ({depth} deep)")
            }
            Overload::Tenant { budget } => {
                write!(f, "tenant in-flight budget exhausted ({budget} allowed)")
            }
        }
    }
}

/// An error from any stage of the engine's pipeline.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Error {
    /// The MDX text failed to parse.
    Parse(ParseError),
    /// The parsed expression failed to bind against the schema.
    Bind(BindError),
    /// Plan search failed (typically: a query no stored table answers).
    Optimize(OptError),
    /// Physical execution failed for a plan-level reason.
    Exec(ExecError),
    /// A page read failed past the executor's bounded retry (an injected or
    /// real storage fault). Queries failing this way degrade individually
    /// in [`mdx_many`](crate::Engine::mdx_many) — the rest of the batch
    /// still answers.
    Fault(FaultError),
    /// [`append_facts`](crate::Engine::append_facts) refused its rows
    /// (bad arity, an out-of-range key, a measure outside the domain);
    /// nothing was mutated.
    Append(OlapError),
    /// The serving layer refused admission: the bounded submission queue or
    /// the tenant's in-flight budget is full (`starshare-serve`). The
    /// submission was not enqueued — retry after draining in-flight work.
    Overloaded(Overload),
    /// The serving layer has shut down; no further submissions are
    /// accepted and no pending reply will arrive.
    Closed,
}

impl Error {
    /// The underlying storage fault, if this is one.
    pub fn fault(&self) -> Option<&FaultError> {
        match self {
            Error::Fault(e) => Some(e),
            _ => None,
        }
    }

    /// True for unrecovered storage faults.
    pub fn is_fault(&self) -> bool {
        matches!(self, Error::Fault(_))
    }

    /// True when the serving layer refused admission
    /// ([`Error::Overloaded`]) — the caller should back off and retry.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, Error::Overloaded(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Bind(e) => write!(f, "bind error: {e}"),
            Error::Optimize(e) => write!(f, "optimize error: {e}"),
            Error::Exec(e) => write!(f, "execution error: {e}"),
            Error::Fault(e) => write!(f, "storage fault: {e}"),
            Error::Append(e) => write!(f, "append rejected: {e}"),
            Error::Overloaded(o) => write!(f, "overloaded: {o}"),
            Error::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Bind(e) => Some(e),
            Error::Optimize(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Fault(e) => Some(e),
            Error::Append(e) => Some(e),
            Error::Overloaded(_) | Error::Closed => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<BindError> for Error {
    fn from(e: BindError) -> Self {
        Error::Bind(e)
    }
}

impl From<OptError> for Error {
    fn from(e: OptError) -> Self {
        Error::Optimize(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Fault(f) => Error::Fault(f),
            other => Error::Exec(other),
        }
    }
}

impl From<FaultError> for Error {
    fn from(e: FaultError) -> Self {
        Error::Fault(e)
    }
}

impl From<OlapError> for Error {
    fn from(e: OlapError) -> Self {
        Error::Append(e)
    }
}

/// Shorthand for engine results.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_stage_and_chains_the_source() {
        let e = Error::from(OptError::new("no table can answer Q"));
        assert_eq!(e.to_string(), "optimize error: no table can answer Q");
        let src = e.source().expect("chained");
        assert_eq!(src.to_string(), "no table can answer Q");
        assert!(matches!(e, Error::Optimize(_)));
    }

    #[test]
    fn every_variant_converts_from_its_stage_error() {
        assert!(matches!(Error::from(ExecError::new("x")), Error::Exec(_)));
        let append = Error::from(OlapError::new("x"));
        assert!(matches!(append, Error::Append(_)));
        assert_eq!(append.to_string(), "append rejected: x");
    }

    #[test]
    fn exec_faults_route_to_the_fault_variant() {
        use starshare_storage::{FaultKind, FileId};
        let f = FaultError {
            file: FileId(1),
            page: 2,
            kind: FaultKind::TransientRead,
            access_no: 3,
        };
        let e = Error::from(ExecError::from(f));
        assert!(e.is_fault());
        assert_eq!(e.fault(), Some(&f));
        assert!(e.to_string().starts_with("storage fault:"), "{e}");
        // Plan-level exec errors keep the Exec variant.
        assert!(!Error::from(ExecError::new("bad plan")).is_fault());
    }

    #[test]
    fn overload_names_the_limit_that_tripped() {
        let q = Error::Overloaded(Overload::Queue { depth: 8 });
        assert!(q.is_overloaded());
        assert_eq!(q.to_string(), "overloaded: submission queue full (8 deep)");
        let t = Error::Overloaded(Overload::Tenant { budget: 2 });
        assert!(
            t.to_string().contains("budget exhausted (2 allowed)"),
            "{t}"
        );
        assert!(q.source().is_none());
        assert!(!Error::Closed.is_overloaded());
        assert_eq!(Error::Closed.to_string(), "server closed");
    }
}
