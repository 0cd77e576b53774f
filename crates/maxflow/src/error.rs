//! Typed errors of the max-flow pipelines.

use std::fmt;

use cc_euler::EulerError;
use cc_ipm::IpmError;
use cc_model::ModelError;

/// Failure of a distributed max-flow run.
///
/// Precondition violations (bad terminals, infeasible starting flows,
/// clique too small) remain panics; runtime failures — the communication
/// substrate rejecting a primitive call anywhere in the IPM, rounding or
/// repair stages — surface here instead of aborting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MaxFlowError {
    /// The communication substrate rejected a primitive call.
    Comm(ModelError),
    /// An electrical solve inside the interior point method failed.
    Solver(IpmError),
    /// The flow-rounding stage (Lemma 4.2, `cc-euler`) failed.
    Rounding(EulerError),
    /// A capacity or `|cost|` exceeds
    /// [`cc_graph::flow_util::flow_bound`], beyond which the pipeline's
    /// integer flow arithmetic would overflow `i64`.
    BeyondFlowBound,
}

impl fmt::Display for MaxFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxFlowError::Comm(e) => write!(f, "communication failure during max flow: {e}"),
            MaxFlowError::Solver(e) => write!(f, "electrical solve failed during max flow: {e}"),
            MaxFlowError::Rounding(e) => write!(f, "flow rounding failed during max flow: {e}"),
            MaxFlowError::BeyondFlowBound => {
                write!(f, "capacities and costs must be at most flow_bound(n, m)")
            }
        }
    }
}

impl std::error::Error for MaxFlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaxFlowError::Comm(e) => Some(e),
            MaxFlowError::Solver(e) => Some(e),
            MaxFlowError::Rounding(e) => Some(e),
            MaxFlowError::BeyondFlowBound => None,
        }
    }
}

impl From<ModelError> for MaxFlowError {
    fn from(e: ModelError) -> Self {
        MaxFlowError::Comm(e)
    }
}

impl From<IpmError> for MaxFlowError {
    fn from(e: IpmError) -> Self {
        MaxFlowError::Solver(e)
    }
}

impl From<EulerError> for MaxFlowError {
    fn from(e: EulerError) -> Self {
        MaxFlowError::Rounding(e)
    }
}

/// True if `e`'s source chain bottoms out in a [`ModelError`] — i.e. the
/// failure is rooted in the communication substrate (an injected fault or
/// a congestion rejection) rather than numerical degradation. The IPM
/// propagates comm-rooted build failures but degrades gracefully (hands
/// over to repair) on numerical ones.
pub(crate) fn comm_rooted(e: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
    while let Some(s) = cur {
        if s.is::<ModelError>() {
            return true;
        }
        cur = s.source();
    }
    false
}
