//! The service-layer error type: every failure carries the request ID
//! and graph name it belongs to, and wraps the underlying crate's typed
//! error so `source()`-chain classifiers (e.g.
//! `cc_conform::comm_rooted`) see through the new layer unchanged.

use std::fmt;

use cc_apsp::ApspError;
use cc_core::CoreError;
use cc_maxflow::MaxFlowError;
use cc_mcf::McfError;

/// What went wrong inside a [`crate::FlowEngine`] request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceErrorKind {
    /// The request named a graph the registry does not hold.
    UnknownGraph,
    /// The request is malformed for the graph it targets (wrong graph
    /// kind, out-of-range vertex, bad vector length, non-positive `eps`).
    BadRequest {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A Laplacian solve or effective-resistance computation failed.
    Core(CoreError),
    /// A max-flow pipeline failed.
    MaxFlow(MaxFlowError),
    /// A min-cost-flow pipeline failed.
    Mcf(McfError),
    /// A shortest-path computation failed.
    Apsp(ApspError),
    /// The request exceeded the engine's per-request round budget
    /// ([`crate::EngineConfig::round_budget`]). Budget violations are a
    /// service-level policy decision, not a communication fault, so they
    /// are never retried.
    RoundBudgetExceeded {
        /// Rounds the request cost.
        rounds: u64,
        /// The configured per-request budget it exceeded.
        budget: u64,
    },
}

/// Failure of one [`crate::FlowEngine`] request: the underlying crate's
/// typed error (or a service-level validation failure) tagged with the
/// request ID and the graph name it targeted.
///
/// The [`std::error::Error::source`] chain continues into the wrapped
/// error, so comm-rooted classification (walking the chain down to a
/// `cc_model::ModelError`) works through this layer exactly as it does
/// on the per-crate errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Engine-assigned ID of the failing request.
    pub request_id: u64,
    /// Name of the graph the request targeted.
    pub graph: String,
    /// The wrapped failure.
    pub kind: ServiceErrorKind,
    /// Transport-layer faults the engine's communicator observed while
    /// this request (including its retries) executed — the events of
    /// a [`cc_model::FaultComm`]'s log (injected faults, omissions and
    /// corruptions); 0 over honest transports.
    pub faults_observed: u64,
    /// Attempts the engine made before giving up (1 = no retry; > 1 only
    /// under a retrying [`crate::RetryPolicy`]).
    pub attempts: u32,
}

impl ServiceError {
    pub(crate) fn new(request_id: u64, graph: &str, kind: ServiceErrorKind) -> Self {
        Self {
            request_id,
            graph: graph.to_string(),
            kind,
            faults_observed: 0,
            attempts: 1,
        }
    }

    /// True if the failure is rooted in the communication layer — the
    /// [`std::error::Error::source`] chain bottoms out in a
    /// [`cc_model::ModelError`]. Comm-rooted failures are the transient
    /// class a [`crate::RetryPolicy`] retries; validation and policy
    /// errors are not.
    pub fn comm_rooted(&self) -> bool {
        let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(self);
        while let Some(e) = cur {
            if e.is::<cc_model::ModelError>() {
                return true;
            }
            cur = e.source();
        }
        false
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} on graph {:?}: ", self.request_id, self.graph)?;
        match &self.kind {
            ServiceErrorKind::UnknownGraph => write!(f, "graph is not registered"),
            ServiceErrorKind::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServiceErrorKind::Core(e) => write!(f, "{e}"),
            ServiceErrorKind::MaxFlow(e) => write!(f, "{e}"),
            ServiceErrorKind::Mcf(e) => write!(f, "{e}"),
            ServiceErrorKind::Apsp(e) => write!(f, "{e}"),
            ServiceErrorKind::RoundBudgetExceeded { rounds, budget } => {
                write!(f, "round budget exceeded: {rounds} rounds, budget {budget}")
            }
        }?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ServiceErrorKind::UnknownGraph
            | ServiceErrorKind::BadRequest { .. }
            | ServiceErrorKind::RoundBudgetExceeded { .. } => None,
            ServiceErrorKind::Core(e) => Some(e),
            ServiceErrorKind::MaxFlow(e) => Some(e),
            ServiceErrorKind::Mcf(e) => Some(e),
            ServiceErrorKind::Apsp(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::ModelError;

    fn comm_rooted(e: &(dyn std::error::Error + 'static)) -> bool {
        let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
        while let Some(s) = cur {
            if s.is::<ModelError>() {
                return true;
            }
            cur = s.source();
        }
        false
    }

    #[test]
    fn comm_rooted_classification_sees_through_the_wrapper() {
        let inner = MaxFlowError::Comm(ModelError::UnicastInBroadcastModel { primitive: "route" });
        let e = ServiceError::new(7, "net", ServiceErrorKind::MaxFlow(inner));
        assert!(comm_rooted(&e));
        assert!(e.comm_rooted(), "the method agrees with the classifier");
        let bad = ServiceError::new(
            8,
            "net",
            ServiceErrorKind::BadRequest {
                reason: "bad terminals",
            },
        );
        assert!(!comm_rooted(&bad));
        assert!(!bad.comm_rooted());
        // Adversary omissions are comm-rooted (they carry a ModelError).
        let silenced = ServiceError::new(
            9,
            "net",
            ServiceErrorKind::Core(cc_core::CoreError::Comm(ModelError::NodeSilenced {
                node: 1,
                round: 3,
            })),
        );
        assert!(silenced.comm_rooted());
        // Budget violations are a policy decision, not a comm fault.
        let over = ServiceError::new(
            10,
            "net",
            ServiceErrorKind::RoundBudgetExceeded {
                rounds: 12,
                budget: 8,
            },
        );
        assert!(!over.comm_rooted());
        assert!(over.to_string().contains("budget 8"), "{over}");
    }

    #[test]
    fn display_names_request_and_graph() {
        let e = ServiceError::new(3, "grid", ServiceErrorKind::UnknownGraph);
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("grid"), "{s}");
    }
}
