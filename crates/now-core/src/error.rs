//! Error types for the NOW protocol crate.

use now_net::{ClusterId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors surfaced by [`crate::NowSystem`] operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NowError {
    /// Parameter validation failed.
    BadParams {
        /// Human-readable reason.
        reason: String,
    },
    /// The node is not currently part of the network.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// The cluster id does not name a live cluster.
    UnknownCluster {
        /// The offending id.
        cluster: ClusterId,
    },
    /// The operation would leave the system without any cluster.
    LastCluster,
    /// The population floor (`N^{1/y}`, default `√N`) would be violated
    /// by this leave.
    PopulationFloor {
        /// Current population.
        population: u64,
        /// The floor.
        floor: u64,
    },
    /// The population ceiling (`N^z`, default `N`) would be violated by
    /// this join.
    PopulationCeiling {
        /// Current population.
        population: u64,
        /// The ceiling.
        ceiling: u64,
    },
    /// A campaign file failed to parse (see `now-campaign`): the line
    /// number is 1-based and the reason names the malformed directive.
    CampaignParse {
        /// 1-based line number of the offending directive.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A campaign run or report emission failed outside parsing (e.g.
    /// an empty phase list, or an I/O failure writing the JSON report).
    CampaignReport {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for NowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NowError::BadParams { reason } => write!(f, "invalid NOW parameters: {reason}"),
            NowError::UnknownNode { node } => write!(f, "unknown node {node}"),
            NowError::UnknownCluster { cluster } => write!(f, "unknown cluster {cluster}"),
            NowError::LastCluster => write!(f, "operation would remove the last cluster"),
            NowError::PopulationFloor { population, floor } => write!(
                f,
                "population {population} at the model floor {floor}; leave refused"
            ),
            NowError::PopulationCeiling {
                population,
                ceiling,
            } => write!(
                f,
                "population {population} at the model ceiling {ceiling}; join refused"
            ),
            NowError::CampaignParse { line, reason } => {
                write!(f, "campaign parse error at line {line}: {reason}")
            }
            NowError::CampaignReport { reason } => {
                write!(f, "campaign report error: {reason}")
            }
        }
    }
}

impl Error for NowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NowError::UnknownNode {
            node: NodeId::from_raw(3),
        };
        assert_eq!(e.to_string(), "unknown node n3");
        let e = NowError::PopulationFloor {
            population: 16,
            floor: 16,
        };
        assert!(e.to_string().contains("floor"));
        let e = NowError::CampaignParse {
            line: 7,
            reason: "unknown directive `frobnicate`".into(),
        };
        assert_eq!(
            e.to_string(),
            "campaign parse error at line 7: unknown directive `frobnicate`"
        );
        let e = NowError::CampaignReport {
            reason: "campaign has no phases".into(),
        };
        assert!(e.to_string().contains("no phases"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<NowError>();
    }
}
