//! Typed protocol events and their canonical JSON form.

use crate::json::Json;

/// One protocol event, as recorded by the engines.
///
/// Identities are raw `u64`s (`NodeId::raw` / `ClusterId::raw`
/// upstream) so the event type carries no workspace
/// dependencies. Every variant's fields are protocol outcomes — never
/// wall-clock readings, thread counts, or any other value that could
/// differ between two runs of the same `(seed, config)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// An operation was admitted into the step, at canonical position
    /// `canon` (departures before arrivals, each in input order).
    OpPlanned {
        /// Canonical position within the step.
        canon: u64,
        /// `true` for an arrival, `false` for a departure.
        join: bool,
        /// The joining/leaving node.
        node: u64,
    },
    /// An admitted operation's effects were applied.
    OpApplied {
        /// Canonical position within the step.
        canon: u64,
        /// `true` for an arrival, `false` for a departure.
        join: bool,
        /// The joining/leaving node.
        node: u64,
    },
    /// A departure was rejected (unknown node or population floor).
    OpRejected {
        /// The refused node.
        node: u64,
    },
    /// Event engine: an admitted operation's message entered the net.
    MsgSend {
        /// Canonical position of the operation the message carries.
        canon: u64,
        /// Sending cluster.
        from: u64,
        /// Receiving (contact/home) cluster.
        to: u64,
    },
    /// Event engine: a message was delivered at virtual time `time`.
    MsgDeliver {
        /// Virtual delivery time.
        time: u64,
        /// Canonical position of the carried operation.
        canon: u64,
    },
    /// Event engine: the net lost a message; the operation never ran.
    MsgDrop {
        /// Virtual time of the loss.
        time: u64,
        /// Canonical position of the carried operation.
        canon: u64,
        /// `"loss"`, `"partition"`, or `"dead"`.
        reason: &'static str,
    },
    /// An oversized cluster split.
    Split {
        /// The splitting cluster (keeps its overlay vertex).
        cluster: u64,
        /// The freshly minted half.
        new_cluster: u64,
    },
    /// An undersized cluster absorbed a victim cluster.
    Merge {
        /// The surviving (undersized) cluster.
        cluster: u64,
        /// The dissolved victim.
        absorbed: u64,
    },
    /// Stale join contacts redrawn during the step.
    ContactRedraws {
        /// Number of redraws.
        count: u64,
    },
    /// A conflict-free wave executed.
    Wave {
        /// Operations in the wave.
        ops: u64,
        /// Critical-path rounds (max over the wave's operations).
        rounds: u64,
        /// Message cost summed over the wave.
        messages: u64,
    },
    /// Event engine: a partition was in force at step start.
    Partition {
        /// Port groups the partition splits the net into.
        groups: u64,
    },
    /// Event engine: the partition heals at virtual time `at`.
    Heal {
        /// Virtual heal time.
        at: u64,
    },
    /// An invariant violation was raised by an audit.
    Violation {
        /// Violation kind (e.g. `"not_two_thirds_honest"`).
        kind: &'static str,
        /// The worst cluster at that moment, if identifiable.
        cluster: Option<u64>,
    },
}

impl TraceData {
    /// Canonical event-kind tag (the `"kind"` field of the JSON form).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceData::OpPlanned { .. } => "op_planned",
            TraceData::OpApplied { .. } => "op_applied",
            TraceData::OpRejected { .. } => "op_rejected",
            TraceData::MsgSend { .. } => "msg_send",
            TraceData::MsgDeliver { .. } => "msg_deliver",
            TraceData::MsgDrop { .. } => "msg_drop",
            TraceData::Split { .. } => "split",
            TraceData::Merge { .. } => "merge",
            TraceData::ContactRedraws { .. } => "contact_redraws",
            TraceData::Wave { .. } => "wave",
            TraceData::Partition { .. } => "partition",
            TraceData::Heal { .. } => "heal",
            TraceData::Violation { .. } => "violation",
        }
    }

    /// The clusters this event references, for causal-neighborhood
    /// filtering (none for node- or step-scoped events).
    pub(crate) fn clusters(&self) -> (Option<u64>, Option<u64>) {
        match *self {
            TraceData::MsgSend { from, to, .. } => (Some(from), Some(to)),
            TraceData::Split {
                cluster,
                new_cluster,
            } => (Some(cluster), Some(new_cluster)),
            TraceData::Merge { cluster, absorbed } => (Some(cluster), Some(absorbed)),
            TraceData::Violation { cluster, .. } => (cluster, None),
            _ => (None, None),
        }
    }
}

/// A recorded event: monotone sequence number, protocol time step, and
/// the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone per-recorder sequence number (never reused; survives
    /// ring eviction, so gaps at the front reveal evicted history).
    pub seq: u64,
    /// Protocol time step during which the event occurred.
    pub step: u64,
    /// The event payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// The event as one JSON row: fixed field order (`seq`, `step`,
    /// `kind`, then the variant's fields in declaration order),
    /// integers only.
    pub(crate) fn json(&self) -> Json {
        let mut m: Vec<(&str, Json)> = vec![
            ("seq", self.seq.into()),
            ("step", self.step.into()),
            ("kind", self.data.kind().into()),
        ];
        match self.data {
            TraceData::OpPlanned { canon, join, node }
            | TraceData::OpApplied { canon, join, node } => m.extend([
                ("canon", canon.into()),
                ("op", if join { "join" } else { "leave" }.into()),
                ("node", node.into()),
            ]),
            TraceData::OpRejected { node } => m.push(("node", node.into())),
            TraceData::MsgSend { canon, from, to } => m.extend([
                ("canon", canon.into()),
                ("from", from.into()),
                ("to", to.into()),
            ]),
            TraceData::MsgDeliver { time, canon } => {
                m.extend([("time", time.into()), ("canon", canon.into())]);
            }
            TraceData::MsgDrop {
                time,
                canon,
                reason,
            } => m.extend([
                ("time", time.into()),
                ("canon", canon.into()),
                ("reason", reason.into()),
            ]),
            TraceData::Split {
                cluster,
                new_cluster,
            } => m.extend([
                ("cluster", cluster.into()),
                ("new_cluster", new_cluster.into()),
            ]),
            TraceData::Merge { cluster, absorbed } => {
                m.extend([("cluster", cluster.into()), ("absorbed", absorbed.into())]);
            }
            TraceData::ContactRedraws { count } => m.push(("count", count.into())),
            TraceData::Wave {
                ops,
                rounds,
                messages,
            } => m.extend([
                ("ops", ops.into()),
                ("rounds", rounds.into()),
                ("messages", messages.into()),
            ]),
            TraceData::Partition { groups } => m.push(("groups", groups.into())),
            TraceData::Heal { at } => m.push(("at", at.into())),
            TraceData::Violation { kind, cluster } => {
                m.extend([("violation", kind.into()), ("cluster", cluster.into())]);
            }
        }
        Json::object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let split = TraceData::Split {
            cluster: 1,
            new_cluster: 2,
        };
        assert_eq!(split.kind(), "split");
        assert_eq!(TraceData::Heal { at: 4 }.kind(), "heal");
    }

    #[test]
    fn json_has_fixed_field_order() {
        let ev = TraceEvent {
            seq: 3,
            step: 7,
            data: TraceData::OpApplied {
                canon: 2,
                join: true,
                node: 41,
            },
        };
        // A top-level object breaks; as an array element (in the
        // recorder's `events`) it is one line.
        assert_eq!(
            Json::array([ev.json()]).render(),
            "[\n  {\"seq\": 3, \"step\": 7, \"kind\": \"op_applied\", \"canon\": 2, \
             \"op\": \"join\", \"node\": 41}\n]\n"
        );
    }

    #[test]
    fn violation_renders_null_cluster() {
        let ev = TraceEvent {
            seq: 0,
            step: 1,
            data: TraceData::Violation {
                kind: "size_bounds",
                cluster: None,
            },
        };
        assert!(ev.json().render().ends_with("\"cluster\": null\n}\n"));
    }

    #[test]
    fn cluster_refs_cover_cluster_scoped_events() {
        let merge = TraceData::Merge {
            cluster: 5,
            absorbed: 9,
        };
        assert_eq!(merge.clusters(), (Some(5), Some(9)));
        let op = TraceData::OpPlanned {
            canon: 0,
            join: false,
            node: 3,
        };
        assert_eq!(op.clusters(), (None, None));
    }
}
