//! The flight recorder: a bounded ring of recent protocol events.

use crate::event::{TraceData, TraceEvent};
use crate::json::Json;
use std::collections::{BTreeSet, VecDeque};

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Events are pushed in canonical op order by the engines; when the
/// ring is full the oldest event is evicted. Sequence numbers are
/// global and monotone, so [`FlightRecorder::evicted`] history is
/// visible as a gap before the first retained event. Because every
/// recording site is on the deterministic path, the retained window —
/// and its JSON rendering — is a pure function of the run's seed and
/// inputs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<TraceEvent>,
    dump: Option<ViolationDump>,
}

/// The one-shot forensic dump taken when the first violation is
/// raised: the ring's events at that moment, filtered to the offending
/// cluster's causal neighborhood.
#[derive(Debug, Clone)]
pub struct ViolationDump {
    /// Time step of the violating audit.
    pub step: u64,
    /// Violation kind (e.g. `"not_two_thirds_honest"`).
    pub kind: &'static str,
    /// The offending cluster, if the audit identified one.
    pub cluster: Option<u64>,
    /// The causal neighborhood used as the filter: the offending
    /// cluster plus its overlay neighbors at violation time (empty
    /// when no cluster was identified — then nothing is filtered out).
    pub neighborhood: Vec<u64>,
    /// The retained events that touch the neighborhood (all retained
    /// events when `neighborhood` is empty).
    pub events: Vec<TraceEvent>,
}

impl ViolationDump {
    /// Canonical JSON object for the dump.
    pub(crate) fn json(&self) -> Json {
        Json::object([
            ("step", self.step.into()),
            ("kind", self.kind.into()),
            ("cluster", self.cluster.into()),
            (
                "neighborhood",
                Json::array(self.neighborhood.iter().copied()),
            ),
            (
                "events",
                Json::array(self.events.iter().map(TraceEvent::json)),
            ),
        ])
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `capacity` events
    /// (`capacity` below 1 behaves as 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            next_seq: 0,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dump: None,
        }
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub fn push(&mut self, step: u64, data: TraceData) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(TraceEvent {
            seq: self.next_seq,
            step,
            data,
        });
        self.next_seq += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything evicted —
    /// impossible, eviction only happens on push).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far.
    pub fn evicted(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The violation dump, if one was captured.
    pub fn dump(&self) -> Option<&ViolationDump> {
        self.dump.as_ref()
    }

    /// Captures the one-shot violation dump (first call wins; later
    /// violations record [`TraceData::Violation`] events but do not
    /// retake the dump). `neighborhood` is the offending cluster's
    /// causal neighborhood — events referencing none of its clusters
    /// are filtered out; an empty neighborhood keeps everything.
    pub fn capture_dump(
        &mut self,
        step: u64,
        kind: &'static str,
        cluster: Option<u64>,
        neighborhood: &[u64],
    ) {
        if self.dump.is_some() {
            return;
        }
        let set: BTreeSet<u64> = neighborhood.iter().copied().collect();
        let events: Vec<TraceEvent> = self
            .buf
            .iter()
            .filter(|ev| {
                if set.is_empty() {
                    return true;
                }
                let (a, b) = ev.data.clusters();
                a.is_some_and(|c| set.contains(&c)) || b.is_some_and(|c| set.contains(&c))
            })
            .copied()
            .collect();
        let mut neighborhood: Vec<u64> = set.into_iter().collect();
        neighborhood.sort_unstable();
        self.dump = Some(ViolationDump {
            step,
            kind,
            cluster,
            neighborhood,
            events,
        });
    }

    /// Canonical JSON for the whole recorder: capacity, eviction count,
    /// retained events (one line each), and the violation dump (or
    /// `null`).
    pub fn json(&self) -> Json {
        Json::object([
            ("capacity", self.capacity.into()),
            ("recorded", self.recorded().into()),
            ("evicted", self.evicted().into()),
            ("events", Json::array(self.buf.iter().map(TraceEvent::json))),
            ("dump", self.dump.as_ref().map(ViolationDump::json).into()),
        ])
    }

    /// [`FlightRecorder::json`] rendered as a document.
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(ops: u64) -> TraceData {
        TraceData::Wave {
            ops,
            rounds: 1,
            messages: 1,
        }
    }

    #[test]
    fn ring_evicts_oldest_first_in_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.push(i, wave(i));
        }
        // Events 0 and 1 evicted; 2, 3, 4 retained in push order.
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        assert_eq!(rec.recorded(), 5);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let steps: Vec<u64> = rec.events().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn sequence_numbers_survive_eviction() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..10 {
            rec.push(0, wave(i));
        }
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9], "seq is global, not ring-relative");
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut rec = FlightRecorder::new(0);
        rec.push(0, wave(1));
        rec.push(1, wave(2));
        assert_eq!(rec.capacity(), 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.events().next().unwrap().seq, 1);
    }

    #[test]
    fn dump_filters_to_the_neighborhood_and_is_one_shot() {
        let mut rec = FlightRecorder::new(16);
        rec.push(
            0,
            TraceData::Split {
                cluster: 1,
                new_cluster: 2,
            },
        );
        rec.push(
            1,
            TraceData::Merge {
                cluster: 7,
                absorbed: 8,
            },
        );
        rec.push(
            2,
            TraceData::Violation {
                kind: "size_bounds",
                cluster: Some(1),
            },
        );
        rec.capture_dump(2, "size_bounds", Some(1), &[1, 2]);
        let dump = rec.dump().expect("dump taken");
        assert_eq!(dump.kind, "size_bounds");
        assert_eq!(dump.neighborhood, vec![1, 2]);
        // The merge of clusters 7/8 is outside the neighborhood.
        assert_eq!(dump.events.len(), 2);
        assert!(dump
            .events
            .iter()
            .all(|e| matches!(e.data.kind(), "split" | "violation")));
        // Second capture is ignored.
        rec.capture_dump(9, "forgeable", Some(7), &[7]);
        assert_eq!(rec.dump().unwrap().step, 2);
    }

    #[test]
    fn empty_neighborhood_keeps_everything() {
        let mut rec = FlightRecorder::new(4);
        rec.push(0, wave(1));
        rec.push(
            1,
            TraceData::OpApplied {
                canon: 0,
                join: true,
                node: 5,
            },
        );
        rec.capture_dump(1, "size_bounds", None, &[]);
        assert_eq!(rec.dump().unwrap().events.len(), 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut rec = FlightRecorder::new(2);
        rec.push(0, wave(3));
        let json = rec.to_json();
        assert!(json.contains("\"capacity\": 2"));
        assert!(json.contains("\"evicted\": 0"));
        assert!(json.contains("\"kind\": \"wave\""));
        assert!(json.contains("\"dump\": null"));
        // One line per event, in the ring and in the dump.
        let line = "{\"seq\": 0, \"step\": 0, \"kind\": \"wave\", \"ops\": 3, \"rounds\": 1, \
                    \"messages\": 1}";
        assert!(json.contains(&format!("\"events\": [\n    {line}\n  ],")));
        rec.capture_dump(0, "size_bounds", None, &[]);
        let json = rec.to_json();
        assert!(json.contains(&format!(
            "\"dump\": {{\n    \"step\": 0,\n    \"kind\": \"size_bounds\",\n    \
             \"cluster\": null,\n    \"neighborhood\": [],\n    \"events\": [\n      {line}\n    ]\n  }}"
        )));
        // Determinism guard: no wall-clock or worker-count vocabulary
        // may ever enter the trace artifact.
        for banned in ["wall", "nanos", "thread"] {
            assert!(!json.contains(banned), "{banned} leaked into trace JSON");
        }
    }
}
