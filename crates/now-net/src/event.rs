//! Deterministic discrete-event network scheduler.
//!
//! The paper assumes synchrony and lists removing that assumption as
//! future work (§6: *"We currently seek schemes to alleviate the need
//! of the assumption of synchronous nodes."*). [`EventNet`] is the
//! substrate for that extension: a network with **no round barrier**,
//! where protocols can react to single deliveries. It is a seeded event
//! loop whose entire behavior — per-link latency, jitter, loss, and
//! partitions — is a pure function of `(seed, config)`. Two
//! `EventNet`s built from the same pair replay byte-identical delivery
//! schedules, whatever thread count or host executes the protocol on
//! top.
//!
//! An *adversarial* scheduler is the same net with the delay chosen by
//! the caller: [`EventNet::send_after`] takes the delivery delay
//! explicitly (`now_agreement::ben_or` draws it from its own stream,
//! bounded by a simulation horizon so every run terminates), and
//! [`EventNet::send`] is that call with the delay drawn from the link
//! model.
//!
//! The paper's own synchronous model is the same net driven a round at
//! a time: [`EventNet::round`] advances virtual time by one tick and
//! hands every port the messages due by then, in send order. Under
//! [`EventNetConfig::ideal`] every message sent in one round arrives at
//! the next, the net's stream is never read and [`EventNet::now`]
//! counts rounds — the lock-step model the message-level (L0)
//! protocols run on: flooding discovery, Bracha, Dolev–Strong and
//! commit–reveal `randNum`.
//!
//! Ports are dense `usize` indices local to one protocol execution; the
//! caller maps ports to global [`crate::NodeId`]s. The net stamps every
//! [`Envelope`] with the true sender port, so a Byzantine node may *say*
//! anything but cannot *impersonate* anyone — the paper's
//! unforgeable-identity assumption.
//!
//! # Link model
//!
//! Every accepted message is scheduled `latency + U(0..=jitter)` ticks
//! of virtual time after its send, where the uniform draw comes from the
//! net's own internal [`DetRng`]. Delays and delivery times saturate at
//! `u64::MAX` rather than wrap. Before scheduling, the message may be
//! *lost*: an independent Bernoulli draw with probability
//! [`EventNetConfig::drop`], or a partition cut
//! ([`Partition`]) while the partition is in force. Lost messages count
//! in [`EventNet::messages_sent`] and [`EventNet::dropped`] but are
//! never delivered — after draining the queue,
//! `delivered + dropped == messages_sent` holds exactly, which the
//! partition-heal tests assert.
//!
//! Self-addressed messages (`from == to`) model node-local events (a
//! timer, a detector firing): they pay base latency only and are exempt
//! from loss and partitions.

use crate::rng::DetRng;
use rand::Rng;
use std::collections::BTreeMap;

/// A message in flight or delivered, stamped with its true sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// True sender port (stamped by the net, not claimable).
    pub from: usize,
    /// Destination port.
    pub to: usize,
    /// Protocol payload.
    pub payload: M,
}

/// A network partition: which port groups can exchange messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Fully connected — no cut.
    None,
    /// Ports are split into `groups` components by residue
    /// (`port % groups`); messages crossing components are cut while
    /// the partition is in force. `Split { groups: 1 }` (or 0) cuts
    /// nothing.
    Split {
        /// Number of components.
        groups: usize,
    },
}

impl Partition {
    /// Whether the link `from → to` is severed by this partition.
    pub fn severs(&self, from: usize, to: usize) -> bool {
        match *self {
            Partition::None => false,
            Partition::Split { groups } => groups >= 2 && from % groups != to % groups,
        }
    }
}

/// Link model of an [`EventNet`]: the `config` half of the
/// `(seed, config)` pair a run is replayable from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventNetConfig {
    /// Base latency in virtual-time ticks (values below 1 behave as 1:
    /// delivery is never instantaneous).
    pub latency: u64,
    /// Uniform extra delay: each message adds `U(0..=jitter)` ticks.
    pub jitter: u64,
    /// Independent per-message loss probability in `[0, 1]`.
    pub drop: f64,
    /// Partition in force from virtual time 0.
    pub partition: Partition,
    /// Virtual time at which the partition heals (`None` = never).
    /// Messages sent at `now >= heal_at` cross freely.
    pub heal_at: Option<u64>,
}

impl EventNetConfig {
    /// The benign baseline: latency 1, no jitter, no loss, no partition.
    pub fn ideal() -> Self {
        EventNetConfig {
            latency: 1,
            jitter: 0,
            drop: 0.0,
            partition: Partition::None,
            heal_at: None,
        }
    }

    /// Sets the base latency.
    pub fn with_latency(mut self, latency: u64) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the uniform jitter bound.
    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the per-message loss probability (clamped to `[0, 1]` at
    /// draw time).
    pub fn with_drop(mut self, drop: f64) -> Self {
        self.drop = drop;
        self
    }

    /// Splits the ports into `groups` components until
    /// [`EventNetConfig::healing_at`] (or forever).
    pub fn with_partition(mut self, groups: usize) -> Self {
        self.partition = if groups >= 2 {
            Partition::Split { groups }
        } else {
            Partition::None
        };
        self
    }

    /// Heals the partition at the given virtual time.
    pub fn healing_at(mut self, time: u64) -> Self {
        self.heal_at = Some(time);
        self
    }

    /// Whether the partition is in force at virtual time `now`.
    pub fn partitioned_at(&self, now: u64) -> bool {
        self.partition != Partition::None && self.heal_at.is_none_or(|h| now < h)
    }

    /// Whether the link `from → to` is cut at virtual time `now`.
    pub fn severs_at(&self, from: usize, to: usize, now: u64) -> bool {
        self.partitioned_at(now) && self.partition.severs(from, to)
    }
}

impl Default for EventNetConfig {
    fn default() -> Self {
        EventNetConfig::ideal()
    }
}

/// Why a send did not schedule a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Bernoulli loss draw fired.
    Loss,
    /// The partition severed the link at send time.
    Partition,
    /// The recipient was dead or unknown at send time.
    DeadRecipient,
}

/// One entry of a net's event trace: a delivery or a loss, in the
/// order the scheduler resolved them. The trace is part of the
/// byte-comparable outcome of an event-driven run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual time of the delivery (or of the send, for losses).
    pub time: u64,
    /// Caller-chosen operation/message tag.
    pub op: u64,
    /// `true` for a delivery, `false` for a loss.
    pub delivered: bool,
}

/// Seeded discrete-event network: delivery schedule, loss, and
/// partitions are a pure function of `(seed, config)`.
///
/// # Example
/// ```
/// use now_net::{EventNet, EventNetConfig};
///
/// let config = EventNetConfig::ideal().with_latency(3).with_jitter(2);
/// let mut net: EventNet<u32> = EventNet::new(2, config, 42);
/// net.send(0, 1, 7);
/// let (time, env) = net.pop().expect("scheduled");
/// assert!((3..=5).contains(&time));
/// assert_eq!((env.from, env.to, env.payload), (0, 1, 7));
/// // Same (seed, config) ⇒ same schedule, bit for bit.
/// let mut replay: EventNet<u32> = EventNet::new(2, config, 42);
/// replay.send(0, 1, 7);
/// assert_eq!(replay.pop().unwrap().0, time);
/// ```
#[derive(Debug, Clone)]
pub struct EventNet<M> {
    queue: BTreeMap<(u64, u64), Envelope<M>>,
    config: EventNetConfig,
    rng: DetRng,
    now: u64,
    seq: u64,
    alive: Vec<bool>,
    messages_sent: u64,
    delivered: u64,
    dropped: u64,
}

impl<M: Clone> EventNet<M> {
    /// Creates an event net over `n` live ports. All randomness (jitter
    /// draws, loss draws) comes from an internal stream seeded with
    /// `seed`: the net's behavior is replayable from `(seed, config)`
    /// alone.
    pub fn new(n: usize, config: EventNetConfig, seed: u64) -> Self {
        EventNet {
            queue: BTreeMap::new(),
            config,
            rng: DetRng::new(seed),
            now: 0,
            seq: 0,
            alive: vec![true; n],
            messages_sent: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.alive.len()
    }

    /// The link model this net was built with.
    pub fn config(&self) -> &EventNetConfig {
        &self.config
    }

    /// Current virtual time (the timestamp of the last delivery).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total messages accepted from live senders so far (delivered,
    /// in flight, or lost).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total messages lost so far (Bernoulli loss, partition cuts,
    /// dead recipients — at send or at delivery time). After draining,
    /// `delivered() + dropped() == messages_sent()`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Whether the partition (if any) is still in force at the current
    /// virtual time.
    pub fn partitioned(&self) -> bool {
        self.config.partitioned_at(self.now)
    }

    /// Marks a port dead (its in-flight and future traffic is lost) or
    /// alive again.
    pub fn set_alive(&mut self, port: usize, alive: bool) {
        if let Some(slot) = self.alive.get_mut(port) {
            *slot = alive;
        }
    }

    /// Queues a message on the link `from → to`, scheduling its
    /// delivery `latency + U(0..=jitter)` ticks from now, unless the
    /// link loses it: [`EventNet::send_after`] with the delay drawn
    /// from the link model. Self-addressed messages (`from == to`) are
    /// node-local and pay base latency only.
    pub fn send(&mut self, from: usize, to: usize, payload: M) -> Option<DropReason> {
        if !self.live(from) {
            return None;
        }
        // Fixed draw order per accepted send — jitter here, then the
        // loss draw of `send_after` — so the stream position never
        // depends on the config's outcome.
        let extra = if self.config.jitter > 0 && from != to {
            self.rng.gen_range(0..=self.config.jitter)
        } else {
            0
        };
        let delay = self.config.latency.max(1).saturating_add(extra);
        self.send_after(from, to, payload, delay)
    }

    /// Sends `payload` from `from` to every other port, in port order
    /// ([`EventNet::send`] per recipient).
    pub fn broadcast(&mut self, from: usize, payload: M) {
        for to in (0..self.ports()).filter(|&to| to != from) {
            self.send(from, to, payload.clone());
        }
    }

    /// Queues a message on the link `from → to` for delivery `delay`
    /// ticks from now (values below 1 behave as 1), unless the link
    /// loses it — the hook for an adversarial scheduler, which chooses
    /// every delay itself. Returns the loss reason, or `None` when the
    /// message was scheduled. The only draw is the loss draw, and only
    /// when [`EventNetConfig::drop`] is positive: under
    /// [`EventNetConfig::ideal`] the net's own stream is never read.
    ///
    /// A dead or unknown *sender* sends nothing (not counted). A live
    /// sender's message always counts in [`EventNet::messages_sent`],
    /// even when lost. Self-addressed messages (`from == to`) are
    /// node-local: exempt from loss and partitions.
    ///
    /// A partition cuts a cross-group message iff it is still in force
    /// at the message's scheduled **delivery** time: healing restores
    /// arrivals, so in-flight messages outrun a heal that lands before
    /// their delivery, while one that would land inside the cut is
    /// lost.
    pub fn send_after(
        &mut self,
        from: usize,
        to: usize,
        payload: M,
        delay: u64,
    ) -> Option<DropReason> {
        if !self.live(from) {
            return None;
        }
        self.messages_sent += 1;
        let local = from == to;
        let lost = if self.config.drop > 0.0 && !local {
            self.rng.gen_bool(self.config.drop.clamp(0.0, 1.0))
        } else {
            false
        };
        let deliver = self.now.saturating_add(delay.max(1));
        let reason = if !self.live(to) {
            Some(DropReason::DeadRecipient)
        } else if !local && self.config.severs_at(from, to, deliver) {
            Some(DropReason::Partition)
        } else if lost {
            Some(DropReason::Loss)
        } else {
            None
        };
        if reason.is_some() {
            self.dropped += 1;
            return reason;
        }
        self.seq += 1;
        self.queue
            .insert((deliver, self.seq), Envelope { from, to, payload });
        None
    }

    /// Delivers the earliest in-flight message, advancing virtual time
    /// to its timestamp. Returns `None` when nothing is in flight.
    /// Messages addressed to ports that died after sending are counted
    /// as [`EventNet::dropped`] and skipped.
    pub fn pop(&mut self) -> Option<(u64, Envelope<M>)> {
        while let Some(((time, _), env)) = self.queue.pop_first() {
            self.now = time;
            if self.live(env.to) {
                self.delivered += 1;
                return Some((time, env));
            }
            self.dropped += 1;
        }
        None
    }

    /// One synchronous round: advances virtual time by one tick and
    /// delivers every in-flight message due by then. Returns each port's
    /// deliveries as `(sender, payload)` pairs in send order
    /// (`inboxes[p]` for port `p`). A message to a port that died after
    /// the send counts as [`EventNet::dropped`], as in [`EventNet::pop`].
    ///
    /// Under [`EventNetConfig::ideal`] every message sent before a round
    /// is delivered by it, and [`EventNet::now`] equals the number of
    /// rounds run, empty ones included.
    pub fn round(&mut self) -> Vec<Vec<(usize, M)>> {
        self.now = self.now.saturating_add(1);
        let mut inboxes = vec![Vec::new(); self.ports()];
        while let Some(due) = self.queue.first_entry().filter(|e| e.key().0 <= self.now) {
            let env = due.remove();
            if self.live(env.to) {
                self.delivered += 1;
                inboxes[env.to].push((env.from, env.payload));
            } else {
                self.dropped += 1;
            }
        }
        inboxes
    }

    fn live(&self, port: usize) -> bool {
        self.alive.get(port).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut EventNet<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| net.pop())
            .map(|(t, e)| (t, e.payload))
            .collect()
    }

    #[test]
    fn same_seed_and_config_replay_byte_identical() {
        let config = EventNetConfig::ideal()
            .with_latency(2)
            .with_jitter(7)
            .with_drop(0.2);
        let run = || {
            let mut net: EventNet<u64> = EventNet::new(8, config, 99);
            for i in 0..200u64 {
                net.send((i % 8) as usize, ((i * 3 + 1) % 8) as usize, i);
            }
            (
                drain(&mut net),
                net.messages_sent(),
                net.delivered(),
                net.dropped(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_schedule_differently() {
        let config = EventNetConfig::ideal().with_jitter(30);
        let run = |seed| {
            let mut net: EventNet<u64> = EventNet::new(4, config, seed);
            for i in 0..50u64 {
                net.send(0, 1 + (i % 3) as usize, i);
            }
            drain(&mut net)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn latency_and_jitter_bound_the_delay() {
        let config = EventNetConfig::ideal().with_latency(5).with_jitter(3);
        let mut net: EventNet<u64> = EventNet::new(2, config, 7);
        for i in 0..100 {
            net.send(0, 1, i);
        }
        for (t, _) in drain(&mut net) {
            assert!((5..=8).contains(&t), "delay out of [5, 8]: {t}");
        }
    }

    #[test]
    fn zero_latency_behaves_as_one() {
        let config = EventNetConfig::ideal().with_latency(0);
        let mut net: EventNet<u64> = EventNet::new(2, config, 7);
        net.send(0, 1, 1);
        assert_eq!(net.pop().unwrap().0, 1, "delivery is never instantaneous");
    }

    #[test]
    fn loss_counts_sent_not_delivered() {
        let config = EventNetConfig::ideal().with_drop(1.0);
        let mut net: EventNet<u64> = EventNet::new(2, config, 3);
        for i in 0..10 {
            assert_eq!(net.send(0, 1, i), Some(DropReason::Loss));
        }
        assert_eq!(net.messages_sent(), 10);
        assert_eq!(net.dropped(), 10);
        assert_eq!(net.delivered(), 0);
        assert!(net.pop().is_none());
    }

    #[test]
    fn partition_cuts_cross_group_until_heal() {
        let config = EventNetConfig::ideal().with_partition(2).healing_at(100);
        let mut net: EventNet<u64> = EventNet::new(4, config, 5);
        // Pre-heal: 0 → 1 crosses groups {0,2} / {1,3} and is cut;
        // 0 → 2 stays within a group and flows.
        assert_eq!(net.send(0, 1, 1), Some(DropReason::Partition));
        assert_eq!(net.send(0, 2, 2), None);
        assert_eq!(net.pop().unwrap().1.payload, 2);
        // Advance virtual time past the heal via intra-group hops.
        let mut hops = 0;
        while net.now() < 100 {
            net.send(0, 2, 99);
            net.pop();
            hops += 1;
            assert!(hops < 1000, "heal never reached");
        }
        assert!(!net.partitioned());
        assert_eq!(net.send(0, 1, 3), None, "healed link flows");
        assert_eq!(net.pop().unwrap().1.payload, 3);
        // Conservation: every sent message was delivered or dropped.
        assert_eq!(net.delivered() + net.dropped(), net.messages_sent());
    }

    #[test]
    fn permanent_partition_never_heals() {
        let config = EventNetConfig::ideal().with_partition(2);
        let mut net: EventNet<u64> = EventNet::new(2, config, 5);
        assert_eq!(net.send(0, 1, 1), Some(DropReason::Partition));
        assert!(net.partitioned());
    }

    #[test]
    fn self_messages_are_exempt_from_loss_and_partition() {
        let config = EventNetConfig::ideal()
            .with_drop(1.0)
            .with_partition(2)
            .with_jitter(9);
        let mut net: EventNet<u64> = EventNet::new(3, config, 11);
        assert_eq!(net.send(1, 1, 7), None, "local events always fire");
        let (t, env) = net.pop().unwrap();
        assert_eq!(t, 1, "base latency only — no jitter on local events");
        assert_eq!(env.payload, 7);
    }

    #[test]
    fn dead_sender_not_counted_dead_recipient_counted() {
        let config = EventNetConfig::ideal();
        let mut net: EventNet<u64> = EventNet::new(3, config, 1);
        net.set_alive(1, false);
        assert_eq!(net.send(1, 0, 1), None, "dead sender sends nothing");
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(net.send(0, 1, 2), Some(DropReason::DeadRecipient));
        assert_eq!(net.messages_sent(), 1);
        assert_eq!(net.dropped(), 1);
        // Dying after send drops at delivery, still conserving counts.
        net.send(0, 2, 3);
        net.set_alive(2, false);
        assert!(net.pop().is_none());
        assert_eq!(net.delivered() + net.dropped(), net.messages_sent());
    }

    #[test]
    fn delivery_order_is_by_time_then_sequence() {
        let config = EventNetConfig::ideal().with_latency(4);
        let mut net: EventNet<u64> = EventNet::new(3, config, 1);
        net.send(0, 1, 10);
        net.send(2, 1, 20);
        let order = drain(&mut net);
        assert_eq!(order, vec![(4, 10), (4, 20)], "ties break by send order");
    }

    #[test]
    fn explicit_delays_order_deliveries_and_stamp_the_sender() {
        let mut net: EventNet<u64> = EventNet::new(3, EventNetConfig::ideal(), 1);
        net.send_after(0, 1, 10, 50);
        net.send_after(0, 2, 20, 5);
        net.send_after(1, 2, 30, 20);
        net.send_after(2, 0, 40, 0); // below 1 behaves as 1
        let order: Vec<(u64, usize, u64)> = std::iter::from_fn(|| net.pop())
            .map(|(t, e)| (t, e.from, e.payload))
            .collect();
        assert_eq!(
            order,
            vec![(1, 2, 40), (5, 0, 20), (20, 1, 30), (50, 0, 10)]
        );
    }

    #[test]
    fn explicit_delay_keeps_the_liveness_and_counter_rules() {
        let mut net: EventNet<u64> = EventNet::new(3, EventNetConfig::ideal(), 1);
        net.set_alive(1, false);
        assert_eq!(
            net.send_after(1, 0, 1, 1),
            None,
            "dead sender sends nothing"
        );
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(net.send_after(0, 1, 2, 1), Some(DropReason::DeadRecipient));
        // A recipient dying after the send drops the message at delivery.
        assert_eq!(net.send_after(0, 2, 3, 1), None);
        net.set_alive(2, false);
        assert!(net.pop().is_none());
        assert_eq!(
            (net.messages_sent(), net.delivered(), net.dropped()),
            (2, 0, 2)
        );
    }

    #[test]
    fn explicit_delay_draws_loss_but_never_jitter() {
        // On a jittery, lossless link an explicit-delay send reads
        // nothing from the net's stream: the modelled sends around it
        // land exactly where they would have without it.
        let config = EventNetConfig::ideal().with_jitter(30);
        let mut mixed: EventNet<u64> = EventNet::new(2, config, 17);
        let mut plain: EventNet<u64> = EventNet::new(2, config, 17);
        for i in 0..20 {
            mixed.send_after(0, 1, 99, 1000);
            mixed.send(0, 1, i);
            plain.send(0, 1, i);
        }
        let mut modelled = drain(&mut mixed);
        modelled.retain(|&(_, payload)| payload != 99);
        assert_eq!(modelled, drain(&mut plain));
        // Loss and the partition-at-delivery rule apply as in `send`.
        let lossy = EventNetConfig::ideal().with_drop(1.0);
        let mut net: EventNet<u64> = EventNet::new(2, lossy, 3);
        assert_eq!(net.send_after(0, 1, 0, 4), Some(DropReason::Loss));
        let cut = EventNetConfig::ideal().with_partition(2).healing_at(10);
        let mut net: EventNet<u64> = EventNet::new(2, cut, 3);
        assert_eq!(net.send_after(0, 1, 0, 9), Some(DropReason::Partition));
        assert_eq!(net.send_after(0, 1, 0, 10), None, "lands at the heal");
    }

    #[test]
    fn draw_schedule_is_outcome_independent() {
        // The jitter/loss stream positions must not depend on whether a
        // particular message was lost: two configs differing only in
        // the partition (which consumes no draws) schedule surviving
        // messages at identical times.
        let jittery = EventNetConfig::ideal().with_jitter(9);
        let cut = jittery.with_partition(2).healing_at(u64::MAX);
        let mut open: EventNet<u64> = EventNet::new(4, jittery, 17);
        let mut sealed: EventNet<u64> = EventNet::new(4, cut, 17);
        for i in 0..40u64 {
            let (from, to) = ((i % 4) as usize, ((i + 1) % 4) as usize);
            open.send(from, to, i);
            sealed.send(from, to, i);
        }
        let open_times: BTreeMap<u64, u64> =
            drain(&mut open).into_iter().map(|(t, p)| (p, t)).collect();
        for (t, p) in drain(&mut sealed) {
            assert_eq!(open_times[&p], t, "surviving message {p} rescheduled");
        }
    }

    #[test]
    fn ideal_round_delivers_the_last_rounds_sends_in_send_order() {
        let mut net: EventNet<u64> = EventNet::new(3, EventNetConfig::ideal(), 1);
        net.send(0, 2, 1);
        net.send(1, 2, 2);
        net.send(0, 2, 3);
        net.send(2, 1, 4);
        let inboxes = net.round();
        assert_eq!(
            inboxes,
            vec![vec![], vec![(2, 4)], vec![(0, 1), (1, 2), (0, 3)]]
        );
        assert!(net.round().iter().all(Vec::is_empty), "a round drains");
        assert_eq!(net.now(), 2, "now counts rounds, empty ones included");
        assert_eq!((net.messages_sent(), net.delivered()), (4, 4));
    }

    #[test]
    fn broadcast_reaches_every_other_port_stamped_with_the_sender() {
        let mut net: EventNet<&str> = EventNet::new(4, EventNetConfig::ideal(), 1);
        // The payload may claim anything; the envelope names the sender.
        net.broadcast(1, "i am node 0");
        for (port, inbox) in net.round().into_iter().enumerate() {
            let want = if port == 1 {
                vec![]
            } else {
                vec![(1, "i am node 0")]
            };
            assert_eq!(inbox, want, "port {port}");
        }
        assert_eq!(net.messages_sent(), 3);
    }

    #[test]
    fn round_holds_back_messages_not_yet_due() {
        let config = EventNetConfig::ideal().with_latency(2);
        let mut net: EventNet<u64> = EventNet::new(2, config, 1);
        net.send(0, 1, 7);
        assert!(net.round()[1].is_empty(), "due at t = 2");
        assert_eq!(net.round()[1], vec![(0, 7)]);
        // A recipient dying in flight drops the message at its round.
        net.send(0, 1, 8);
        net.set_alive(1, false);
        assert!(net.round().concat().is_empty() && net.round().concat().is_empty());
        assert_eq!(
            (net.delivered(), net.dropped(), net.messages_sent()),
            (1, 1, 2)
        );
    }

    #[test]
    fn saturated_delays_land_at_the_end_of_time_in_send_order() {
        // latency u64::MAX plus any jitter must neither overflow nor
        // wrap around to an early delivery, at any virtual time.
        let config = EventNetConfig::ideal()
            .with_latency(u64::MAX)
            .with_jitter(1);
        let mut net: EventNet<u64> = EventNet::new(2, config, 5);
        net.send_after(0, 1, 99, 3);
        assert_eq!(net.pop().map(|(t, e)| (t, e.payload)), Some((3, 99)));
        for i in 0..16 {
            assert_eq!(net.send(0, 1, i), None);
        }
        net.send_after(0, 1, 16, u64::MAX);
        let want: Vec<(u64, u64)> = (0..=16).map(|i| (u64::MAX, i)).collect();
        assert_eq!(drain(&mut net), want);
    }

    #[test]
    fn partition_predicates() {
        assert!(!Partition::None.severs(0, 1));
        assert!(Partition::Split { groups: 2 }.severs(0, 1));
        assert!(!Partition::Split { groups: 2 }.severs(0, 2));
        assert!(!Partition::Split { groups: 1 }.severs(0, 1));
        let cfg = EventNetConfig::ideal().with_partition(2).healing_at(10);
        assert!(cfg.severs_at(0, 1, 9));
        assert!(!cfg.severs_at(0, 1, 10), "heal time is inclusive");
        assert!(!cfg.severs_at(0, 2, 0));
    }
}
