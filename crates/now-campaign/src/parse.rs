//! The line-oriented campaign text format.
//!
//! Hand-rolled (the workspace vendors no serde): one directive per
//! line, `#` starts a comment, indentation is free-form. A file is a
//! *header* (campaign-level directives) followed by one or more
//! `phase` blocks:
//!
//! ```text
//! # warm up, then flood the largest cluster, then quiesce
//! campaign warmup-flood
//! capacity 1024
//! tau 0.10
//! initial-population 150
//! seed 42
//! width 6
//!
//! phase warmup
//!   style balanced
//!   steps 200
//!
//! phase flood
//!   style join-leave
//!   target largest
//!   width 8
//!   tau 0.15
//!   steps 300
//!
//! phase quiesce
//!   style quiet
//!   steps 50
//! ```
//!
//! Header directives: `campaign <name>` (required, first), `capacity`,
//! `k`, `l`, `tau`, `epsilon`, `initial-population`, `seed`, `width`,
//! `shuffle on|off`, `trace <capacity>` (enable the flight recorder
//! with a ring buffer of that many events), `metrics on|off` (enable
//! the metrics registry). Phase directives: `style quiet | balanced |
//! sawtooth <low> <high> | join-leave | forced-leave | split-forcing |
//! merge-forcing | burst`,
//! `target first|largest|smallest`, `width`, `tau`,
//! `exec canonical|event`, and exactly one trigger — `steps
//! <n>`, `until-pop-above <target> [cap <n>]`, `until-pop-below
//! <target> [cap <n>]`, or `until-violation [cap <n>]` (default cap
//! 10 000).
//!
//! Phases on `exec event` additionally take per-link network knobs:
//! `latency <ticks>` (base delay, ≥ 1), `jitter <ticks>` (uniform
//! extra delay bound), `drop <p>` (loss probability in `[0, 1]`), and
//! `partition <groups> [heal <time>]` (split the clusters into
//! `groups` components, optionally healing at the given virtual time).
//! Using any of them without `exec event` is an error — the canonical
//! engine has no network to apply them to:
//!
//! ```text
//! phase storm
//!   style balanced
//!   exec event
//!   latency 2
//!   jitter 5
//!   drop 0.1
//!   partition 2 heal 40
//!   steps 100
//! ```
//!
//! Every malformed input returns a typed
//! [`NowError::CampaignParse`] with the 1-based line number — the
//! parser never panics.

use crate::model::{Campaign, Phase, PhaseExec, PhaseStyle, Trigger};
use now_adversary::ClusterPick;
use now_core::{EventNetConfig, NowError};

/// Default step cap for `until-*` triggers without an explicit `cap`.
pub(crate) const DEFAULT_TRIGGER_CAP: u64 = 10_000;

fn err(line: usize, reason: impl Into<String>) -> NowError {
    NowError::CampaignParse {
        line,
        reason: reason.into(),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, what: &str, tok: &str) -> Result<T, NowError> {
    tok.parse()
        .map_err(|_| err(line, format!("{what}: cannot parse `{tok}`")))
}

/// A phase block under construction: `style` and the trigger are
/// mandatory, so they stay optional until the block closes.
struct PhaseDraft {
    line: usize,
    name: String,
    style: Option<PhaseStyle>,
    target: ClusterPick,
    width: Option<usize>,
    tau: Option<f64>,
    /// The engine; an `Event` engine's network is `net`'s, set on
    /// `finish`.
    exec: PhaseExec,
    net: EventNetConfig,
    /// Line of the first network knob, if any — net knobs are only
    /// legal on `exec event`, and the error should point at the knob.
    net_line: Option<usize>,
    trigger: Option<Trigger>,
}

impl PhaseDraft {
    fn new(line: usize, name: String) -> Self {
        PhaseDraft {
            line,
            name,
            style: None,
            target: ClusterPick::Largest,
            width: None,
            tau: None,
            exec: PhaseExec::Canonical,
            net: EventNetConfig::ideal(),
            net_line: None,
            trigger: None,
        }
    }

    fn finish(self) -> Result<Phase, NowError> {
        let style = self
            .style
            .ok_or_else(|| err(self.line, format!("phase `{}` has no `style`", self.name)))?;
        let trigger = self.trigger.ok_or_else(|| {
            err(
                self.line,
                format!(
                    "phase `{}` has no trigger (`steps`, `until-pop-above`, \
                     `until-pop-below`, or `until-violation`)",
                    self.name
                ),
            )
        })?;
        let exec = match (self.exec, self.net_line) {
            (PhaseExec::Event(_), _) => PhaseExec::Event(self.net),
            (_, Some(line)) => {
                return Err(err(
                    line,
                    format!(
                        "phase `{}`: network knobs (latency/jitter/drop/partition) \
                         require `exec event`",
                        self.name
                    ),
                ))
            }
            (exec, None) => exec,
        };
        Ok(Phase {
            name: self.name,
            style,
            target: self.target,
            width: self.width,
            tau: self.tau,
            exec,
            trigger,
        })
    }

    fn set_trigger(&mut self, line: usize, trigger: Trigger) -> Result<(), NowError> {
        if self.trigger.is_some() {
            return Err(err(
                line,
                format!("phase `{}` already has a trigger", self.name),
            ));
        }
        self.trigger = Some(trigger);
        Ok(())
    }
}

/// Parses an optional `cap <n>` tail for `until-*` triggers.
fn parse_cap(line: usize, rest: &[&str]) -> Result<u64, NowError> {
    match rest {
        [] => Ok(DEFAULT_TRIGGER_CAP),
        ["cap", n] => parse_num(line, "cap", n),
        _ => Err(err(
            line,
            format!("expected `cap <n>`, got `{}`", rest.join(" ")),
        )),
    }
}

impl Campaign {
    /// Parses the campaign text format (module docs).
    ///
    /// # Errors
    /// [`NowError::CampaignParse`] with the 1-based line number for any
    /// malformed directive; the returned campaign additionally passes
    /// [`Campaign::check`].
    pub fn parse(text: &str) -> Result<Campaign, NowError> {
        let mut campaign: Option<Campaign> = None;
        let mut draft: Option<PhaseDraft> = None;
        let mut header_seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut last_line = 0;

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            last_line = line;
            let content = raw.split('#').next().unwrap_or("");
            let tokens: Vec<&str> = content.split_whitespace().collect();
            let Some((&head, args)) = tokens.split_first() else {
                continue; // blank or comment-only line
            };

            // `campaign <name>` opens the header.
            if head == "campaign" {
                if campaign.is_some() {
                    return Err(err(line, "duplicate `campaign` directive"));
                }
                let [name] = args else {
                    return Err(err(line, "`campaign` takes exactly one name"));
                };
                campaign = Some(Campaign::new(*name, 1 << 10));
                continue;
            }
            let Some(c) = campaign.as_mut() else {
                return Err(err(
                    line,
                    format!("`{head}` before the `campaign <name>` header line"),
                ));
            };

            // `phase <name>` closes the previous block and opens a new
            // one.
            if head == "phase" {
                if let Some(done) = draft.take() {
                    c.phases.push(done.finish()?);
                }
                let [name] = args else {
                    return Err(err(line, "`phase` takes exactly one name"));
                };
                draft = Some(PhaseDraft::new(line, name.to_string()));
                continue;
            }

            match draft.as_mut() {
                // ---- header directives ----
                None => {
                    // Header keys may appear at most once: a duplicate
                    // is almost always a copy-paste mistake, and
                    // silently letting the last one win would run a
                    // different campaign than the author reviewed.
                    if !header_seen.insert(head.to_string()) {
                        return Err(err(line, format!("duplicate header directive `{head}`")));
                    }
                    match (head, args) {
                        ("capacity", [n]) => c.capacity = parse_num(line, "capacity", n)?,
                        ("k", [n]) => c.k = parse_num(line, "k", n)?,
                        ("l", [n]) => c.l = parse_num(line, "l", n)?,
                        ("tau", [n]) => c.tau = parse_num(line, "tau", n)?,
                        ("epsilon", [n]) => c.epsilon = parse_num(line, "epsilon", n)?,
                        ("initial-population", [n]) => {
                            c.initial_population = parse_num(line, "initial-population", n)?
                        }
                        ("seed", [n]) => c.seed = parse_num(line, "seed", n)?,
                        ("width", [n]) => {
                            let w: usize = parse_num(line, "width", n)?;
                            if w == 0 {
                                return Err(err(line, "campaign width must be positive"));
                            }
                            c.width = w;
                        }
                        ("shuffle", ["on"]) => c.shuffle = true,
                        ("shuffle", ["off"]) => c.shuffle = false,
                        ("shuffle", other) => {
                            return Err(err(
                                line,
                                format!("`shuffle` takes on|off, got `{}`", other.join(" ")),
                            ))
                        }
                        ("trace", [n]) => {
                            let cap: usize = parse_num(line, "trace", n)?;
                            if cap == 0 {
                                return Err(err(line, "trace capacity must be positive"));
                            }
                            c.trace = Some(cap);
                        }
                        ("metrics", ["on"]) => c.metrics = true,
                        ("metrics", ["off"]) => c.metrics = false,
                        ("metrics", other) => {
                            return Err(err(
                                line,
                                format!("`metrics` takes on|off, got `{}`", other.join(" ")),
                            ))
                        }
                        ("style" | "target" | "exec" | "steps", _) => {
                            return Err(err(
                                line,
                                format!(
                                    "`{head}` is a phase directive; start a `phase <name>` first"
                                ),
                            ))
                        }
                        (_, [_]) => return Err(err(line, format!("unknown directive `{head}`"))),
                        (_, _) => {
                            return Err(err(
                                line,
                                format!("malformed directive `{}`", tokens.join(" ")),
                            ))
                        }
                    }
                }
                // ---- phase directives ----
                Some(p) => match (head, args) {
                    ("style", _) if p.style.is_some() => {
                        return Err(err(
                            line,
                            format!("phase `{}` already has a `style`", p.name),
                        ))
                    }
                    ("style", ["quiet"]) => p.style = Some(PhaseStyle::Quiet),
                    ("style", ["balanced"]) => p.style = Some(PhaseStyle::Balanced),
                    ("style", ["sawtooth", low, high]) => {
                        let low = parse_num(line, "sawtooth low", low)?;
                        let high = parse_num(line, "sawtooth high", high)?;
                        if low >= high {
                            return Err(err(
                                line,
                                format!("sawtooth needs low < high, got [{low}, {high}]"),
                            ));
                        }
                        p.style = Some(PhaseStyle::Sawtooth { low, high });
                    }
                    ("style", ["join-leave"]) => p.style = Some(PhaseStyle::JoinLeave),
                    ("style", ["forced-leave"]) => p.style = Some(PhaseStyle::ForcedLeave),
                    ("style", ["split-forcing"]) => p.style = Some(PhaseStyle::SplitForcing),
                    ("style", ["merge-forcing"]) => p.style = Some(PhaseStyle::MergeForcing),
                    ("style", ["burst"]) => p.style = Some(PhaseStyle::BurstChurn),
                    ("style", other) => {
                        return Err(err(line, format!("unknown style `{}`", other.join(" "))))
                    }
                    ("target", ["first"]) => p.target = ClusterPick::First,
                    ("target", ["largest"]) => p.target = ClusterPick::Largest,
                    ("target", ["smallest"]) => p.target = ClusterPick::Smallest,
                    ("target", other) => {
                        return Err(err(
                            line,
                            format!(
                                "`target` takes first|largest|smallest, got `{}`",
                                other.join(" ")
                            ),
                        ))
                    }
                    ("width", [n]) => {
                        let w: usize = parse_num(line, "width", n)?;
                        if w == 0 {
                            return Err(err(line, "phase width must be positive"));
                        }
                        p.width = Some(w);
                    }
                    ("tau", [n]) => {
                        let t: f64 = parse_num(line, "tau", n)?;
                        if !(0.0..1.0).contains(&t) {
                            return Err(err(line, format!("phase tau {t} outside [0, 1)")));
                        }
                        p.tau = Some(t);
                    }
                    ("exec", ["canonical"]) => p.exec = PhaseExec::Canonical,
                    ("exec", ["event"]) => p.exec = PhaseExec::Event(EventNetConfig::ideal()),
                    ("exec", [old @ ("serial" | "pooled")]) => {
                        return Err(err(
                            line,
                            format!(
                                "`exec {old}` is retired: `serial` and `pooled` are one \
                                 engine now, `exec canonical`, whose report carries \
                                 both prices (`rounds_serial`, `rounds_parallel`)"
                            ),
                        ))
                    }
                    ("exec", other) => {
                        return Err(err(
                            line,
                            format!("`exec` takes canonical|event, got `{}`", other.join(" ")),
                        ))
                    }
                    ("latency", [n]) => {
                        let latency: u64 = parse_num(line, "latency", n)?;
                        if latency == 0 {
                            return Err(err(line, "`latency` must be at least 1 tick"));
                        }
                        p.net.latency = latency;
                        p.net_line.get_or_insert(line);
                    }
                    ("jitter", [n]) => {
                        p.net.jitter = parse_num(line, "jitter", n)?;
                        p.net_line.get_or_insert(line);
                    }
                    ("drop", [n]) => {
                        let drop: f64 = parse_num(line, "drop", n)?;
                        if !(0.0..=1.0).contains(&drop) {
                            return Err(err(line, format!("drop {drop} outside [0, 1]")));
                        }
                        p.net.drop = drop;
                        p.net_line.get_or_insert(line);
                    }
                    ("partition", [groups, rest @ ..]) => {
                        let groups: usize = parse_num(line, "partition", groups)?;
                        if groups < 2 {
                            return Err(err(line, "`partition` needs at least 2 groups"));
                        }
                        p.net = p.net.with_partition(groups);
                        match rest {
                            [] => {}
                            ["heal", t] => p.net = p.net.healing_at(parse_num(line, "heal", t)?),
                            _ => {
                                return Err(err(
                                    line,
                                    format!("expected `heal <time>`, got `{}`", rest.join(" ")),
                                ))
                            }
                        }
                        p.net_line.get_or_insert(line);
                    }
                    ("partition", []) => {
                        return Err(err(
                            line,
                            "`partition` takes a group count: `partition <groups> [heal <time>]`",
                        ))
                    }
                    ("latency" | "jitter" | "drop", _) => {
                        return Err(err(line, format!("`{head}` takes exactly one number")))
                    }
                    ("steps", [n]) => {
                        let steps: u64 = parse_num(line, "steps", n)?;
                        if steps == 0 {
                            return Err(err(line, "`steps` must be positive"));
                        }
                        p.set_trigger(line, Trigger::Steps(steps))?;
                    }
                    ("until-pop-above", [target, rest @ ..]) => {
                        let target = parse_num(line, "until-pop-above", target)?;
                        let cap = parse_cap(line, rest)?;
                        p.set_trigger(line, Trigger::PopulationAbove { target, cap })?;
                    }
                    ("until-pop-below", [target, rest @ ..]) => {
                        let target = parse_num(line, "until-pop-below", target)?;
                        let cap = parse_cap(line, rest)?;
                        p.set_trigger(line, Trigger::PopulationBelow { target, cap })?;
                    }
                    ("until-pop-above" | "until-pop-below", []) => {
                        return Err(err(
                            line,
                            format!("`{head}` takes a population target: `{head} <n> [cap <n>]`"),
                        ))
                    }
                    ("until-violation", rest) => {
                        let cap = parse_cap(line, rest)?;
                        p.set_trigger(line, Trigger::FirstViolation { cap })?;
                    }
                    ("capacity" | "seed" | "initial-population" | "shuffle", _) => {
                        return Err(err(
                            line,
                            format!("`{head}` is a header directive; it cannot appear in a phase"),
                        ))
                    }
                    (_, _) => return Err(err(line, format!("unknown phase directive `{head}`"))),
                },
            }
        }

        let mut campaign =
            campaign.ok_or_else(|| err(last_line.max(1), "missing `campaign <name>` header"))?;
        if let Some(done) = draft.take() {
            campaign.phases.push(done.finish()?);
        }
        if campaign.phases.is_empty() {
            return Err(err(last_line.max(1), "campaign has no phases"));
        }
        // Shape defects the line scan cannot see (e.g. a zero campaign
        // width) surface as CampaignReport errors from check().
        campaign.check()?;
        Ok(campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> (usize, String) {
        match Campaign::parse(text) {
            Err(NowError::CampaignParse { line, reason }) => (line, reason),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    const GOOD: &str = "
# a full campaign
campaign demo
capacity 2048
k 3
l 2.0
tau 0.12
epsilon 0.05
initial-population 200
seed 9
width 5
shuffle on
trace 256
metrics on

phase warmup
  style balanced
  steps 40

phase flood      # inline comment
  style join-leave
  target largest
  width 8
  tau 0.15
  exec canonical
  steps 30

phase drain
  style forced-leave
  target smallest
  until-pop-below 150 cap 80

phase probe
  style split-forcing
  until-violation cap 25

phase regrow
  style sawtooth 150 260
  until-pop-above 250

phase quiesce
  style quiet
  steps 5

phase storm
  style balanced
  exec event
  latency 2
  jitter 5
  drop 0.1
  partition 2 heal 40
  steps 30

phase squeeze
  style merge-forcing
  target smallest
  steps 12

phase pulse
  style burst
  width 4
  steps 16
";

    #[test]
    fn full_campaign_round_trips() {
        let c = Campaign::parse(GOOD).unwrap();
        assert_eq!(c.name, "demo");
        assert_eq!(c.capacity, 2048);
        assert_eq!(c.k, 3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.width, 5);
        assert_eq!(c.trace, Some(256));
        assert!(c.metrics);
        assert_eq!(c.phases.len(), 9);
        assert_eq!(c.phases[0].style, PhaseStyle::Balanced);
        assert_eq!(c.phases[1].width, Some(8));
        assert_eq!(c.phases[1].tau, Some(0.15));
        assert_eq!(c.phases[1].exec, PhaseExec::Canonical);
        assert_eq!(c.phases[1].target, ClusterPick::Largest);
        assert_eq!(
            c.phases[2].trigger,
            Trigger::PopulationBelow {
                target: 150,
                cap: 80
            }
        );
        assert_eq!(c.phases[3].trigger, Trigger::FirstViolation { cap: 25 });
        assert_eq!(
            c.phases[4].trigger,
            Trigger::PopulationAbove {
                target: 250,
                cap: DEFAULT_TRIGGER_CAP
            }
        );
        assert_eq!(c.phases[5].style, PhaseStyle::Quiet);
        let storm = &c.phases[6];
        assert_eq!(
            storm.exec,
            PhaseExec::Event(
                EventNetConfig::ideal()
                    .with_latency(2)
                    .with_jitter(5)
                    .with_drop(0.1)
                    .with_partition(2)
                    .healing_at(40)
            )
        );
        assert_eq!(c.phases[7].style, PhaseStyle::MergeForcing);
        assert_eq!(c.phases[7].target, ClusterPick::Smallest);
        assert_eq!(c.phases[8].style, PhaseStyle::BurstChurn);
        assert_eq!(c.phases[8].width, Some(4));
    }

    #[test]
    fn missing_header_is_typed() {
        let (line, reason) = parse_err("capacity 1024\n");
        assert_eq!(line, 1);
        assert!(reason.contains("before the `campaign"), "{reason}");
    }

    #[test]
    fn unknown_directive_is_typed() {
        let (line, reason) = parse_err("campaign x\nfrobnicate 3\n");
        assert_eq!(line, 2);
        assert!(reason.contains("unknown directive"), "{reason}");
    }

    #[test]
    fn bad_number_is_typed() {
        let (line, reason) = parse_err("campaign x\ncapacity twelve\n");
        assert_eq!(line, 2);
        assert!(reason.contains("cannot parse `twelve`"), "{reason}");
    }

    #[test]
    fn phase_without_style_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nsteps 5\n");
        assert!(reason.contains("no `style`"), "{reason}");
    }

    #[test]
    fn phase_without_trigger_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\n");
        assert!(reason.contains("no trigger"), "{reason}");
    }

    #[test]
    fn duplicate_trigger_is_typed() {
        let (line, reason) =
            parse_err("campaign x\nphase a\nstyle quiet\nsteps 5\nuntil-violation\n");
        assert_eq!(line, 5);
        assert!(reason.contains("already has a trigger"), "{reason}");
    }

    #[test]
    fn unknown_style_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle mayhem\nsteps 5\n");
        assert!(reason.contains("unknown style `mayhem`"), "{reason}");
    }

    #[test]
    fn phase_directive_in_header_is_typed() {
        let (_, reason) = parse_err("campaign x\nstyle quiet\n");
        assert!(reason.contains("phase directive"), "{reason}");
    }

    #[test]
    fn header_directive_in_phase_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nseed 4\nsteps 2\n");
        assert!(reason.contains("header directive"), "{reason}");
    }

    #[test]
    fn zero_width_and_zero_steps_are_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nwidth 0\nsteps 2\n");
        assert!(reason.contains("width must be positive"), "{reason}");
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nsteps 0\n");
        assert!(reason.contains("`steps` must be positive"), "{reason}");
    }

    #[test]
    fn observability_directives_are_validated() {
        let (line, reason) = parse_err("campaign x\ntrace 0\nphase a\nstyle quiet\nsteps 1\n");
        assert_eq!(line, 2);
        assert!(
            reason.contains("trace capacity must be positive"),
            "{reason}"
        );
        let (_, reason) = parse_err("campaign x\nmetrics yes\nphase a\nstyle quiet\nsteps 1\n");
        assert!(reason.contains("`metrics` takes on|off"), "{reason}");
        // Defaults: both sinks off.
        let c = Campaign::parse("campaign x\nphase a\nstyle quiet\nsteps 1\n").unwrap();
        assert_eq!(c.trace, None);
        assert!(!c.metrics);
    }

    #[test]
    fn bad_sawtooth_band_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle sawtooth 90 60\nsteps 2\n");
        assert!(reason.contains("low < high"), "{reason}");
    }

    #[test]
    fn empty_campaign_is_typed() {
        let (_, reason) = parse_err("campaign x\n");
        assert!(reason.contains("no phases"), "{reason}");
    }

    #[test]
    fn duplicate_campaign_line_is_typed() {
        let (line, reason) = parse_err("campaign x\ncampaign y\n");
        assert_eq!(line, 2);
        assert!(reason.contains("duplicate"), "{reason}");
    }

    #[test]
    fn duplicate_header_directive_is_typed() {
        let (line, reason) = parse_err("campaign x\ntau 0.1\ntau 0.2\n");
        assert_eq!(line, 3);
        assert!(
            reason.contains("duplicate header directive `tau`"),
            "{reason}"
        );
    }

    #[test]
    fn duplicate_style_is_typed() {
        let (line, reason) =
            parse_err("campaign x\nphase a\nstyle balanced\nstyle join-leave\nsteps 2\n");
        assert_eq!(line, 4);
        assert!(reason.contains("already has a `style`"), "{reason}");
    }

    #[test]
    fn zero_campaign_width_is_typed_with_line() {
        let (line, reason) = parse_err("campaign x\nwidth 0\nphase a\nstyle quiet\nsteps 1\n");
        assert_eq!(line, 2);
        assert!(
            reason.contains("campaign width must be positive"),
            "{reason}"
        );
    }

    #[test]
    fn bare_population_trigger_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nuntil-pop-above\n");
        assert!(reason.contains("takes a population target"), "{reason}");
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nuntil-pop-below\n");
        assert!(reason.contains("takes a population target"), "{reason}");
    }

    #[test]
    fn bad_cap_tail_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\nuntil-pop-above 10 max 5\n");
        assert!(reason.contains("expected `cap <n>`"), "{reason}");
    }

    #[test]
    fn bad_phase_tau_is_typed() {
        let (_, reason) = parse_err("campaign x\nphase a\nstyle quiet\ntau 1.2\nsteps 2\n");
        assert!(reason.contains("outside [0, 1)"), "{reason}");
    }

    #[test]
    fn net_knob_without_event_exec_is_typed_at_the_knob() {
        let (line, reason) = parse_err("campaign x\nphase a\nstyle quiet\nlatency 3\nsteps 2\n");
        assert_eq!(line, 4, "error points at the first net knob");
        assert!(reason.contains("require `exec event`"), "{reason}");
        let (_, reason) =
            parse_err("campaign x\nphase a\nstyle quiet\nexec canonical\ndrop 0.5\nsteps 2\n");
        assert!(reason.contains("require `exec event`"), "{reason}");
    }

    #[test]
    fn retired_exec_scheduled_is_typed() {
        let (line, reason) =
            parse_err("campaign x\nphase a\nstyle quiet\nexec scheduled\nsteps 2\n");
        assert_eq!(line, 4);
        assert!(reason.contains("takes canonical|event"), "{reason}");
    }

    #[test]
    fn retired_exec_threaded_is_typed() {
        let (line, reason) =
            parse_err("campaign x\nphase a\nstyle quiet\nexec threaded\nsteps 2\n");
        assert_eq!(line, 4);
        assert!(reason.contains("takes canonical|event"), "{reason}");
    }

    #[test]
    fn retired_exec_serial_and_pooled_are_typed() {
        for old in ["serial", "pooled"] {
            let text = format!("campaign x\nphase a\nstyle quiet\nexec {old}\nsteps 2\n");
            let (line, reason) = parse_err(&text);
            assert_eq!(line, 4);
            assert!(
                reason.contains(&format!("`exec {old}` is retired")),
                "{reason}"
            );
            assert!(reason.contains("`exec canonical`"), "{reason}");
        }
    }

    #[test]
    fn bad_net_knob_values_are_typed() {
        let head = "campaign x\nphase a\nstyle quiet\nexec event\n";
        let (_, reason) = parse_err(&format!("{head}latency 0\nsteps 2\n"));
        assert!(reason.contains("at least 1 tick"), "{reason}");
        let (_, reason) = parse_err(&format!("{head}drop 1.5\nsteps 2\n"));
        assert!(reason.contains("outside [0, 1]"), "{reason}");
        let (_, reason) = parse_err(&format!("{head}partition 1\nsteps 2\n"));
        assert!(reason.contains("at least 2 groups"), "{reason}");
        let (_, reason) = parse_err(&format!("{head}partition\nsteps 2\n"));
        assert!(reason.contains("takes a group count"), "{reason}");
        let (_, reason) = parse_err(&format!("{head}partition 2 cure 9\nsteps 2\n"));
        assert!(reason.contains("expected `heal <time>`"), "{reason}");
        let (_, reason) = parse_err(&format!("{head}jitter 3 4\nsteps 2\n"));
        assert!(reason.contains("exactly one number"), "{reason}");
    }

    #[test]
    fn event_exec_without_knobs_is_the_ideal_network() {
        let c =
            Campaign::parse("campaign x\nphase a\nstyle balanced\nexec event\nsteps 3\n").unwrap();
        assert_eq!(c.phases[0].exec, PhaseExec::Event(EventNetConfig::ideal()));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let c = Campaign::parse(
            "# leading comment\n\ncampaign c # trailing\n\nphase a\nstyle quiet\nsteps 1\n",
        )
        .unwrap();
        assert_eq!(c.phases.len(), 1);
    }
}
