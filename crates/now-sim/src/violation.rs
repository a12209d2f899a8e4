//! Violation kinds: what an audit of the step loop
//! ([`crate::BatchRun`]) can find wrong. The audits themselves are the
//! record ([`crate::BatchRunReport::audits`]); a kind is a predicate
//! over one of them.

use now_core::SystemAudit;

/// What went wrong at a time step (Theorem 3 says: nothing, whp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Some cluster lost the strict > 2/3-honest invariant (the binding
    /// target in `SecurityMode::Plain`).
    NotTwoThirdsHonest,
    /// Some cluster lost the honest-strict-majority invariant (the
    /// binding target in `SecurityMode::Authenticated` — Remark 1).
    NotMajorityHonest,
    /// Some cluster reached the mode's `randNum`-compromise threshold
    /// (1/3 Byzantine in Plain, 1/2 in Authenticated).
    RandNumCompromised,
    /// Some cluster became forgeable (> 1/2 Byzantine).
    Forgeable,
    /// Some cluster size left the `[k·logN/l, l·k·logN]` band.
    SizeBounds,
}

impl ViolationKind {
    /// Every kind, in the order an audited step records them.
    pub const ALL: [ViolationKind; 5] = [
        ViolationKind::NotTwoThirdsHonest,
        ViolationKind::NotMajorityHonest,
        ViolationKind::RandNumCompromised,
        ViolationKind::Forgeable,
        ViolationKind::SizeBounds,
    ];

    /// Stable snake_case tag of the kind, used as the flight recorder's
    /// `violation` event payload and the trace-dump `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::NotTwoThirdsHonest => "not_two_thirds_honest",
            ViolationKind::NotMajorityHonest => "not_majority_honest",
            ViolationKind::RandNumCompromised => "rand_num_compromised",
            ViolationKind::Forgeable => "forgeable",
            ViolationKind::SizeBounds => "size_bounds",
        }
    }

    /// Whether this violation kind is binding for the given substrate
    /// mode. `NotTwoThirdsHonest` is informational in Authenticated
    /// deployments (τ may legitimately exceed 1/3 there);
    /// `NotMajorityHonest` is implied by `NotTwoThirdsHonest` in Plain
    /// deployments and is reported redundantly.
    pub fn binds_in(self, mode: now_core::SecurityMode) -> bool {
        match (self, mode) {
            (ViolationKind::NotTwoThirdsHonest, now_core::SecurityMode::Plain) => true,
            (ViolationKind::NotTwoThirdsHonest, now_core::SecurityMode::Authenticated) => false,
            (ViolationKind::NotMajorityHonest, _) => true,
            (ViolationKind::RandNumCompromised, _) => true,
            (ViolationKind::Forgeable, _) => true,
            (ViolationKind::SizeBounds, _) => true,
        }
    }

    /// Whether `audit` observed this kind of violation.
    pub fn fails(self, audit: &SystemAudit) -> bool {
        match self {
            ViolationKind::NotTwoThirdsHonest => audit.clusters_not_two_thirds_honest > 0,
            ViolationKind::NotMajorityHonest => audit.clusters_not_majority_honest > 0,
            ViolationKind::RandNumCompromised => audit.clusters_rand_num_compromised > 0,
            ViolationKind::Forgeable => audit.clusters_forgeable > 0,
            ViolationKind::SizeBounds => !audit.size_bounds_ok,
        }
    }
}
