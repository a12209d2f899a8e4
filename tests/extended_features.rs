//! Integration coverage for the extension features: view audits,
//! quorum certificates, the scenario builder, and the oscillation
//! attack.

use now_bft::adversary::Oscillation;
use now_bft::agreement::{certify_by_honest, QuorumCertificate, SigOracle};
use now_bft::core::{NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun, ViolationKind};
use std::collections::BTreeSet;

#[test]
fn view_discipline_survives_structural_churn() {
    // Views must stay coherent through splits AND merges, not just
    // member swaps.
    let params = NowParams::new(1 << 10, 2, 1.5, 0.15, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 140, 0.1, 31);
    // Force splits by growth.
    for _ in 0..80 {
        sys.join(false);
    }
    assert!(sys.op_counts().2 > 0, "need splits for this test");
    let audit = sys.audit_views();
    assert!(audit.coherent(), "{:?}", audit.violations);
    // Force merges by shrinkage.
    for _ in 0..120 {
        let node = sys.node_ids()[0];
        if sys.leave(node).is_err() {
            break;
        }
    }
    assert!(sys.op_counts().3 > 0, "need merges for this test");
    let audit = sys.audit_views();
    assert!(audit.coherent(), "{:?}", audit.violations);
}

#[test]
fn certificates_work_over_live_cluster_membership() {
    // Remark 1's crypto path wired to real cluster state: certify a
    // message by the honest members of a live cluster and verify it
    // against the cluster's member set.
    let params = NowParams::new(1 << 10, 3, 1.5, 0.2, 0.05).unwrap();
    let sys = NowSystem::init_fast(params, 180, 0.2, 32);
    let mut oracle = SigOracle::new();
    for cid in sys.cluster_ids() {
        let cluster = sys.cluster(cid).unwrap();
        let members: BTreeSet<_> = cluster.members().collect();
        let byz: BTreeSet<_> = cluster
            .members()
            .filter(|&m| !sys.is_honest(m).unwrap())
            .collect();
        // τ = 0.2 < 1/2 ⇒ certification must succeed for every cluster.
        let cert = certify_by_honest(cid.raw(), &members, &byz, &mut oracle)
            .unwrap_or_else(|e| panic!("cluster {cid}: {e}"));
        assert!(cert.verify(&members, &oracle));
        // The certificate is bound to this cluster's membership: it must
        // not verify against a different cluster of similar size.
        let other = sys.cluster_ids().into_iter().find(|&c| c != cid).unwrap();
        let other_members: BTreeSet<_> = sys.cluster(other).unwrap().members().collect();
        assert!(!cert.verify(&other_members, &oracle));
    }
}

#[test]
fn stale_certificate_dies_after_exchange() {
    // The quorum rule requires *current* composition knowledge: a
    // certificate assembled before a full exchange must fail against
    // the post-exchange member set (most signers have left).
    let params = NowParams::new(1 << 10, 3, 1.5, 0.2, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 240, 0.2, 33);
    let cid = sys.cluster_ids()[0];
    let mut oracle = SigOracle::new();
    let before: BTreeSet<_> = sys.cluster(cid).unwrap().members().collect();
    let cert = certify_by_honest(7, &before, &BTreeSet::new(), &mut oracle).unwrap();
    sys.exchange_all(cid, false);
    let after: BTreeSet<_> = sys.cluster(cid).unwrap().members().collect();
    assert!(
        !cert.verify(&after, &oracle),
        "stale certificate must not clear the new membership"
    );
    // A fresh certificate over the new membership works.
    let fresh = certify_by_honest(7, &after, &BTreeSet::new(), &mut oracle).unwrap();
    assert!(fresh.verify(&after, &oracle));
    let _ = QuorumCertificate::assemble(7, &[], &after, &oracle).unwrap_err();
}

#[test]
fn scenario_builder_reproduces_manual_runs() {
    let go = || {
        let params = NowParams::new(1 << 10, 3, 1.5, 0.10, 0.05).unwrap();
        let n0 = 10 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 42);
        let mut churn = BatchRandomChurn::balanced(1, 0.10);
        let report = BatchRun::new().run(&mut sys, &mut churn, 50, 43);
        (report, sys)
    };
    let (report, sys) = go();
    assert_eq!(report.steps, 50);
    sys.check_consistency().unwrap();
    // Identical scenario, identical outcome.
    let (report2, sys2) = go();
    assert_eq!(
        report.peak_byz_fraction().to_bits(),
        report2.peak_byz_fraction().to_bits()
    );
    assert_eq!(sys.node_ids(), sys2.node_ids());
}

#[test]
fn oscillation_attack_cannot_break_the_band() {
    let params = NowParams::new(1 << 10, 2, 1.5, 0.1, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 160, 0.1, 34);
    let mut adv = Oscillation::new(0.1);
    let report = BatchRun::new().run(&mut sys, &mut adv, 300, 35);
    assert_eq!(report.audits.len(), 300, "audited after every step");
    let broken = report.count(ViolationKind::SizeBounds);
    let first = report.audits.iter().find(|a| !a.size_bounds_ok);
    assert_eq!(broken, 0, "band broken: {first:?}");
    sys.check_consistency().unwrap();
    let (_, _, splits, merges) = sys.op_counts();
    assert!(
        splits + merges > 0,
        "the whipsaw should cause structural ops"
    );
}
