//! Quorum certificates — the cryptographic quorum rule of Remark 1.
//!
//! The counting quorum rule (more than half of a cluster sends the
//! identical message) requires the receiver to hear from the cluster
//! *directly*. With signatures (Remark 1: "one can tolerate a fraction
//! of Byzantine nodes up to 1/2 − ε, but then we need to use
//! cryptographic tools"), a cluster's endorsement becomes a
//! **transferable certificate**: any party holding `⌊|C|/2⌋+1` valid
//! member signatures over the same message can convince any other party
//! — no direct channel to `C` needed, and relays cannot forge or alter
//! it. This is what lets the overlay broadcast and walk hand-offs be
//! relayed through intermediate clusters at τ < 1/2.

use crate::crypto::{SigOracle, Signature};
use now_net::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A collectable, verifiable, forwardable proof that a cluster endorsed
/// a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCertificate {
    /// The endorsed message (already hashed by the caller if large).
    pub message: u64,
    /// One signature per endorsing member (keyed by the claimed signer;
    /// claims are checked against the oracle at verification).
    pub signatures: BTreeMap<NodeId, Signature>,
}

/// Errors from certificate assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertificateError {
    /// Fewer than `⌊|C|/2⌋+1` valid member signatures were available.
    InsufficientSignatures {
        /// Valid signatures collected.
        have: usize,
        /// Signatures required.
        need: usize,
    },
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::InsufficientSignatures { have, need } => {
                write!(f, "insufficient signatures: have {have}, need {need}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

impl QuorumCertificate {
    /// Assembles a certificate for `message` from `endorsements`
    /// (member → signature), validating each against the oracle and the
    /// member set, and requiring more than half of `members`.
    ///
    /// # Errors
    /// [`CertificateError::InsufficientSignatures`] if the valid
    /// endorsements do not clear the threshold.
    pub fn assemble(
        message: u64,
        endorsements: &[(NodeId, Signature)],
        members: &BTreeSet<NodeId>,
        oracle: &SigOracle,
    ) -> Result<Self, CertificateError> {
        let mut signatures = BTreeMap::new();
        for (member, sig) in endorsements {
            if members.contains(member) && oracle.verify(member.raw() as usize, message, *sig) {
                signatures.entry(*member).or_insert(*sig);
            }
        }
        let need = members.len() / 2 + 1;
        if signatures.len() < need {
            return Err(CertificateError::InsufficientSignatures {
                have: signatures.len(),
                need,
            });
        }
        Ok(QuorumCertificate {
            message,
            signatures,
        })
    }

    /// Verifies the certificate against a member set and the oracle:
    /// more than half of `members` validly signed this exact message.
    /// Transferability is the point — any holder can run this check.
    pub fn verify(&self, members: &BTreeSet<NodeId>, oracle: &SigOracle) -> bool {
        let valid = self
            .signatures
            .iter()
            .filter(|(member, sig)| {
                members.contains(member)
                    && oracle.verify(member.raw() as usize, self.message, **sig)
            })
            .count();
        valid >= members.len() / 2 + 1
    }
}

/// Convenience: have every honest member of a cluster sign `message`
/// and assemble the certificate (Byzantine members abstain — the worst
/// case for assembly).
///
/// # Errors
/// Propagates [`CertificateError::InsufficientSignatures`] when honest
/// members alone cannot clear the bar (i.e. Byzantine ≥ 1/2).
pub fn certify_by_honest(
    message: u64,
    members: &BTreeSet<NodeId>,
    byz: &BTreeSet<NodeId>,
    oracle: &mut SigOracle,
) -> Result<QuorumCertificate, CertificateError> {
    let endorsements: Vec<(NodeId, Signature)> = members
        .iter()
        .filter(|m| !byz.contains(m))
        .map(|&m| (m, oracle.sign(m.raw() as usize, message)))
        .collect();
    QuorumCertificate::assemble(message, &endorsements, members, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u64) -> BTreeSet<NodeId> {
        (0..n).map(NodeId::from_raw).collect()
    }

    #[test]
    fn honest_majority_certifies_and_transfers() {
        let m = members(7);
        let byz: BTreeSet<NodeId> = [5u64, 6].into_iter().map(NodeId::from_raw).collect();
        let mut oracle = SigOracle::new();
        let cert = certify_by_honest(42, &m, &byz, &mut oracle).unwrap();
        // Transferability: an unrelated verifier with the same oracle
        // view accepts it.
        assert!(cert.verify(&m, &oracle));
    }

    #[test]
    fn byzantine_half_blocks_assembly() {
        let m = members(6);
        let byz: BTreeSet<NodeId> = (0..3).map(NodeId::from_raw).collect();
        let mut oracle = SigOracle::new();
        // 3 honest of 6 — exactly half, below the ⌊6/2⌋+1 = 4 bar.
        let err = certify_by_honest(42, &m, &byz, &mut oracle).unwrap_err();
        assert_eq!(
            err,
            CertificateError::InsufficientSignatures { have: 3, need: 4 }
        );
    }

    #[test]
    fn tau_below_half_always_certifies() {
        // Remark 1's regime: any Byzantine fraction < 1/2 leaves enough
        // honest signers.
        for n in [5u64, 9, 15, 21] {
            let m = members(n);
            let byz: BTreeSet<NodeId> = (0..(n - 1) / 2).map(NodeId::from_raw).collect();
            let mut oracle = SigOracle::new();
            let cert = certify_by_honest(7, &m, &byz, &mut oracle)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert!(cert.verify(&m, &oracle));
        }
    }

    #[test]
    fn forged_signatures_do_not_count() {
        let m = members(5);
        let mut oracle = SigOracle::new();
        // Two real signatures…
        let mut endorsements: Vec<(NodeId, Signature)> = (0..2)
            .map(|i| {
                let id = NodeId::from_raw(i);
                (id, oracle.sign(i as usize, 9))
            })
            .collect();
        // …plus forged handles claiming other members signed (they
        // never did — a Byzantine relay fabricating weight).
        let real = endorsements[0].1;
        endorsements.push((NodeId::from_raw(3), real));
        endorsements.push((NodeId::from_raw(4), real));
        let err = QuorumCertificate::assemble(9, &endorsements, &m, &oracle).unwrap_err();
        assert!(matches!(
            err,
            CertificateError::InsufficientSignatures { have: 2, need: 3 }
        ));
    }

    #[test]
    fn certificate_bound_to_exact_message() {
        let m = members(5);
        let mut oracle = SigOracle::new();
        let cert = certify_by_honest(100, &m, &BTreeSet::new(), &mut oracle).unwrap();
        // Tamper with the claimed message: signatures no longer verify.
        let mut tampered = cert.clone();
        tampered.message = 101;
        assert!(!tampered.verify(&m, &oracle));
        assert!(cert.verify(&m, &oracle));
    }

    #[test]
    fn non_member_signatures_ignored() {
        let m = members(3);
        let mut oracle = SigOracle::new();
        let outsiders: Vec<(NodeId, Signature)> = (10..20u64)
            .map(|i| {
                let id = NodeId::from_raw(i);
                (id, oracle.sign(i as usize, 5))
            })
            .collect();
        let err = QuorumCertificate::assemble(5, &outsiders, &m, &oracle).unwrap_err();
        assert!(matches!(
            err,
            CertificateError::InsufficientSignatures { have: 0, need: 2 }
        ));
    }

    #[test]
    fn verification_against_wrong_membership_fails() {
        let m = members(5);
        let mut oracle = SigOracle::new();
        let cert = certify_by_honest(1, &m, &BTreeSet::new(), &mut oracle).unwrap();
        // Against a larger (post-exchange) member set, the old
        // certificate's weight may no longer clear the bar.
        let bigger = members(11);
        assert!(!cert.verify(&bigger, &oracle));
    }
}
