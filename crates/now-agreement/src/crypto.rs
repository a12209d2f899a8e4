//! Simulated cryptographic primitives.
//!
//! The paper assumes unforgeable node identities everywhere, and Remark 1
//! additionally allows "cryptographic tools" (signatures for broadcast)
//! to push the tolerated fraction to τ < 1/2. In a closed simulation we
//! do not need real cryptography — we need its *guarantees*:
//!
//! * **Signatures**: the [`SigOracle`] records every signature actually
//!   produced. Verification asks the oracle, so a Byzantine node can sign
//!   anything *as itself* but can never exhibit a signature an honest
//!   node did not make. This is the standard ideal-functionality
//!   treatment of signatures.
//! * **Commitments**: [`commit_value`] is hiding/binding "by fiat" — the
//!   preimage contains a 64-bit nonce, and the simulation's adversary is
//!   not given hash-inversion capabilities.
//!
//! Hashes are 64-bit (`std::hash::DefaultHasher` with fixed keys), which
//! is ample for simulation-scale collision resistance.
//!
//! **Determinism note (hash-collection regression):** the oracle's
//! issued-set is a [`BTreeSet`], not a `HashSet`. An earlier version
//! held a `HashSet`, which was the one hash-ordered collection left in
//! non-test code: its membership queries were deterministic, so no seed
//! re-pins were needed when converting, but any future *iteration* over
//! the issued set would have observed `RandomState` order and broken the
//! byte-identical report gates. `crates/clippy.toml` bans `HashSet` and
//! `HashMap`, which keeps it (and everything else) canonical from here
//! on.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// A 64-bit commitment digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Commitment(pub u64);

fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = DefaultHasher::new();
    a.hash(&mut h);
    b.hash(&mut h);
    c.hash(&mut h);
    h.finish()
}

/// Commits to `value` with `nonce`, bound to the committer's port so two
/// parties committing to the same value produce different digests.
pub(crate) fn commit_value(value: u64, nonce: u64, committer: usize) -> Commitment {
    Commitment(hash3(value, nonce, committer as u64))
}

/// Checks that `(value, nonce)` opens `commitment` for `committer`.
pub(crate) fn verify_commitment(
    commitment: Commitment,
    value: u64,
    nonce: u64,
    committer: usize,
) -> bool {
    commit_value(value, nonce, committer) == commitment
}

/// Ideal signature functionality: unforgeability by bookkeeping. Only
/// this crate's protocols sign.
#[derive(Debug, Clone, Default)]
pub struct SigOracle {
    issued: BTreeSet<(usize, u64)>,
}

/// An opaque signature handle. Possessing the handle proves nothing; the
/// oracle's record is authoritative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: usize,
    digest: u64,
}

impl Signature {
    /// The claimed signer (must still be verified against the oracle).
    pub(crate) fn signer(&self) -> usize {
        self.signer
    }
}

impl SigOracle {
    /// Creates an oracle with no signatures issued.
    pub fn new() -> Self {
        SigOracle::default()
    }

    /// Produces `signer`'s signature over `message`. Byzantine nodes may
    /// call this freely **for their own port** — the runner enforces
    /// that a node only ever signs as itself.
    pub(crate) fn sign(&mut self, signer: usize, message: u64) -> Signature {
        self.issued.insert((signer, message));
        Signature {
            signer,
            digest: message,
        }
    }

    /// True iff `signer` really signed `message` at some point.
    pub(crate) fn verify(&self, signer: usize, message: u64, sig: Signature) -> bool {
        sig.signer == signer && sig.digest == message && self.issued.contains(&(signer, message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commitment_roundtrip() {
        let c = commit_value(42, 999, 3);
        assert!(verify_commitment(c, 42, 999, 3));
    }

    #[test]
    fn commitment_binds_value_nonce_and_committer() {
        let c = commit_value(42, 999, 3);
        assert!(!verify_commitment(c, 43, 999, 3), "different value");
        assert!(!verify_commitment(c, 42, 998, 3), "different nonce");
        assert!(!verify_commitment(c, 42, 999, 4), "different committer");
    }

    #[test]
    fn same_value_different_committers_differ() {
        assert_ne!(commit_value(7, 1, 0), commit_value(7, 1, 1));
    }

    #[test]
    fn signatures_verify_only_when_issued() {
        let mut oracle = SigOracle::new();
        let sig = oracle.sign(2, 100);
        assert!(oracle.verify(2, 100, sig));
        // A forged handle with the right fields but never issued:
        let forged = Signature {
            signer: 5,
            digest: 100,
        };
        assert!(!oracle.verify(5, 100, forged));
        // The real sig does not verify for another message or signer.
        assert!(!oracle.verify(2, 101, sig));
        assert!(!oracle.verify(3, 100, sig));
    }
}
