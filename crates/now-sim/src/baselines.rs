//! Baselines the paper argues against.
//!
//! * **No-shuffle static clustering** — clusters without the `exchange`
//!   countermeasure. §3.3: "the adversary chooses a specific cluster and
//!   keeps adding and removing the Byzantine nodes until they fall into
//!   that cluster" — experiment X-JLA shows this baseline losing a
//!   cluster while NOW holds.
//! * **Single-cluster / full-mesh costs** — §1 motivates clustering by
//!   the cost of treating all `n` processes as one reliable unit; §6
//!   quantifies: broadcast `O(n²)` naive vs `Õ(n)` clustered, sampling
//!   `polylog(n)` per draw.

use now_core::NowParams;

/// Parameters identical to `params` but with `exchange` shuffling
/// disabled — the static-clustering baseline of §3.3.
pub fn no_shuffle_params(params: NowParams) -> NowParams {
    params.with_shuffle(false)
}

/// Message cost of a naive full-mesh broadcast among `n` nodes: every
/// node forwards to every other (`n(n−1)` — the §6 `O(n²)` comparison
/// point).
pub fn naive_broadcast_cost(n: u64) -> u64 {
    n.saturating_mul(n.saturating_sub(1))
}

/// Message cost of one round of full-network Byzantine agreement run as
/// a single cluster (all-to-all): `n(n−1)` per round × `rounds` — the
/// §1 "single highly available process" cost the clustering removes.
pub fn single_cluster_round_cost(n: u64, rounds: u64) -> u64 {
    naive_broadcast_cost(n).saturating_mul(rounds)
}

/// Message cost of naive uniform sampling by flooding a query and
/// collecting all replies (`2n` per sample) — the §6 comparison for the
/// `polylog(n)` sampling service.
pub fn naive_sampling_cost(n: u64) -> u64 {
    2 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::NowSystem;
    use now_net::CostKind;

    #[test]
    fn no_shuffle_system_skips_exchanges() {
        let params = no_shuffle_params(NowParams::for_capacity(1 << 10).unwrap());
        let mut sys = NowSystem::init_fast(params, 150, 0.1, 1);
        assert!(!sys.params().shuffle_enabled());
        sys.join(true);
        let node = sys.node_ids()[0];
        sys.leave(node).unwrap();
        assert_eq!(
            sys.ledger().stats(CostKind::Exchange).count,
            0,
            "baseline must never exchange"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn no_shuffle_join_is_much_cheaper() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let mut now = NowSystem::init_fast(params, 200, 0.1, 2);
        let mut base = NowSystem::init_fast(no_shuffle_params(params), 200, 0.1, 2);
        now.join(true);
        base.join(true);
        let now_cost = now.ledger().stats(CostKind::Join).total_messages;
        let base_cost = base.ledger().stats(CostKind::Join).total_messages;
        assert!(
            base_cost * 5 < now_cost,
            "shuffling is the dominant cost: {base_cost} vs {now_cost}"
        );
    }

    #[test]
    fn cost_formulas() {
        assert_eq!(naive_broadcast_cost(10), 90);
        assert_eq!(naive_broadcast_cost(0), 0);
        assert_eq!(single_cluster_round_cost(10, 3), 270);
        assert_eq!(naive_sampling_cost(100), 200);
    }
}
