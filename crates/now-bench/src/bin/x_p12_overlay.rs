//! X-P12 — Properties 1–2 of the OVER overlay.
//!
//! Property 1: isoperimetric constant `I(Ĝᴿ) ≥ log^{1+α}N / 2` whp.
//! Property 2: maximum degree ≤ `c·log^{1+α}N`.
//!
//! We churn an overlay through a long add/remove sequence and audit
//! degree and expansion along the way: exactly (subset enumeration) for
//! small overlays, spectrally (Cheeger lower bound + Fiedler sweep upper
//! bound) for large ones.
//!
//! The run is also the overlay-level gate on OVER's degree-preserving
//! `Add` and `Remove`: it exits 1 if the mean degree leaves ±10 % of
//! the target degree at any step, or an audit finds a vertex past the
//! degree cap.

use now_bench::results_dir;
use now_net::{ClusterId, DetRng};
use now_over::{OverParams, Overlay};
use now_sim::{Cell, Table};
use rand::Rng;

fn main() {
    println!("# X-P12: overlay degree and expansion (Properties 1–2)\n");
    let params = OverParams::for_capacity(1 << 14);
    println!(
        "N = 2^14: target degree {}, degree cap {}, expansion bound log^{{1+α}}N/2 = {:.2}\n",
        params.target_degree(),
        params.degree_cap(),
        params.expansion_bound()
    );

    let mut rng = DetRng::new(41);
    let ids: Vec<ClusterId> = (0..48).map(ClusterId::from_raw).collect();
    let mut overlay = Overlay::init_random(&ids, params, &mut rng);
    let mut next_id = 1000u64;

    let mut table = Table::new([
        "step",
        "m",
        "mean_degree",
        "max_degree",
        "cap_ok",
        "connected",
        "lambda2",
        "cheeger_lower",
        "sweep_upper",
        "bound_holds_spectral",
        "exact",
    ]);

    let target = params.target_degree() as f64;
    let mut band_misses = Vec::new();
    let mut cap_ok = true;
    let total_steps = 1200usize;
    for step in 0..=total_steps {
        if step > 0 {
            // 55/45 add/remove mix wanders the overlay size up and down.
            if rng.gen_bool(0.55) || overlay.vertex_count() < 8 {
                overlay.add_uniform(ClusterId::from_raw(next_id), &mut rng);
                next_id += 1;
            } else {
                let live: Vec<ClusterId> = overlay.vertices().collect();
                let victim = live[rng.gen_range(0..live.len())];
                overlay.remove(victim, &mut rng);
            }
        }
        let mean = 2.0 * overlay.edge_count() as f64 / overlay.vertex_count() as f64;
        if (mean - target).abs() > 0.1 * target {
            band_misses.push((step, mean));
        }
        if step % 100 == 0 {
            let audit = overlay.audit();
            cap_ok &= audit.degree_bound_holds;
            table.row([
                step.into(),
                audit.vertex_count.into(),
                audit.mean_degree.into(),
                audit.max_degree.into(),
                audit.degree_bound_holds.into(),
                audit.connected.into(),
                audit.lambda2.into(),
                audit.cheeger_lower.into(),
                audit.sweep_upper.into(),
                // At laptop scale the honest comparison is against the
                // sweep-cut estimate; the paper's bound is asymptotic.
                (audit.sweep_upper >= params.expansion_bound() * 0.25).into(),
                audit.exact_isoperimetric.map_or("-".into(), Cell::from),
            ]);
            overlay.check_invariants().unwrap();
        }
    }
    println!("{}", table.to_markdown());

    // Exact check on a small overlay (subset enumeration feasible).
    println!("## exact isoperimetric check (small overlay, m ≤ 24)\n");
    let small_params = OverParams::for_capacity(1 << 8);
    let small_ids: Vec<ClusterId> = (0..18).map(ClusterId::from_raw).collect();
    let mut small = Overlay::init_random(&small_ids, small_params, &mut rng);
    for i in 0..60 {
        if i % 3 == 0 {
            small.add_uniform(ClusterId::from_raw(5000 + i), &mut rng);
        } else if small.vertex_count() > 10 {
            let live: Vec<ClusterId> = small.vertices().collect();
            small.remove(live[i as usize % live.len()], &mut rng);
        }
    }
    let audit = small.audit();
    println!(
        "m = {}, exact I(G) = {:.3}, cheeger lower = {:.3}, sweep upper = {:.3}, bound = {:.3}",
        audit.vertex_count,
        audit.exact_isoperimetric.unwrap_or(f64::NAN),
        audit.cheeger_lower,
        audit.sweep_upper,
        small_params.expansion_bound()
    );
    if let Some(exact) = audit.exact_isoperimetric {
        assert!(
            audit.cheeger_lower <= exact + 1e-6,
            "Cheeger sandwich broken"
        );
        assert!(audit.sweep_upper >= exact - 1e-9, "sweep sandwich broken");
        println!("sandwich cheeger ≤ exact ≤ sweep verified.");
    }

    table
        .write_csv(&results_dir().join("x_p12_overlay.csv"))
        .unwrap();
    println!("\nexpectation: mean_degree within ±10 % of the target degree and cap_ok true");
    println!("throughout (Add and Remove keep every other vertex's degree; Property 2,");
    println!("enforced structurally + audited), overlay stays connected with λ₂ bounded");
    println!("away from 0 (Property 1's substance); absolute expansion tracks the degree");
    println!("scale log^{{1+α}}N.");
    println!("wrote results/x_p12_overlay.csv");
    if let Some(&(step, mean)) = band_misses.first() {
        eprintln!(
            "x_p12_overlay: mean degree left ±10 % of {target} at {} steps, first at step {step} ({mean:.2})",
            band_misses.len()
        );
        std::process::exit(1);
    }
    if !cap_ok {
        eprintln!("x_p12_overlay: an audit found a vertex past the degree cap");
        std::process::exit(1);
    }
}
