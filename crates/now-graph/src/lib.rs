//! Graph substrate for the NOW/OVER reproduction.
//!
//! The paper's overlay Ĝᴿ is analyzed through three lenses, all provided
//! here:
//!
//! * **Generation** ([`gen`]): Erdős–Rényi `G(n,p)` graphs — OVER starts
//!   from one with `p = log^{1+α}N / √N` — plus reference topologies used
//!   in tests (rings, stars, paths, complete graphs).
//! * **Expansion** ([`expansion`], `spectral`): the isoperimetric
//!   constant `I(G) = min_{|S| ≤ n/2} E(S,S̄)/|S|` of Property 1, computed
//!   exactly for small graphs and bracketed by the Cheeger-style spectral
//!   lower bound `λ₂/2` and a Fiedler sweep-cut upper bound for large
//!   ones.
//! * **`randCl`'s law** ([`law`]): the exact output law of the
//!   non-backtracking walk the implementation runs, with its
//!   degree-corrected acceptance and restarts ([`nbrw_law`]); that of
//!   the paper's size-biased continuous-time random walk (CTRW), the
//!   reference it replaced ([`ctrw_law`]); and the [`total_variation`]
//!   distance both are measured by. With every edge firing at rate 1,
//!   the CTRW's stationary distribution is *uniform over vertices* even
//!   on irregular graphs (Aldous & Fill); a discrete walk's is biased
//!   by degree, which the implementation's acceptance corrects.
//!
//! All randomness flows through [`rand::Rng`], so callers pass
//! `now_net::DetRng` for reproducibility.
//!
//! # Example
//!
//! ```
//! use now_graph::{gen, algebraic_connectivity, SpectralOptions};
//! use now_net::DetRng;
//!
//! let mut rng = DetRng::new(1);
//! let g = gen::erdos_renyi(64, 0.2, &mut rng);
//! let lambda2 = algebraic_connectivity(&g, SpectralOptions::default());
//! assert!(lambda2 > 0.0); // connected whp at this density
//! ```

#![warn(missing_docs)]

pub mod expansion;
pub mod gen;
pub mod graph;
pub mod law;
pub mod sample;
mod spectral;
pub mod traversal;

pub use expansion::{cheeger_lower_bound, exact_isoperimetric, sweep_cut_upper_bound};
pub use graph::Graph;
pub use law::{ctrw_law, nbrw_law, total_variation};
pub use spectral::{algebraic_connectivity, SpectralOptions};
