//! OVER — the dynamic expander overlay of clusters.
//!
//! In the paper, the vertices of Ĝᴿ are NOW's clusters (each safe to
//! treat as an honest super-node, since it holds > 2/3 honest members
//! whp). OVER keeps the overlay an expander with low degree under a
//! polynomially long sequence of vertex additions and removals:
//!
//! * **Property 1** — isoperimetric constant `I(Ĝᴿ) ≥ log^{1+α}N / 2`;
//! * **Property 2** — maximum degree ≤ `c · log^{1+α}N`.
//!
//! The detailed OVER construction lives in the paper's long version
//! (arXiv:1202.3084), which is not available offline; this crate
//! re-derives it from the constraints stated in the PODC text: the
//! overlay starts as a degree-normalized
//! Erdős–Rényi graph of mean degree `target_degree`; `Add` splices the
//! incoming vertex into `target_degree / 2` existing edges, each found
//! from a candidate sampled (by the caller, normally via `randCl`) from
//! the existing overlay; `Remove` deletes the vertex and pairs its
//! former neighbours with each other, topping up any left below the
//! degree floor with fresh random edges. Both leave every other
//! vertex's degree as it was, so the mean degree stays the one the
//! walk's length is sized for. Properties 1–2 are then *measured*
//! (experiment X-P12) instead of assumed.
//!
//! Cost accounting deliberately lives one layer up (in `now-core`),
//! where cluster sizes — and therefore real message counts — are known.
//!
//! The paper notes NOW is overlay-agnostic ("could also be ensured by
//! other protocols … e.g. \[degree\] 4 in \[2\] instead of log^{1+α}N in
//! OVER"); [`CyclesOverlay`] implements the constant-degree alternative
//! from the related work (Law & Siu's union of random cycles,
//! reference \[26\]) for side-by-side comparison (experiment X-ALT).
//!
//! # Example
//!
//! ```
//! use now_over::{Overlay, OverParams};
//! use now_net::{ClusterId, DetRng};
//!
//! let params = OverParams::for_capacity(1 << 12);
//! let mut rng = DetRng::new(7);
//! let ids: Vec<ClusterId> = (0..32).map(ClusterId::from_raw).collect();
//! let mut overlay = Overlay::init_random(&ids, params, &mut rng);
//! let newcomer = ClusterId::from_raw(99);
//! overlay.add_uniform(newcomer, &mut rng);
//! assert!(overlay.contains(newcomer));
//! let audit = overlay.audit();
//! assert!(audit.max_degree <= params.degree_cap());
//! ```

#![warn(missing_docs)]

mod audit;
mod cycles;
mod overlay;
mod params;

pub use audit::OverlayAudit;
pub use cycles::CyclesOverlay;
pub use overlay::{EdgeEdit, Overlay};
pub use params::OverParams;
