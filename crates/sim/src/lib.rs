//! Barrier simulator for the `combar` study.
//!
//! Reimplements the paper's "conventional event driven simulator":
//!
//! * [`episode`] — one pass of all processors through a barrier tree,
//!   with FIFO lock contention at every counter (`t_c` per update) and
//!   the paper's synchronization-delay decomposition. It needs no event
//!   queue: one bottom-up pass over the tree serves each counter's
//!   requests in exactly the order an event loop would pop them;
//! * [`workload`] — arrival/work-time models (i.i.d. normal — the
//!   paper's assumption — plus systemic, evolving, exponential and
//!   Pareto variants);
//! * [`iterate`] — chained iterations under fuzzy-barrier slack with
//!   optional dynamic placement (victor/victim swaps);
//! * [`optimal`] — exhaustive optimal-degree search with common random
//!   numbers (Figures 3/4 methodology), sorting each replication's
//!   arrivals once for every degree ([`Arrivals`]) and planning each
//!   tree once for every replication ([`EpisodePlan`]).
//!
//! # Example: one episode
//!
//! ```
//! use combar_sim::{run_episode, Topology};
//! use combar_des::Duration;
//!
//! let topo = Topology::combining(64, 4);
//! let arrivals = vec![0.0; 64]; // simultaneous
//! let r = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(20.0));
//! assert_eq!(r.sync_delay_us, 240.0); // Eq. 1: L·d·t_c = 3·4·20
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod dissemination;
pub mod episode;
pub mod iterate;
pub mod optimal;
pub mod source;
pub mod workload;

pub use balance::{run_balance, BalanceConfig, BalanceRegime, BalanceReport};
pub use combar_topo::{
    default_degree_sweep, full_tree_degrees, CounterId, Placement, ProcId, Topology, TopologyKind,
};
pub use combar_work::{Diffuser, Redundant, WorkModel, WorkSource, UNIT_SCALE};
pub use dissemination::{mean_dissemination_delay, run_dissemination, DisseminationResult};
pub use episode::{
    run_episode, run_episode_traced, run_episode_with, Arrivals, EpisodeDelays, EpisodePlan,
    EpisodeResult, EpisodeScratch, ReleaseModel,
};
pub use iterate::{
    apply_dynamic_swaps, run_iterations, run_modes, run_replicas, IterateConfig, IterateReport,
    PlacementMode,
};
pub use optimal::{
    build_tree, optimal_degree, speedup_vs_degree4, sweep_degrees, DegreeResult, SweepConfig,
    TreeStyle,
};
pub use source::Seeded;
pub use workload::{normal_arrivals, Sampler, Workload};
