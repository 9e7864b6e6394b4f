//! The shared work-assignment layer of the `combar` study.
//!
//! Every substrate in the repository asks the same question each
//! barrier episode — *who does how much work?* — and before this crate
//! each layer answered it privately: `combar-sim`'s RNG-threaded
//! workloads, `combar-machine`'s SOR rows, the `combar-rt` torture
//! staggers, and the async load harness's hash-derived iteration
//! counts. This crate hoists one seam under all of them:
//!
//! * [`WorkSource`] — the dyn-compatible interface: one call per
//!   episode fills the per-participant work times. Object-safe on
//!   purpose, so harnesses can hold `&mut dyn WorkSource` the same way
//!   the runtime holds `&dyn Barrier`.
//! * [`WorkModel`] — a pure seeded implementation: every draw is a
//!   [`mix`]-hash of `(seed, stream, tid, episode)`, never shared RNG
//!   state, so a schedule is byte-identical at any thread count and
//!   any evaluation order — the property the `combar-exec` sweeps and
//!   the `COMBAR_THREADS` determinism CI diffs are built on.
//! * [`work_iters`]/[`busy_work`] — the async runtime's busy-work
//!   schedule (moved here verbatim from the async load harness, now
//!   `combar_rt::load`; a frozen-seed test there pins the numbers).
//! * [`Diffuser`] — the feedback half of diffusion balancing: integer work
//!   units redistributed along a neighbour graph (the barrier tree's
//!   own edges) by a damped diffusion step, conserving the total unit
//!   count exactly.
//!
//! The crate is dependency-free and sits below `combar-topo` in the
//! stack; everything above (sim, DES, machine, rt, async, bench) can
//! reach it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diffuse;
pub mod model;
pub mod redundant;

pub use diffuse::{Diffuser, UNIT_SCALE};
pub use model::{busy_work, mix, work_iters, WorkModel};
pub use redundant::Redundant;

/// One work-assignment stream: per-episode work times for a fixed set
/// of participants.
///
/// The trait is deliberately dyn-compatible (no generic methods, no
/// RNG parameter): a sampler either carries its own RNG state behind
/// the seam (`combar_sim::Seeded`) or derives each draw as a pure
/// function of `(episode, tid)` ([`WorkModel`]). Either way the caller
/// — episode loop, DES schedule, torture harness — only ever sees
/// `sample_episode`.
pub trait WorkSource: Send {
    /// Nominal mean work time (µs) of one participant-episode.
    fn mean_us(&self) -> f64;

    /// Fills `out[tid]` with the work time (µs) of participant `tid`
    /// in `episode`. `out.len()` is the participant count; a source
    /// built for a fixed `p` may panic on a mismatch.
    fn sample_episode(&mut self, episode: u32, out: &mut [f64]);
}

impl<S: WorkSource + ?Sized> WorkSource for &mut S {
    fn mean_us(&self) -> f64 {
        (**self).mean_us()
    }
    fn sample_episode(&mut self, episode: u32, out: &mut [f64]) {
        (**self).sample_episode(episode, out);
    }
}

impl WorkSource for Box<dyn WorkSource + '_> {
    fn mean_us(&self) -> f64 {
        (**self).mean_us()
    }
    fn sample_episode(&mut self, episode: u32, out: &mut [f64]) {
        (**self).sample_episode(episode, out);
    }
}
