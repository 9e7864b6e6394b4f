//! The shared work-assignment layer of the `combar` study.
//!
//! Every substrate in the repository asks the same question each
//! barrier episode — *who does how much work?* This crate answers it
//! through one seam:
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
//! * [`Workload`] — the RNG-driven implementation the simulator's
//!   figures draw from: it owns one `Xoshiro256pp` stream and draws
//!   sequentially, one episode per call. `combar-machine`'s KSR1 SOR
//!   model is a source of the same kind. [`normal_arrivals`] draws one
//!   episode's arrival offsets from a caller's RNG.
//! * [`work_iters`]/[`busy_work`] — the async runtime's busy-work
//!   schedule (`combar_rt::load`; a frozen-seed test there pins the
//!   numbers).
//! * [`Diffuser`] — the feedback half of diffusion balancing: integer work
//!   units redistributed along a neighbour graph (the barrier tree's
//!   own edges) by a damped diffusion step, conserving the total unit
//!   count exactly.
//!
//! The crate depends only on `combar-rng`, so everything above it (sim,
//! DES, machine, rt, async, bench) can reach it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diffuse;
pub mod model;
pub mod redundant;
pub mod workload;

pub use diffuse::{Diffuser, UNIT_SCALE};
pub use model::{busy_work, mix, work_iters, WorkModel};
pub use redundant::Redundant;
pub use workload::{normal_arrivals, Workload};

/// One work-assignment stream: per-episode work times for a fixed set
/// of participants.
///
/// The trait is deliberately dyn-compatible (no generic methods, no
/// RNG parameter): a source either carries its own RNG state
/// ([`Workload`]) or derives each draw as a pure function of
/// `(episode, tid)` ([`WorkModel`]). Either way the caller
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
