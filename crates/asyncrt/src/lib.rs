//! `combar-async`: the async epoch runtime, packaged.
//!
//! The runtime itself lives in `combar-rt` ([`combar_rt::asyncb`]): a
//! *logical participant* is a parked waker on a cache-padded sharded
//! wait list, not an OS thread, so a handful of [`Executor`] drivers
//! multiplex millions of participants through one [`AsyncBarrier`].
//! This crate re-exports that surface under one roof and adds the
//! piece the scaling claim needs to be *tested*: a deterministic load
//! harness ([`load`]) that drives σ-imbalanced epoch work — the
//! paper's load-imbalance knob, applied per participant per epoch —
//! at the million-participant scale and reports epochs/s plus
//! wakeup-batch latency percentiles.
//!
//! The harness is a library (not a test body) so the `async_load`
//! acceptance test and the `async_throughput` bench drive the *same*
//! loop, and so downstream experiments can reuse it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;

pub use combar_rt::asyncb::{block_on, yield_now, Sleep, WaitFuture, YieldNow};
pub use combar_rt::{
    AsyncBarrier, AsyncWaiter, BarrierError, Deadline, ExecStats, Executor, Timer,
};

pub use combar_chaos::{WakeChaosConfig, WakeFaultPlan};

pub use load::{busy_work, run_load, work_iters, LoadConfig, LoadReport};
