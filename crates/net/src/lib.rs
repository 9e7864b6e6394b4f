//! Barrier-as-a-service: a fault-tolerant networked epoch server.
//!
//! Everything before this crate synchronized threads that share an
//! address space; this crate lifts the same episode/epoch protocol onto
//! a message wire so *sessions* — clients behind an unreliable
//! transport — can cross barriers together. The design is the paper's
//! barrier anatomy restated as a service:
//!
//! * **Arrival aggregation up a tree** — sessions batch into shards
//!   (one owning thread each), shards batch into one root counter; the
//!   shard whose completeness report fills the root performs the
//!   release and the broadcast fans back down
//!   ([`server::EpochServer`]).
//! * **Load imbalance becomes failure tolerance** — the same lease
//!   supervisor that evicted straggling *threads* (PR 4) now evicts
//!   silent *sessions* and dead *shards*; membership folds at quiescent
//!   points so an epoch can never wedge on a crashed participant, and
//!   evicted clients rejoin at an episode boundary.
//! * **The wire is hostile** — every request is idempotent
//!   ([`proto`]), the client re-sends on one jittered, non-growing
//!   deadline ([`client::BarrierClient`]), and [`FaultyTransport`] replays
//!   deterministic drop/duplicate/delay/reorder/disconnect schedules
//!   from `combar-chaos` so the hostility is reproducible in tests.
//!
//! * **The server itself can die** — every completed episode is
//!   write-ahead journaled ([`journal`]) *before* its release is
//!   broadcast, so a restarted (or warm-standby) server replays the
//!   journal ([`recover()`]), re-derives the roster, and answers in-flight
//!   arrivals idempotently; a monotonic incarnation number in every
//!   frame fences out zombie predecessors.
//!
//! Layering (zero dependencies outside the workspace):
//!
//! ```text
//!   mux       — SessionMux: many sessions per executor task, scripted
//!               churn, latency percentiles, the ledger oracle
//!   client    — BarrierClient: one drive loop over client_core's step
//!   faulty    — FaultyTransport: NetFaultPlan interpreter
//!   recover   — journal replay, warm standby, failover cluster
//!   journal   — write-ahead epoch journal (length-delimited, fenced)
//!   transport — Transport trait; loopback + Unix-datagram endpoints
//!   proto     — request/response frames, total binary codec
//!   server    — sharded EpochServer: the driver (threads, locks, clock,
//!               journal, router) of the root and shard cores
//!   root      — RootCore: release, ledger, journal batch and shard
//!               leases as pure steps
//!   shard     — ShardCore: one shard's protocol as a pure step function
//!   simnet    — (tests) the client, shard and root cores in one seeded
//!               virtual-time simulation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod client_core;
pub mod faulty;
pub mod journal;
pub mod mux;
pub mod proto;
pub mod recover;
mod root;
pub mod server;
mod shard;
#[cfg(test)]
mod simnet;
pub mod transport;

pub use client::{BarrierClient, ClientConfig, ClientStats};
pub use faulty::FaultyTransport;
pub use journal::{Journal, JournalError, JournalRecord};
pub use mux::{MuxConfig, MuxReport, SessionMux};
pub use proto::{FrameError, Request, Response, SessionId};
pub use recover::{recover, FailoverCluster, RecoveredState, Standby};
pub use server::{EpochServer, ServerConfig, ServerCrash, SessionStats};
pub use transport::{loopback_pair, LoopbackTransport, NetError, ReconnectTransport, Transport};

#[cfg(unix)]
pub use transport::{uds_pair, UdsTransport};
