//! The virtual wire the `server` and `restart` models share: one frame
//! pushed through a seeded [`NetFaultPlan`] until it is delivered.

use combar_chaos::{NetFault, NetFaultPlan};

/// Cost (extra virtual µs on top of the send instant) of pushing one
/// frame through the fault plan until it is delivered, and the
/// retransmissions it took, bumping the per-direction frame index as
/// the wire consumes it. Drops pay a full retransmission timeout
/// before the next try; delays and reorders pay extra hops; duplicates
/// are absorbed by idempotence and cost nothing beyond the hop.
pub(super) fn transmit(
    plan: &NetFaultPlan,
    stream: u64,
    idx: &mut u64,
    rto_us: f64,
    hop_us: f64,
) -> (f64, u64) {
    let mut cost = 0.0;
    let mut retries = 0u64;
    loop {
        let fault = plan.fault(stream, *idx);
        *idx += 1;
        match fault {
            Some(NetFault::Drop) => {
                cost += rto_us;
                retries += 1;
            }
            Some(NetFault::Delay(d)) => {
                return (cost + hop_us * (1.0 + d as f64), retries);
            }
            Some(NetFault::Reorder) => {
                return (cost + 2.0 * hop_us, retries);
            }
            Some(NetFault::Duplicate) | None => {
                return (cost + hop_us, retries);
            }
        }
    }
}
