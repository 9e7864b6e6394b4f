//! The six workloads. Each takes a [`Ctx`] and returns a [`Report`].

pub mod asyncw;
pub mod rt;
pub mod served;
pub mod sim;

use crate::run::{Ctx, Report};
use crate::stamps::now_ns;

/// Runs the named workload, or `None` if there is no such workload.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "rt_sigma0" => rt::run_sigma0(ctx),
        "rt_sigma25" => rt::run_sigma25(ctx),
        "sim_sweep" => sim::run(ctx),
        "served_clean" => served::run_clean(ctx),
        "served_lossy" => served::run_lossy(ctx),
        "async_64k" => asyncw::run(ctx),
        _ => return None,
    })
}

/// `work.busy_ns_per_iter`: what one `busy_work` iteration costs on this
/// host, priced in this process by the workloads that burn it.
fn report_busy_ns_per_iter(report: &mut Report) {
    const ITERS: u32 = 20_000_000;
    let t0 = now_ns();
    combar_work::busy_work(ITERS);
    report.set_value(
        "work.busy_ns_per_iter",
        (now_ns() - t0) as f64 / f64::from(ITERS),
    );
}
