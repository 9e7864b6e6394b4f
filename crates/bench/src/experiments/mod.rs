//! One module per reproduced paper artifact, and the one table that
//! names them: [`REGISTRY`]. The `experiments` binary (`all`,
//! `--list`, `--only`, `--json`, the usage line), the golden-snapshot
//! test and the thread-count determinism checks all iterate it, so a
//! new experiment is one module, one registry entry, one DESIGN.md §5
//! row and — if its output is deterministic — one snapshot;
//! `crates/bench/tests/` fails when any of the last three is missing.

pub mod ablate;
pub mod adaptive;
pub mod asyncrt;
pub mod balance;
pub mod baselines;
pub mod chaos;
pub mod churn;
pub mod dot;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod fig8;
pub mod fuzzy_idle;
pub mod ksr;
pub mod mcs;
pub mod release;
pub mod restart;
pub mod scale;
pub mod scaling;
pub mod server;
pub mod trace;
mod wire;

use combar::presets::{
    AsyncLoad, Balance, Fig12, Fig13, Fig2, Fig3Grid, Fig5, Fig8, RestartSim, Scale, ScalingSweep,
    ServerSim,
};
use std::time::Duration;

/// The repository-wide seed table: every experiment derives its
/// per-cell seeds from it, never ad hoc, so results are fully
/// reproducible (change `seeds::BASE` to check robustness).
pub use combar::presets::seeds;

/// What one run of an experiment printed.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// One text per owned id, in [`Experiment::ids`] order: exactly
    /// the bytes the binary writes to stdout for that id.
    pub texts: Vec<String>,
    /// `false` once a check the experiment makes of itself failed; the
    /// binary prints the text and exits 1 (`verify`'s verdict).
    pub ok: bool,
}

impl Rendered {
    /// A single-id experiment that cannot fail, printed verbatim.
    pub fn text(text: String) -> Self {
        Self {
            texts: vec![text],
            ok: true,
        }
    }

    /// [`Rendered::text`] for a rendered table, closed by the blank
    /// line that separates experiments.
    pub fn table(table: String) -> Self {
        Self::text(format!("{table}\n"))
    }
}

/// A byte-exact snapshot under `crates/bench/tests/golden/`.
///
/// The renderer is a *small, fully deterministic* variant of the
/// experiment: RNGs are seeded from the [`seeds`] table, time is
/// virtual or logical, nothing reads a wall clock and no byte depends
/// on `COMBAR_THREADS` — so any unintended change to the simulator,
/// the analytic model or the table renderer shows up as a diff. After
/// an *intended* change, re-bless with
/// `COMBAR_BLESS=1 cargo test -p combar-bench --test golden`.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    /// Snapshot file name.
    pub file: &'static str,
    /// Renders the text the snapshot pins.
    pub render: fn() -> String,
}

/// One registry entry: an experiment and every id it answers to.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The ids this entry owns, in presentation order. Several ids
    /// share an entry when they share a computation (Figures 3 and 4
    /// are two views of one grid), so asking for both runs it once.
    pub ids: &'static [&'static str],
    /// Runs the experiment at full or `--quick` size.
    pub run: fn(quick: bool) -> Rendered,
    /// Whether `all` (and `--list`) include it.
    pub in_all: bool,
    /// Whether stdout carries wall-clock measurements, which exempts
    /// it from the byte-equality checks across thread counts.
    pub wall_clock: bool,
    /// The snapshot pinning its deterministic output, if it has one.
    pub golden: Option<Golden>,
}

impl Experiment {
    /// The common case: part of `all`, no wall clock, no snapshot.
    const fn new(ids: &'static [&'static str], run: fn(bool) -> Rendered) -> Self {
        Self {
            ids,
            run,
            in_all: true,
            wall_clock: false,
            golden: None,
        }
    }

    /// ... whose `render` output the snapshot `file` pins.
    const fn golden(self, file: &'static str, render: fn() -> String) -> Self {
        Self {
            golden: Some(Golden { file, render }),
            ..self
        }
    }
}

/// The preset an experiment runs at: `small` under `--quick`.
fn sized<P>(quick: bool, small: fn() -> P, full: fn() -> P) -> P {
    if quick {
        small()
    } else {
        full()
    }
}

/// Every experiment, in presentation order.
pub const REGISTRY: &[Experiment] = &[
    Experiment::new(&["fig2"], |q| {
        Rendered::table(fig2::run(&sized(q, Fig2::quick, Fig2::default)).render())
    })
    .golden("fig2_small.txt", || {
        let preset = Fig2 {
            p: 256,
            reps: 4,
            ..Fig2::default()
        };
        fig2::run(&preset).render()
    }),
    Experiment::new(&["fig3", "fig4"], |q| {
        let grid = fig34::run(&sized(q, Fig3Grid::quick, Fig3Grid::default));
        Rendered {
            texts: vec![
                format!("{}\n", grid.render_fig3()),
                format!("{}\n", grid.render_fig4()),
            ],
            ok: true,
        }
    }),
    Experiment::new(&["fig5"], |q| {
        Rendered::table(fig5::run(&sized(q, Fig5::quick, Fig5::default)).render())
    }),
    Experiment::new(&["sec4-mcs"], mcs::rendered),
    Experiment::new(&["fig8"], |q| {
        Rendered::table(fig8::run(&sized(q, Fig8::quick, Fig8::default)).render())
    })
    .golden("fig8_small.txt", || {
        let preset = Fig8 {
            p: 128,
            slacks_us: vec![0.0, 4_000.0],
            degrees: vec![4],
            iterations: 40,
            warmup: 5,
            ..Fig8::default()
        };
        fig8::run(&preset).render()
    }),
    // Figure 11 prints with Figure 10, so its own text is empty.
    Experiment::new(&["fig9", "fig10", "fig11"], |q| {
        let res = scaling::run(&sized(q, ScalingSweep::quick, ScalingSweep::default));
        Rendered {
            texts: vec![
                format!("{}\n", res.render_fig9()),
                res.render_fig10_11(),
                String::new(),
            ],
            ok: true,
        }
    }),
    Experiment::new(&["fig12"], |q| {
        Rendered::table(ksr::run_fig12(&sized(q, Fig12::quick, Fig12::default)).render())
    }),
    Experiment::new(&["fig13"], |q| {
        Rendered::table(ksr::run_fig13(&sized(q, Fig13::quick, Fig13::default)).render())
    }),
    Experiment::new(&["ablate"], ablate::rendered),
    Experiment::new(&["adaptive"], adaptive::rendered),
    // The threaded survival matrix times real waits; only its DES
    // companion — the fault timeline replayed against the simulated
    // central counter — is deterministic, and snapshotted.
    Experiment {
        wall_clock: true,
        ..Experiment::new(&["chaos"], |q| {
            let preset = if q {
                chaos::ChaosPreset::quick(seeds::chaos())
            } else {
                chaos::ChaosPreset::full(seeds::chaos())
            };
            Rendered::table(chaos::run(&preset).render())
        })
        .golden("chaos_des_small.txt", || {
            let preset = chaos::ChaosPreset {
                step: Duration::from_millis(10),
                ..chaos::ChaosPreset::quick(seeds::chaos())
            };
            chaos::render_des(&chaos::simulate(&preset))
        })
    },
    Experiment::new(&["churn"], |q| {
        let preset = sized(q, churn::ChurnPreset::quick, churn::ChurnPreset::full);
        Rendered::table(churn::run(&preset).render())
    })
    .golden("churn_small.txt", || {
        churn::run(&churn::ChurnPreset::quick()).render()
    }),
    Experiment::new(&["server"], |q| {
        Rendered::table(server::run(&sized(q, ServerSim::quick, ServerSim::full)).render())
    })
    .golden("server_small.txt", || {
        server::run(&ServerSim::quick()).render()
    }),
    Experiment::new(&["restart"], |q| {
        Rendered::table(restart::run(&sized(q, RestartSim::quick, RestartSim::full)).render())
    })
    .golden("restart_small.txt", || {
        restart::run(&RestartSim::quick()).render()
    }),
    // `async` and `trace` run the real runtime, yet snapshot: every
    // `async` column is a protocol invariant or a pure function of the
    // seeded work schedule, and `trace` positions are logical ticks
    // recorded by one driver thread per mode.
    Experiment::new(&["async"], |q| {
        Rendered::table(asyncrt::run(&sized(q, AsyncLoad::quick, AsyncLoad::full)).render())
    })
    .golden("async_small.txt", || {
        asyncrt::run(&AsyncLoad::quick()).render()
    }),
    Experiment::new(&["trace"], |q| {
        let preset = sized(q, trace::TracePreset::quick, trace::TracePreset::full);
        Rendered::text(trace::run(&preset).render())
    })
    .golden("trace_small.txt", || {
        trace::run(&trace::TracePreset::quick()).render()
    }),
    Experiment::new(&["balance"], |q| {
        Rendered::table(balance::run(&sized(q, Balance::quick, Balance::full)).render())
    })
    .golden("balance_small.txt", || {
        balance::run(&Balance::quick()).render()
    }),
    Experiment::new(&["scale"], |q| {
        Rendered::table(scale::run(&sized(q, Scale::quick, Scale::full)).render())
    })
    .golden("scale_small.txt", || scale::run(&Scale::quick()).render()),
    Experiment::new(&["fuzzy-idle"], fuzzy_idle::rendered),
    Experiment::new(&["release"], release::rendered),
    Experiment::new(&["baselines"], baselines::rendered),
    Experiment::new(&["verify"], crate::verify::rendered),
    Experiment {
        in_all: false,
        ..Experiment::new(&["dot"], dot::rendered)
    },
];

/// The `all` expansion — also what `--list` prints.
pub fn all_ids() -> impl Iterator<Item = &'static str> {
    REGISTRY
        .iter()
        .filter(|e| e.in_all)
        .flat_map(|e| e.ids.iter().copied())
}

/// Where `id` lives: the index of its entry in [`REGISTRY`] and of its
/// text in what that entry renders.
pub fn lookup(id: &str) -> Option<(usize, usize)> {
    REGISTRY
        .iter()
        .enumerate()
        .find_map(|(entry, e)| Some((entry, e.ids.iter().position(|owned| *owned == id)?)))
}

/// Every snapshot the registry declares, in registry order.
pub fn goldens() -> impl Iterator<Item = &'static Golden> {
    REGISTRY.iter().filter_map(|e| e.golden.as_ref())
}
