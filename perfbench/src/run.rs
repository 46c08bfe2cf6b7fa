//! Executing runs: build and run one `(cell, run)` unit plainly, traced,
//! or as its idle twin; check its output; catch its panic; and drive a
//! whole grid through `Sweep::execute` with per-unit results collected
//! on the side (the sweep closure must return `RunStats`).

use crate::report::Stopwatch;
use crate::trace::{Idle, LayerTotals, Recorder, Traced, TracedMedium};
use glr_bench::{Cell, Proto};
use glr_core::Glr;
use glr_epidemic::Epidemic;
use glr_sim::{Medium, NodeId, Protocol, RunStats, Scenario, SimConfig, Simulation, Sweep};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// How a unit is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The cell's protocol over the cell's medium, untouched.
    Plain,
    /// The same, with protocol and medium wrapped by the tracers.
    Traced,
    /// The idle-protocol twin of the cell: same config, seed and medium.
    Twin,
}

/// Everything one unit produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The cell's label.
    pub label: String,
    /// The run's simulation seed.
    pub seed: u64,
    /// Time to build the `Simulation` (medium, trajectories, arena,
    /// tables, protocol instances), in steal-free seconds (see
    /// [`Stopwatch`]).
    pub setup_s: f64,
    /// Time inside `Simulation::run_inspect`, in steal-free seconds.
    pub run_s: f64,
    /// The same, by the wall clock.
    pub raw_run_s: f64,
    /// The thread that ran the unit.
    pub thread: ThreadId,
    /// The run's statistics; `None` when it panicked.
    pub stats: Option<RunStats>,
    /// Why the unit failed (panic or failed output check), if it did.
    pub failure: Option<String>,
    /// Traced runs only: what the tracers recorded.
    pub layers: Option<LayerTotals>,
    /// Neighbour-table heap bytes per node at the end of the run.
    pub table_bytes_per_node: f64,
    /// Nodes in the run.
    pub nodes: usize,
}

impl UnitOutcome {
    /// Whole time the unit occupied its worker, in seconds.
    pub fn unit_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// The checks every run's output must pass: it created exactly the
/// workload's messages due within the run, delivered no more than it created (none for an
/// idle twin), and every delivered record took at least one hop.
pub fn check_output(stats: &RunStats, expected: usize, idle: bool) -> Result<(), String> {
    let created = stats.messages_created();
    if created != expected {
        return Err(format!(
            "created {created} messages, workload has {expected}"
        ));
    }
    let delivered = stats.messages_delivered();
    if delivered > created {
        return Err(format!("delivered {delivered} > created {created}"));
    }
    if idle && delivered != 0 {
        return Err(format!("idle twin delivered {delivered} messages"));
    }
    if let Some(r) = stats
        .records()
        .iter()
        .find(|r| r.delivered.is_some() && r.hops.unwrap_or(0) < 1)
    {
        return Err(format!(
            "message {}->{} delivered with {:?} hops",
            r.src.0, r.dst.0, r.hops
        ));
    }
    Ok(())
}

/// Builds one simulation of `scenario` at `seed`, timing the build of
/// its medium, trajectories, arena, tables and protocol instances.
/// `wrap` may wrap the built medium. Returns the simulation, the set-up
/// time in seconds and the workload's message count.
fn build<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    factory: impl FnMut(NodeId, &SimConfig) -> P,
    wrap: impl FnOnce(Box<dyn Medium<P::Packet>>) -> Box<dyn Medium<P::Packet>>,
) -> (Simulation<P>, f64, usize) {
    let config = scenario.config.clone().with_seed(seed);
    let workload = scenario.build_workload();
    // Messages scheduled after the end of the run are never injected.
    let expected = workload
        .messages()
        .iter()
        .filter(|m| m.at.as_secs() <= config.sim_duration)
        .count();
    let t = Stopwatch::start();
    let medium = wrap(scenario.medium.build(config.n_nodes));
    let sim = Simulation::with_boxed_medium(config, workload, factory, medium);
    (sim, t.read().1, expected)
}

/// Runs a built simulation, timing `run_inspect` and reading the
/// neighbour-table footprint at its end.
fn finish<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    (sim, setup_s, expected): (Simulation<P>, f64, usize),
    rec: Option<Rc<Recorder>>,
) -> (UnitOutcome, usize) {
    let mut bytes = 0.0;
    let t = Stopwatch::start();
    let stats = sim.run_inspect(|s| bytes = s.neighbor_footprint().bytes_per_node() as f64);
    let (raw_run_s, run_s) = t.read();
    let outcome = UnitOutcome {
        label: scenario.label.clone(),
        seed,
        setup_s,
        run_s,
        raw_run_s,
        thread: std::thread::current().id(),
        stats: Some(stats),
        failure: None,
        // Spans are wall-clock; steal hits them in proportion to the run.
        layers: rec.map(|r| r.totals().steal_free(run_s / raw_run_s)),
        table_bytes_per_node: bytes,
        nodes: scenario.config.n_nodes,
    };
    (outcome, expected)
}

/// Builds and runs one simulation; with `traced`, protocol and medium
/// are wrapped by the tracers. Panics propagate (see [`exec_with`]).
fn drive<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    factory: impl FnMut(NodeId, &SimConfig) -> P,
    traced: bool,
) -> (UnitOutcome, usize) {
    if traced {
        let rec = Rc::new(Recorder::default());
        let built = build(scenario, seed, Traced::factory(factory, &rec), |m| {
            Box::new(TracedMedium::new(m, &rec))
        });
        finish(scenario, seed, built, Some(rec))
    } else {
        let built = build(scenario, seed, factory, |m| m);
        finish(scenario, seed, built, None)
    }
}

/// Runs one unit of `scenario` at `seed` with any protocol, catching a
/// panic and applying [`check_output`]; a failure is recorded in the
/// outcome (and printed with the cell label and seed), never propagated.
pub fn exec_with<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    factory: impl FnMut(NodeId, &SimConfig) -> P,
    mode: Mode,
) -> UnitOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        drive(scenario, seed, factory, mode == Mode::Traced)
    }));
    let outcome = match result {
        Ok((mut o, expected)) => {
            let stats = o.stats.as_ref().expect("drive returns stats");
            o.failure = check_output(stats, expected, mode == Mode::Twin).err();
            o
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            UnitOutcome {
                label: scenario.label.clone(),
                seed,
                setup_s: 0.0,
                run_s: 0.0,
                raw_run_s: 0.0,
                thread: std::thread::current().id(),
                stats: None,
                failure: Some(format!("panicked: {msg}")),
                layers: None,
                table_bytes_per_node: 0.0,
                nodes: scenario.config.n_nodes,
            }
        }
    };
    if let Some(why) = &outcome.failure {
        println!("FAILED run: cell {} seed {seed}: {why}", outcome.label);
    }
    outcome
}

/// Runs run `run` of `cell` (seed = the cell's seed + `run`, as
/// `Scenario::run_nth` does) in the given mode.
pub fn exec_unit(cell: &Cell, run: usize, mode: Mode) -> UnitOutcome {
    let sc = &cell.scenario;
    let seed = sc.config.seed + run as u64;
    match (mode, &cell.proto) {
        (Mode::Twin, _) => exec_with(sc, seed, |_, _| Idle, mode),
        (_, Proto::Glr(cfg)) => exec_with(sc, seed, Glr::factory(cfg.clone()), mode),
        (_, Proto::Epidemic) => exec_with(sc, seed, Epidemic::new, mode),
    }
}

/// One execution of a grid through the sweep engine.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Sweep workers used.
    pub workers: usize,
    /// Wall time of `Sweep::execute` by the wall clock, in seconds.
    pub makespan_s: f64,
    /// Per unit, in `(cell, run)` order.
    pub units: Vec<UnitOutcome>,
}

impl GridOutcome {
    /// Sum of the units' run times (set-up excluded), in seconds.
    pub fn busy_run_s(&self) -> f64 {
        self.units.iter().map(|u| u.run_s).sum()
    }

    /// The timed phase's steal-free wall time. One worker runs the
    /// units back to back: the sum of their run times (set-up excluded
    /// exactly). Parallel workers each drain the shared queue without
    /// idling until it is empty, so the makespan is the busiest worker's
    /// total (units build inside the workers, so their set-up — about
    /// 0.1% at 50 nodes — is included).
    pub fn wall_s(&self) -> f64 {
        if self.workers > 1 {
            let mut per_thread: HashMap<ThreadId, f64> = HashMap::new();
            for u in &self.units {
                *per_thread.entry(u.thread).or_default() += u.unit_s();
            }
            per_thread.into_values().fold(0.0, f64::max)
        } else {
            self.busy_run_s()
        }
    }

    /// The timed phase by the wall clock (steal included), for the log.
    pub fn raw_wall_s(&self) -> f64 {
        if self.workers > 1 {
            self.makespan_s
        } else {
            self.units.iter().map(|u| u.raw_run_s).sum()
        }
    }

    /// Number of failed units.
    pub fn failed(&self) -> usize {
        self.units.iter().filter(|u| u.failure.is_some()).count()
    }
}

/// Executes every `(cell, run)` unit of `cells` through
/// `Sweep::execute` on `workers` threads in the given mode.
pub fn execute_grid(cells: &[Cell], runs: usize, workers: usize, mode: Mode) -> GridOutcome {
    execute_grid_with(cells, runs, workers, |cell, run| exec_unit(cell, run, mode))
}

/// Executes every `(cell, run)` unit of `cells` through
/// `Sweep::execute` on `workers` threads, each unit by `unit` (which
/// must not panic: [`exec_with`] catches). The closure handed to the
/// sweep returns the unit's `RunStats` (an empty one for a failed unit);
/// timings, traces and failures go to a side collector keyed by unit
/// index.
pub fn execute_grid_with(
    cells: &[Cell],
    runs: usize,
    workers: usize,
    unit: impl Fn(&Cell, usize) -> UnitOutcome + Send + Sync,
) -> GridOutcome {
    let n_units = cells.len() * runs;
    let workers = workers.clamp(1, n_units.max(1));
    let side: Vec<Mutex<Option<UnitOutcome>>> = (0..n_units).map(|_| Mutex::new(None)).collect();
    let t = Instant::now();
    Sweep::new(runs)
        .with_threads(workers)
        .execute(cells, |cell, run| {
            let index = cells
                .iter()
                .position(|c| std::ptr::eq(c, cell))
                .expect("cell belongs to the grid")
                * runs
                + run;
            let outcome = unit(cell, run);
            let stats = outcome.stats.clone().unwrap_or_else(|| RunStats::new(0));
            *side[index].lock().expect("side collector poisoned") = Some(outcome);
            stats
        });
    let makespan_s = t.elapsed().as_secs_f64();
    let units = side
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("side collector poisoned")
                .expect("every unit reported")
        })
        .collect();
    GridOutcome {
        workers,
        makespan_s,
        units,
    }
}

/// Builds (and drops) every unit's `Simulation` of `cells` serially,
/// returning the total set-up time in seconds — the set-up metric,
/// sampled apart from the timed phase.
pub fn setup_only(cells: &[Cell], runs: usize) -> f64 {
    let mut total = 0.0;
    for cell in cells {
        for run in 0..runs {
            let sc = &cell.scenario;
            let seed = sc.config.seed + run as u64;
            total += match &cell.proto {
                Proto::Glr(cfg) => build(sc, seed, Glr::factory(cfg.clone()), |m| m).1,
                Proto::Epidemic => build(sc, seed, Epidemic::new, |m| m).1,
            };
        }
    }
    total
}
