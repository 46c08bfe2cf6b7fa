//! The benchmark's workloads. Each is a fixed grid of `Cell`s built from
//! the public `Cell`/`Scenario` API — the benchmark owns its grids, so
//! edits to the experiment harness never move them. A repetition runs
//! the grid once; its seeds derive from the benchmark's `--seed`.

use glr_bench::Cell;
use glr_core::GlrConfig;
use glr_sim::{MediumKind, Scenario, SimConfig};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One GLR run at Table 1 scale (50 nodes x 3800 s, 1980 messages,
    /// 50 m radios, contention medium), one thread.
    PaperGlr50m,
    /// A slice of the evaluation grid — Table 6 (radii 250..50 m x {GLR,
    /// epidemic}) plus media-compare's duty-cycled GLR cell at 50 m — at
    /// quick effort (495 messages, 2 runs per cell) on `nproc` sweep
    /// workers.
    EvalSweep,
    /// 100k nodes at paper density for 20 simulated seconds, GLR with
    /// n/50 messages, one thread.
    Scale100k,
}

/// Full size, or a tiny version of the same shape for the benchmark's
/// own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Seconds-long stand-in with the same cells, media and protocols.
    Tiny,
}

/// What one repetition of a workload executes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The grid.
    pub cells: Vec<Cell>,
    /// Runs per cell (run `r` uses the cell's seed + `r`).
    pub runs: usize,
    /// Sweep workers.
    pub workers: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGlr50m,
        Workload::EvalSweep,
        Workload::Scale100k,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGlr50m => "paper-glr-50m",
            Workload::EvalSweep => "eval-sweep",
            Workload::Scale100k => "scale-100k",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds of one repetition on the reference host (2-core
    /// Xeon), used only to size a run: a run makes a fixed number of
    /// repetitions derived from `--seconds`, so both sides of a
    /// comparison execute identical inputs whatever their speed.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::PaperGlr50m => 4.3,
            Workload::EvalSweep => 17.0,
            Workload::Scale100k => 7.3,
        }
    }

    /// Repetitions a run of `seconds` makes (at least one).
    pub fn reps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_s()).round() as usize).max(1)
    }

    /// The grid of repetition `rep` under benchmark seed `seed`.
    pub fn plan(self, seed: u64, rep: usize, size: Size) -> Plan {
        let base = seed.wrapping_mul(1000).wrapping_add(10 * rep as u64);
        let tiny = size == Size::Tiny;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        match self {
            Workload::PaperGlr50m => {
                let (duration, messages) = if tiny { (200.0, 40) } else { (3800.0, 1980) };
                let sim = SimConfig::paper(50.0, base).with_duration(duration);
                let sc = Scenario::new(self.name(), sim).with_messages(messages);
                Plan {
                    cells: vec![Cell::glr(sc, GlrConfig::paper())],
                    runs: 1,
                    workers: 1,
                }
            }
            Workload::EvalSweep => {
                let (duration, messages) = if tiny { (200.0, 20) } else { (3800.0, 495) };
                let radii: &[f64] = if tiny {
                    &[250.0, 50.0]
                } else {
                    &[250.0, 200.0, 150.0, 100.0, 50.0]
                };
                let mut cells = Vec::new();
                for &r in radii {
                    let sim = SimConfig::paper(r, base).with_duration(duration);
                    let sc = |p: &str| Scenario::new(format!("r{r}/{p}"), sim.clone());
                    cells.push(Cell::glr(
                        sc("glr").with_messages(messages),
                        GlrConfig::paper(),
                    ));
                    cells.push(Cell::epidemic(sc("epidemic").with_messages(messages)));
                }
                let sim = SimConfig::paper(50.0, base).with_duration(duration);
                let duty = MediumKind::duty_cycled(MediumKind::Contention, 0.3, 1.0);
                cells.push(Cell::glr(
                    Scenario::new("r50/glr-duty30", sim)
                        .with_messages(messages)
                        .with_medium(duty),
                    GlrConfig::paper(),
                ));
                Plan {
                    cells,
                    runs: 2,
                    workers: nproc,
                }
            }
            Workload::Scale100k => {
                let (nodes, duration) = if tiny { (2000, 3.0) } else { (100_000, 20.0) };
                let sim = SimConfig::paper_scaled(nodes, 100.0, base).with_duration(duration);
                let sc = Scenario::new(self.name(), sim).with_messages(nodes / 50);
                Plan {
                    cells: vec![Cell::glr(sc, GlrConfig::paper())],
                    runs: 1,
                    workers: 1,
                }
            }
        }
    }
}
