//! The benchmark's own tests: tiny versions of every workload emit
//! exactly the metrics `BENCHMARK.json` lists and pass every check, and
//! faulty protocols are counted as failed runs instead of aborting the
//! sweep.

use glr_bench::Cell;
use glr_core::GlrConfig;
use glr_perfbench::bench;
use glr_perfbench::run::{exec_with, execute_grid_with, Mode};
use glr_perfbench::workload::{Size, Workload};
use glr_sim::{Ctx, MessageInfo, NodeId, Protocol, Scenario, SimConfig};

/// Metric or workload names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, listed("workloads"));
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn tiny_workloads_emit_every_metric_and_pass_every_check() {
    for w in Workload::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = bench(w, 7, 1.0, traced, Size::Tiny);
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(names, listed(section), "{} trace={traced}", w.name());
            assert!(
                out.correct,
                "{} trace={traced}: {}",
                w.name(),
                out.to_json()
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !traced {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{}",
                    out.to_json()
                );
            }
        }
    }
}

/// Panics when its node creates a message.
struct Panicking;

impl Protocol for Panicking {
    type Packet = ();
    fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {
        panic!("deliberate protocol panic");
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}

/// Claims delivery at the source, with zero hops.
struct MisCounting;

impl Protocol for MisCounting {
    type Packet = ();
    fn on_message_created(&mut self, ctx: &mut Ctx<'_, ()>, info: MessageInfo) {
        ctx.deliver(info.id, 0);
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}

#[test]
fn faulty_protocols_raise_the_failure_ratio() {
    let sim = SimConfig::paper(100.0, 5).with_duration(60.0);
    let cells: Vec<Cell> = ["healthy", "panicking", "miscounting"]
        .into_iter()
        .map(|label| {
            Cell::glr(
                Scenario::new(label, sim.clone()).with_messages(10),
                GlrConfig::paper(),
            )
        })
        .collect();
    let grid = execute_grid_with(&cells, 2, 2, |cell, run| {
        let sc = &cell.scenario;
        let seed = sc.config.seed + run as u64;
        match sc.label.as_str() {
            "panicking" => exec_with(sc, seed, |_, _| Panicking, Mode::Plain),
            "miscounting" => exec_with(sc, seed, |_, _| MisCounting, Mode::Plain),
            _ => glr_perfbench::run::exec_unit(cell, run, Mode::Plain),
        }
    });
    assert_eq!(grid.units.len(), 6);
    assert_eq!(grid.failed(), 4, "both faulty cells fail on both runs");
    for u in &grid.units {
        assert_eq!(u.failure.is_some(), u.label != "healthy", "{u:?}");
    }
    let panicked = &grid.units[2];
    assert!(panicked.stats.is_none());
    assert!(panicked
        .failure
        .as_deref()
        .unwrap()
        .contains("deliberate protocol panic"));
    let miscounted = &grid.units[4];
    assert!(miscounted.failure.as_deref().unwrap().contains("hops"));

    // Traced mode catches them the same way.
    let traced = exec_with(&cells[1].scenario, 5, |_, _| Panicking, Mode::Traced);
    assert!(traced.failure.is_some());
}
