//! The repository benchmark: three workloads that time what users of the
//! GLR simulator wait for, check every run's output, and — in a separate
//! traced run — attribute the time to the engine's layers from outside,
//! through the crates' public seams. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod trace;
pub mod workload;

use report::{fold_digests, median, metric, spread_line, Metric, Outcome};
use run::{execute_grid, setup_only, GridOutcome, Mode};
use trace::{LayerTotals, HOOKS};
use workload::{Size, Workload};

/// Set-ups sampled per untraced run for `setup_s` (median reported).
pub const SETUP_SAMPLES: usize = 15;

/// The engine remainder of a traced run (its wall time minus protocol
/// and medium self time) must hold the idle twin's beacon path: the
/// accounting check accepts `beacon.twin_s <= (1 + TWIN_TOLERANCE) *
/// sim.self_s`. Attributing time twice to protocol or medium would
/// shrink the remainder below the twin. The twin is a separate run, and
/// host speed phases move CPU time by up to about 20% between runs; on
/// `scale-100k` the twin is 85-105% of the remainder, hence 30%.
pub const TWIN_TOLERANCE: f64 = 0.30;

/// The `RunStats` counters GLR reports, traced as protocol metrics.
pub const GLR_COUNTERS: [&str; 5] = [
    "glr.custody_retx",
    "glr.custody_reroute",
    "glr.perturb",
    "glr.ttl_drop",
    "glr.retx_dedupe",
];

/// Runs one benchmark invocation: the untraced run reports the
/// end-to-end metrics, the traced run the per-layer ones.
pub fn bench(w: Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    if traced {
        traced_run(w, seed, size)
    } else {
        untraced_run(w, seed, seconds, size)
    }
}

/// Each unit's `RunStats` digest, in unit order (0 for a panicked unit).
fn digests(g: &GridOutcome) -> Vec<u64> {
    g.units
        .iter()
        .map(|u| u.stats.as_ref().map_or(0, report::digest))
        .collect()
}

fn untraced_run(w: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let reps = w.reps(seconds);
    let plans: Vec<_> = (0..reps).map(|i| w.plan(seed, i, size)).collect();
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|k| setup_only(&plans[k % reps].cells, plans[k % reps].runs))
        .collect();
    println!("setup_s {}", spread_line(&setups));
    let (mut walls, mut attempted, mut failed, mut all_digests) = (Vec::new(), 0, 0, Vec::new());
    for (i, p) in plans.iter().enumerate() {
        let g = execute_grid(&p.cells, p.runs, p.workers, Mode::Plain);
        let d = digests(&g);
        println!(
            "rep {i}: wall_s {:.4} (wall clock {:.4}; {} units on {} workers, failed {}), \
             rep digest {:016x}",
            g.wall_s(),
            g.raw_wall_s(),
            g.units.len(),
            g.workers,
            g.failed(),
            fold_digests(d.iter().copied())
        );
        walls.push(g.wall_s());
        attempted += g.units.len();
        failed += g.failed();
        all_digests.extend(d);
    }
    println!("wall_s {}", spread_line(&walls));
    println!("workload digest {:016x}", fold_digests(all_digests));
    // Steal is already out of every timing (see `report::Stopwatch`), so
    // what is left between repetitions is mostly seed-to-seed work: the
    // mean estimates it with the least spread.
    let mean_wall = walls.iter().sum::<f64>() / walls.len() as f64;
    let mut metrics = vec![metric("wall_s", mean_wall, "s")];
    metrics.push(metric("setup_s", median(&setups), "s"));
    let rss = report::peak_rss_mb();
    let correct = failed == 0 && rss.is_ok();
    match rss {
        Ok(mb) => metrics.push(metric("peak_rss_mb", mb, "MB")),
        Err(e) => println!("FAILED: {e}"),
    }
    let out = Outcome {
        correct,
        attempted,
        failed,
        metrics,
    };
    println!(
        "run_failure_ratio {} ({failed} of {attempted} runs failed)",
        out.failure_ratio()
    );
    out
}

fn traced_run(w: Workload, seed: u64, size: Size) -> Outcome {
    let p = w.plan(seed, 0, size);
    let plain = execute_grid(&p.cells, p.runs, p.workers, Mode::Plain);
    let traced = execute_grid(&p.cells, p.runs, p.workers, Mode::Traced);
    let twin = execute_grid(&p.cells, p.runs, p.workers, Mode::Twin);
    println!("untraced digest {:016x}", fold_digests(digests(&plain)));
    println!("traced digest {:016x}", fold_digests(digests(&traced)));

    let mut failed = plain.failed() + traced.failed() + twin.failed();
    let attempted = plain.units.len() + traced.units.len() + twin.units.len();
    // Side-channel check: tracing must not change what is simulated.
    for (a, b) in plain.units.iter().zip(&traced.units) {
        if a.failure.is_none() && b.failure.is_none() && a.stats != b.stats {
            println!(
                "FAILED side-channel check: cell {} seed {}: traced RunStats differ from untraced",
                a.label, a.seed
            );
            failed += 1;
        }
    }
    for u in &traced.units {
        println!(
            "unit {} seed {}: setup_s {:.4} run_s {:.4}",
            u.label, u.seed, u.setup_s, u.run_s
        );
    }

    let mut layers = LayerTotals::default();
    for u in &traced.units {
        if let Some(l) = &u.layers {
            layers.add(l);
        }
    }
    let stats: Vec<_> = traced
        .units
        .iter()
        .filter_map(|u| u.stats.as_ref())
        .collect();
    let busy = traced.busy_run_s();
    let protocol_s = layers.protocol_s();
    let medium_s = layers.medium_s();
    let sim_self = busy - protocol_s - medium_s;
    let twin_s = twin.busy_run_s();

    // Engine events, counted at the seams: every beacon adds one to
    // `control_tx`, as does every delivered control frame; each
    // `TxComplete` is one `Medium::tx_complete`; each stats sample polls
    // every node's `storage_used`.
    let beacons = stats
        .iter()
        .map(|s| s.control_tx)
        .sum::<u64>()
        .saturating_sub(layers.delivered_control);
    let samples: u64 = traced
        .units
        .iter()
        .filter_map(|u| Some(u.layers.as_ref()?.storage_polls() / u.nodes as u64))
        .sum();
    let events = beacons + layers.tx_complete.calls + layers.timers() + layers.injects() + samples;

    let accounted = sim_self >= 0.0 && twin_s <= (1.0 + TWIN_TOLERANCE) * sim_self;
    println!(
        "accounting: traced busy {busy:.4} s = protocol {protocol_s:.4} + medium {medium_s:.4} \
         + engine remainder {sim_self:.4}; idle twin {twin_s:.4} s must fit the remainder \
         within {}%: {}",
        TWIN_TOLERANCE * 100.0,
        if accounted { "ok" } else { "FAILED" }
    );
    if !accounted {
        failed += 1;
    }

    let unit_s: Vec<f64> = traced.units.iter().map(|u| u.unit_s()).collect();
    let n_units = unit_s.len().max(1) as f64;
    let pct = |xs: &[u32], q: f64| {
        let v: Vec<f64> = xs.iter().map(|&n| n as f64 * 1e-3).collect();
        report::quantile(&v, q)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: Vec<Metric> = vec![
        metric("sim.events", events as f64, "count"),
        metric("sim.events.beacon", beacons as f64, "count"),
        metric(
            "sim.events.tx_complete",
            layers.tx_complete.calls as f64,
            "count",
        ),
        metric("sim.events.timer", layers.timers() as f64, "count"),
        metric("sim.events.inject", layers.injects() as f64, "count"),
        metric("sim.self_s", sim_self, "s"),
        metric(
            "sim.ns_per_event",
            ratio(sim_self * 1e9, events as f64),
            "ns",
        ),
        metric("beacon.twin_s", twin_s, "s"),
        metric("beacon.contacts", layers.contacts() as f64, "count"),
        metric(
            "neighbors.bytes_per_node",
            plain
                .units
                .iter()
                .map(|u| u.table_bytes_per_node)
                .sum::<f64>()
                / n_units,
            "B",
        ),
        metric("medium.enqueue.calls", layers.enqueue.calls as f64, "count"),
        metric("medium.enqueue.self_s", layers.enqueue.secs(), "s"),
        metric(
            "medium.tx_complete.calls",
            layers.tx_complete.calls as f64,
            "count",
        ),
        metric("medium.tx_complete.self_s", layers.tx_complete.secs(), "s"),
        metric(
            "medium.start_next.calls",
            layers.start_next.calls as f64,
            "count",
        ),
        metric("medium.start_next.self_s", layers.start_next.secs(), "s"),
        metric("medium.delivered", layers.delivered as f64, "count"),
        metric("medium.lost", layers.lost as f64, "count"),
        metric("medium.retrying", layers.retrying as f64, "count"),
        metric("medium.queue_full", layers.queue_full as f64, "count"),
        metric(
            "medium.useful_ratio",
            ratio(layers.delivered as f64, layers.tx_complete.calls as f64),
            "ratio",
        ),
        metric("protocol.self_s", protocol_s, "s"),
    ];
    for (hook, span) in HOOKS.iter().zip(layers.hooks) {
        m.push(metric(
            format!("protocol.{hook}.calls"),
            span.calls as f64,
            "count",
        ));
        m.push(metric(format!("protocol.{hook}.self_s"), span.secs(), "s"));
    }
    for (hook, xs) in [
        ("on_timer", &layers.timer_ns),
        ("on_packet", &layers.packet_ns),
    ] {
        m.push(metric(
            format!("protocol.{hook}.p50_us"),
            pct(xs, 0.5),
            "us",
        ));
        m.push(metric(
            format!("protocol.{hook}.p99_us"),
            pct(xs, 0.99),
            "us",
        ));
    }
    for name in GLR_COUNTERS {
        let total: u64 = stats.iter().map(|s| s.event_count(name)).sum();
        m.push(metric(name, total as f64, "count"));
    }
    m.push(metric(
        "protocol.storage_mean",
        stats
            .iter()
            .map(|s| s.mean_storage_occupancy())
            .sum::<f64>()
            / n_units,
        "messages",
    ));
    m.extend([
        metric("sweep.units", unit_s.len() as f64, "count"),
        metric("sweep.unit_p50_s", median(&unit_s), "s"),
        metric("sweep.unit_max_s", report::quantile(&unit_s, 1.0), "s"),
        metric(
            "sweep.busy_ratio",
            ratio(unit_s.iter().sum(), traced.workers as f64 * traced.wall_s()),
            "ratio",
        ),
        metric("trace.wall_s", traced.wall_s(), "s"),
        metric("trace.untraced_wall_s", plain.wall_s(), "s"),
        metric(
            "trace.overhead_ratio",
            ratio(traced.wall_s(), plain.wall_s()),
            "ratio",
        ),
    ]);
    let out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    };
    println!(
        "run_failure_ratio {} ({failed} of {attempted} runs or checks failed)",
        out.failure_ratio()
    );
    out
}
