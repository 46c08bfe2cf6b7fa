use glr_core::Glr;
use glr_epidemic::Epidemic;
use glr_sim::{SimConfig, Simulation, Workload};
use std::time::Instant;

fn main() {
    for (name, r, msgs, dur) in [
        ("glr-100m", 100.0, 1980usize, 3800.0),
        ("glr-50m", 50.0, 1980, 3800.0),
    ] {
        let cfg = SimConfig::paper(r, 1).with_duration(dur);
        let wl = Workload::paper_style(50, msgs, 1000);
        let t = Instant::now();
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        println!(
            "{name}: {:?} wall, delivered {}/{} lat {:?} hops {:?} peak {} data_tx {}",
            t.elapsed(),
            stats.messages_delivered(),
            stats.messages_created(),
            stats.avg_latency(),
            stats.avg_hops(),
            stats.max_peak_storage(),
            stats.data_tx
        );
        println!(
            "   drops: storage {} queue {} collisions {} oor {} mean_store {:.1}",
            stats.storage_drops,
            stats.queue_drops,
            stats.collisions,
            stats.out_of_range,
            stats.mean_storage_occupancy()
        );
        println!("   counters: {:?}", stats.counters);
    }
    // 250 m is the dense regime, where summary-vector exchange dominates.
    for (name, r) in [("epi-250m", 250.0), ("epi-100m", 100.0), ("epi-50m", 50.0)] {
        let cfg = SimConfig::paper(r, 1).with_duration(3800.0);
        let wl = Workload::paper_style(50, 1980, 1000);
        let t = Instant::now();
        let stats = Simulation::new(cfg, wl, Epidemic::new).run();
        println!(
            "{name}: {:?} wall, delivered {}/{} lat {:?} hops {:?} peak {} data_tx {}",
            t.elapsed(),
            stats.messages_delivered(),
            stats.messages_created(),
            stats.avg_latency(),
            stats.avg_hops(),
            stats.max_peak_storage(),
            stats.data_tx
        );
    }
}
