//! Refactor-safety properties for the spatial index and the layered
//! engine: the grid-backed neighbor queries must be *exactly* equivalent
//! to the linear-scan reference — same node sets from raw queries, and
//! bit-identical [`RunStats`] from full simulation runs.

use glr_mobility::{DeploymentArena, MobilityModel, RandomWaypoint, Region};
use glr_sim::{
    Ctx, IndexBackend, MessageInfo, NodeId, PacketKind, Protocol, RunStats, SimConfig, SimTime,
    Simulation, SpatialIndex, TableBackend, Workload,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A controlled flood: exercises queues, contention, collisions and ARQ,
/// so a divergence between index backends anywhere in the radio stack
/// shows up in the statistics.
struct Flood;

#[derive(Debug, Clone)]
struct FloodPacket {
    info: MessageInfo,
    hops: u32,
}

impl Protocol for Flood {
    type Packet = FloodPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        let nbrs = ctx.neighbors();
        for e in nbrs {
            let _ = ctx.send(
                e.id,
                FloodPacket { info, hops: 1 },
                info.size,
                PacketKind::Data,
            );
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, _from: NodeId, pkt: Self::Packet) {
        if pkt.info.dst == ctx.me() {
            ctx.deliver(pkt.info.id, pkt.hops);
        } else if pkt.hops < 3 {
            let nbrs = ctx.neighbors();
            for e in nbrs {
                let _ = ctx.send(
                    e.id,
                    FloodPacket {
                        info: pkt.info,
                        hops: pkt.hops + 1,
                    },
                    pkt.info.size,
                    PacketKind::Data,
                );
            }
        }
    }
}

fn run_with(backend: IndexBackend, cfg: &SimConfig, wl: &Workload) -> RunStats {
    Simulation::new(cfg.clone(), wl.clone(), |_, _| Flood)
        .with_reference_backends(backend, TableBackend::Shared)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw query equivalence across random deployments, ranges, and query
    /// times — including queries against a *stale* grid snapshot, which
    /// the drift inflation must keep exact.
    #[test]
    fn grid_nodes_within_matches_linear_scan(
        seed in 0u64..10_000,
        n in 2usize..80,
        w in 50.0..2000.0f64,
        h in 50.0..800.0f64,
        range in 5.0..400.0f64,
        times in prop::collection::vec(0.0..300.0f64, 1..6),
    ) {
        let region = Region::new(w, h);
        let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let trajs = DeploymentArena::from_trajectories(&model.deployment(region, n, 300.0, &mut rng));

        let mut grid = SpatialIndex::new(IndexBackend::Grid, n, 20.0, range);
        let linear = SpatialIndex::new(IndexBackend::LinearScan, n, 20.0, range);

        let mut times = times;
        times.sort_by(f64::total_cmp);
        // One refresh at the earliest time; later queries hit an ever
        // staler snapshot.
        grid.refresh(SimTime::from_secs(times[0]), &trajs);

        for &t in &times {
            let now = SimTime::from_secs(t);
            for u in [0usize, n / 2, n - 1] {
                let center = trajs.position_at(u, t);
                let except = NodeId(u as u32);
                let got = grid.nodes_within(&trajs, now, center, range, except);
                let want = linear.nodes_within(&trajs, now, center, range, except);
                prop_assert_eq!(
                    got, want,
                    "divergence at t={} range={} n={} u={}", t, range, n, u
                );
            }
        }
    }

    /// Raw count equivalence with a predicate (the contention/interference
    /// query shape).
    #[test]
    fn grid_count_within_matches_linear_scan(
        seed in 0u64..10_000,
        n in 2usize..60,
        range in 10.0..300.0f64,
        t in 0.0..200.0f64,
    ) {
        let region = Region::PAPER_STRIP;
        let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let trajs = DeploymentArena::from_trajectories(&model.deployment(region, n, 200.0, &mut rng));

        let mut grid = SpatialIndex::new(IndexBackend::Grid, n, 20.0, range);
        let linear = SpatialIndex::new(IndexBackend::LinearScan, n, 20.0, range);
        grid.refresh(SimTime::ZERO, &trajs);

        let now = SimTime::from_secs(t);
        let center = trajs.position_at(0, t);
        // An arbitrary stable predicate (even ids), standing in for "is
        // currently transmitting".
        let got = grid.count_within(&trajs, now, center, range, NodeId(0), |v| v.0 % 2 == 0);
        let want = linear.count_within(&trajs, now, center, range, NodeId(0), |v| v.0 % 2 == 0);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full engine equivalence: for random configurations and seeds, a
    /// complete `Simulation::run` produces *bit-identical* `RunStats`
    /// under both spatial-index backends.
    #[test]
    fn full_runs_are_bit_identical_across_backends(
        seed in 0u64..100_000,
        range in 30.0..300.0f64,
        msgs in 1usize..25,
    ) {
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(30)
            .with_duration(60.0);
        let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
        let grid = run_with(IndexBackend::Grid, &cfg, &wl);
        let linear = run_with(IndexBackend::LinearScan, &cfg, &wl);
        prop_assert_eq!(grid, linear, "seed={} range={} msgs={}", seed, range, msgs);
    }
}
