//! Refactor-safety properties for the neighbour-table layer: the shared
//! (`Rc`-interned snapshots, incremental two-hop merges, lazy staleness
//! sweeping) backend must be *exactly* equivalent to the clone-and-merge
//! reference — bit-identical [`RunStats`] from full simulation runs
//! across random configurations, seeds, all three media, and both
//! spatial-index backends. Same pattern as `grid_equivalence.rs`. The
//! one-entry lookup `NeighborTables::fresh_entry` is pinned at table
//! level to the full-table lookup it replaces.

use glr_geometry::Point2;
use glr_sim::{
    Ctx, IndexBackend, MediumKind, MessageInfo, NeighborEntry, NeighborTables, NodeId, PacketKind,
    Protocol, RunStats, SimConfig, SimTime, TableBackend, Workload,
};
use proptest::prelude::*;

/// A controlled flood over the fresh 1-hop table: any divergence in entry
/// *content or order* changes queueing order, contention, RNG draws and
/// therefore the statistics.
struct Flood;

#[derive(Debug, Clone)]
struct FloodPacket {
    info: MessageInfo,
    hops: u32,
}

impl Protocol for Flood {
    type Packet = FloodPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        for e in ctx.neighbors() {
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
            for e in ctx.neighbors() {
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

/// Greedy forwarding over the merged 1-/2-hop view (`Ctx::local_view`),
/// the consumer GLR's LDTG construction feeds on: picks the view entry
/// nearest the destination's believed position, so any difference in the
/// two-hop merge (entry set, freshest-wins winner, or ordering) redirects
/// traffic and shows up in the statistics.
struct ViewGreedy;

#[derive(Debug, Clone)]
struct GreedyPacket {
    info: MessageInfo,
    hops: u32,
}

impl Protocol for ViewGreedy {
    type Packet = GreedyPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        self.forward(ctx, GreedyPacket { info, hops: 0 });
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, _from: NodeId, pkt: Self::Packet) {
        if pkt.info.dst == ctx.me() {
            ctx.deliver(pkt.info.id, pkt.hops);
        } else if pkt.hops < 6 {
            self.forward(ctx, pkt);
        }
    }
}

impl ViewGreedy {
    fn forward(&mut self, ctx: &mut Ctx<'_, GreedyPacket>, mut pkt: GreedyPacket) {
        let dst_pos = ctx.true_pos(pkt.info.dst);
        let view = ctx.local_view();
        let next = view
            .iter()
            .min_by(|a, b| a.pos.dist(dst_pos).total_cmp(&b.pos.dist(dst_pos)))
            .map(|e| e.id);
        if let Some(next) = next {
            pkt.hops += 1;
            let size = pkt.info.size;
            let _ = ctx.send(next, pkt, size, PacketKind::Data);
        }
    }
}

fn medium_for(choice: u8) -> MediumKind {
    match choice % 3 {
        0 => MediumKind::Contention,
        1 => MediumKind::Ideal,
        _ => MediumKind::shadowing(),
    }
}

fn run<P: Protocol>(
    cfg: &SimConfig,
    wl: &Workload,
    medium: &MediumKind,
    (index, tables): (IndexBackend, TableBackend),
    factory: impl FnMut(NodeId, &SimConfig) -> P,
) -> RunStats {
    glr_sim::Simulation::with_boxed_medium(
        cfg.clone(),
        wl.clone(),
        factory,
        medium.build(cfg.n_nodes),
    )
    .with_reference_backends(index, tables)
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full engine equivalence on the 1-hop path: for random
    /// configurations, seeds, and media, a complete run produces
    /// bit-identical `RunStats` under both table backends — under both
    /// spatial-index backends.
    #[test]
    fn flood_runs_are_bit_identical_across_table_backends(
        seed in 0u64..100_000,
        range in 30.0..300.0f64,
        msgs in 1usize..25,
        medium_choice in 0u8..3,
    ) {
        let medium = medium_for(medium_choice);
        for index in [IndexBackend::Grid, IndexBackend::LinearScan] {
            let cfg = SimConfig::paper(range, seed)
                .with_nodes(30)
                .with_duration(60.0);
            let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
            let shared = run(&cfg, &wl, &medium, (index, TableBackend::Shared), |_, _| Flood);
            let reference =
                run(&cfg, &wl, &medium, (index, TableBackend::CloneMerge), |_, _| Flood);
            prop_assert_eq!(
                shared, reference,
                "seed={} range={} msgs={} medium={} index={:?}", seed, range, msgs, medium, index
            );
        }
    }

    /// Same property on the 2-hop path: greedy forwarding over
    /// `local_view` (the merged 1-/2-hop tables) is bit-identical, so the
    /// interned-snapshot two-hop representation is observably equal to
    /// the entry-by-entry merge.
    #[test]
    fn view_greedy_runs_are_bit_identical_across_table_backends(
        seed in 0u64..100_000,
        range in 30.0..250.0f64,
        msgs in 1usize..20,
        medium_choice in 0u8..3,
    ) {
        let medium = medium_for(medium_choice);
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(30)
            .with_duration(60.0);
        let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
        let shared = run(&cfg, &wl, &medium, (IndexBackend::Grid, TableBackend::Shared), |_, _| {
            ViewGreedy
        });
        let reference =
            run(&cfg, &wl, &medium, (IndexBackend::Grid, TableBackend::CloneMerge), |_, _| {
                ViewGreedy
            });
        prop_assert_eq!(
            shared, reference,
            "seed={} range={} msgs={} medium={}", seed, range, msgs, medium
        );
    }
}

/// A deterministic entry: node `id`'s position is a function of time,
/// as the engine guarantees for every recorded entry.
fn entry(id: u32, at: f64) -> NeighborEntry {
    NeighborEntry {
        id: NodeId(id),
        pos: Point2::new(f64::from(id), at),
        heard_at: SimTime::from_secs(at),
    }
}

const TABLE_NODES: u32 = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `fresh_entry` (behind `Ctx::neighbor`) is exactly the lookup it
    /// replaces, a `find` over the materialised fresh one-hop table, for
    /// every `(node, id)` under both backends. Random beacon and frame
    /// sequences let entries expire, get garbage-collected as zombies,
    /// revive into new slots (leaving orphans) and be swept.
    #[test]
    fn fresh_entry_matches_a_find_over_fresh_one_hop(
        ops in prop::collection::vec((0u8..3, 0u32..TABLE_NODES, 0u32..32, 0.0..0.8f64), 50..400),
    ) {
        for backend in [TableBackend::Shared, TableBackend::CloneMerge] {
            let mut t = NeighborTables::new(TABLE_NODES as usize, 4.0, backend);
            let mut clock = 0.0;
            for (step, &(kind, a, b, dt)) in ops.iter().enumerate() {
                clock += dt;
                let now = SimTime::from_secs(clock);
                if kind < 2 {
                    // Beacon from `a`, heard by the receivers in mask `b`.
                    let snap = t.beacon_snapshot(NodeId(a), now);
                    for r in (0..TABLE_NODES).filter(|&r| r != a && b & (1 << r) != 0) {
                        t.record_beacon(NodeId(r), entry(a, clock), &snap, now);
                    }
                } else {
                    t.heard_frame(NodeId(b % TABLE_NODES), entry(a, clock));
                }
                for at in [now, SimTime::from_secs(clock + 2.0)] {
                    for u in 0..TABLE_NODES {
                        for id in 0..TABLE_NODES {
                            let want = t
                                .fresh_one_hop(NodeId(u), at)
                                .into_iter()
                                .find(|e| e.id == NodeId(id));
                            prop_assert_eq!(
                                t.fresh_entry(NodeId(u), NodeId(id), at),
                                want,
                                "{:?} step {} node {} id {}", backend, step, u, id
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Long runs cross many TTL horizons (entries expire and revive), which
/// is where the lazy sweep and the eager reference could drift; pin a few
/// fixed seeds at paper duration scale.
#[test]
fn long_runs_with_churn_stay_bit_identical() {
    for (seed, range) in [(3u64, 60.0), (11, 120.0), (29, 200.0)] {
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(40)
            .with_duration(300.0);
        let wl = Workload::paper_style(cfg.n_nodes, 30, 1000);
        let shared = run(
            &cfg,
            &wl,
            &MediumKind::Contention,
            (IndexBackend::Grid, TableBackend::Shared),
            |_, _| ViewGreedy,
        );
        let reference = run(
            &cfg,
            &wl,
            &MediumKind::Contention,
            (IndexBackend::Grid, TableBackend::CloneMerge),
            |_, _| ViewGreedy,
        );
        assert_eq!(shared, reference, "seed={seed} range={range}");
    }
}
