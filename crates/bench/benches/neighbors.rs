//! Criterion benchmarks of the engine's neighbour layer: uniform-grid
//! spatial-index queries at 50 / 500 / 5000 nodes, and the beacon hot
//! path — `Rc`-interned snapshots + incremental two-hop merges
//! (`TableBackend::Shared`) — at 500 / 5000 / 10000 nodes. The reference
//! backends are exercised by the equivalence tests, not benchmarked.
//!
//! Node density is held at the paper's (50 nodes per 1500 m × 300 m
//! strip) by scaling the region with √n, so per-query result sizes stay
//! comparable as `n` grows.
//!
//! Regenerate the committed artefact with:
//!
//! ```sh
//! CRITERION_JSON=BENCH_sim.json cargo bench -p glr-bench --bench neighbors
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glr_mobility::{DeploymentArena, MobilityModel, RandomWaypoint, Region};
use glr_sim::{
    IndexBackend, NeighborEntry, NeighborTables, NodeId, SimTime, SpatialIndex, TableBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const RANGE: f64 = 100.0;
const SIZES: [usize; 3] = [50, 500, 5000];

/// Paper-density deployment: area grows linearly with n.
fn deployment(n: usize, duration: f64, seed: u64) -> (Region, DeploymentArena) {
    let scale = (n as f64 / 50.0).sqrt();
    let region = Region::new(1500.0 * scale, 300.0 * scale);
    let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let trajs =
        DeploymentArena::from_trajectories(&model.deployment(region, n, duration, &mut rng));
    (region, trajs)
}

/// One query batch: a radius query around each of 64 probe nodes, at a
/// time slightly after the grid snapshot (so the drift path is exercised).
fn query_batch(idx: &SpatialIndex, trajs: &DeploymentArena, n: usize) -> usize {
    let now = SimTime::from_secs(0.5);
    let mut total = 0;
    for k in 0..64usize {
        let u = k * n / 64;
        let center = trajs.position_at(u, now.as_secs());
        total += idx
            .nodes_within(trajs, now, center, RANGE, NodeId(u as u32))
            .len();
    }
    total
}

fn bench_nodes_within(c: &mut Criterion) {
    let mut g = c.benchmark_group("nodes_within_64q");
    for n in SIZES {
        let (_, trajs) = deployment(n, 10.0, 42);
        let mut idx = SpatialIndex::new(IndexBackend::Grid, n, 20.0, RANGE);
        idx.refresh(SimTime::ZERO, &trajs);
        g.bench_function(BenchmarkId::new("grid", n), |b| {
            b.iter(|| query_batch(black_box(&idx), &trajs, n))
        });
    }
    g.finish();
}

/// The beacon workload: `rounds` full beacon rounds — per
/// beacon one snapshot materialisation, then a `record_beacon` at each
/// radio neighbour — with a `fresh_view` (2-hop) query at 64 probe
/// nodes per round, the mix a beacon interval of protocol activity
/// generates.
fn beacon_rounds(
    n: usize,
    positions: &[glr_geometry::Point2],
    nbrs: &[Vec<NodeId>],
    rounds: usize,
) -> (usize, usize) {
    let mut tables = NeighborTables::new(n, 2.5, TableBackend::Shared);
    let mut contacts = 0usize;
    let mut seen = 0usize;
    for round in 0..rounds {
        let now = SimTime::from_secs(round as f64 + 1.0);
        for u in 0..n {
            let sender = NeighborEntry {
                id: NodeId(u as u32),
                pos: positions[u],
                heard_at: now,
            };
            let snap = tables.beacon_snapshot(NodeId(u as u32), now);
            for &v in &nbrs[u] {
                contacts += usize::from(!tables.record_beacon(v, sender, &snap, now));
            }
        }
        for k in 0..64usize {
            let u = NodeId((k * n / 64) as u32);
            seen += tables.fresh_view(u, now).len();
        }
    }
    (contacts, seen)
}

/// Static deployment with the region scaled by `(n/50)^exponent`:
/// exponent 0.5 holds the paper's node density (constant radio degree),
/// 0.25 grows density with `√n` (the radio degree grows too).
fn tables_fixture(
    n: usize,
    exponent: f64,
    seed: u64,
) -> (Vec<glr_geometry::Point2>, Vec<Vec<NodeId>>) {
    let scale = (n as f64 / 50.0).powf(exponent);
    let region = Region::new(1500.0 * scale, 300.0 * scale);
    let model = RandomWaypoint::new(region, 0.0, 20.0, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let trajs = DeploymentArena::from_trajectories(&model.deployment(region, n, 10.0, &mut rng));
    let positions: Vec<_> = (0..n).map(|u| trajs.position_at(u, 0.0)).collect();
    let mut idx = SpatialIndex::new(IndexBackend::Grid, n, 20.0, RANGE);
    idx.refresh(SimTime::ZERO, &trajs);
    let nbrs: Vec<Vec<NodeId>> = (0..n)
        .map(|u| idx.nodes_within(&trajs, SimTime::ZERO, positions[u], RANGE, NodeId(u as u32)))
        .collect();
    (positions, nbrs)
}

/// The beacon hot path at the paper's density (degree stays ~constant
/// as `n` grows). Neighbour lists are precomputed so the measurement is the table
/// layer, not the spatial index.
fn bench_beacon_paper_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("beacon_3rounds_64q");
    for n in [500usize, 5000, 10000] {
        let (positions, nbrs) = tables_fixture(n, 0.5, 42);
        g.bench_function(BenchmarkId::new("shared", n), |b| {
            b.iter(|| black_box(beacon_rounds(n, &positions, &nbrs, 3)))
        });
    }
    g.finish();
}

/// The beacon hot path in the dense regime (density grows with `√n`, so
/// the radio degree grows too — the regime that dominates 10k+-node
/// scenarios whose deployment area does not scale with the swarm); the
/// shared backend still pays O(1) per reception.
fn bench_beacon_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("beacon_dense_1round_64q");
    for n in [500usize, 5000, 10000] {
        let (positions, nbrs) = tables_fixture(n, 0.25, 42);
        g.bench_function(BenchmarkId::new("shared", n), |b| {
            b.iter(|| black_box(beacon_rounds(n, &positions, &nbrs, 1)))
        });
    }
    g.finish();
}

criterion_group!(
    neighbors,
    bench_nodes_within,
    bench_beacon_paper_density,
    bench_beacon_dense
);
criterion_main!(neighbors);
