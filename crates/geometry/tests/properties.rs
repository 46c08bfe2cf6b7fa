//! Property-based tests for the geometry substrate.

use glr_geometry::{
    dstd_next_hop, euclidean_stretch, incircle, k_ldtg, orient2d, segments_cross, unit_disk_graph,
    DstdKind, Graph, Point2, Sign, Triangulation,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Simulation-scale coordinates; avoids denormal noise while still
    // exercising the predicates' filters through near-degenerate triples.
    (-1.0e4..1.0e4f64).prop_map(|v| (v * 64.0).round() / 64.0)
}

fn point() -> impl Strategy<Value = Point2> {
    (coord(), coord()).prop_map(|(x, y)| Point2::new(x, y))
}

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(point(), n)
}

/// Points on a small integer lattice: duplicates, ties in distance,
/// collinear and cocircular subsets are all common.
fn lattice_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..5, 0i32..5).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        n,
    )
}

/// Points on the line `y = slope * x + 1` (possibly repeated).
fn collinear_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    (-3i32..4, prop::collection::vec(-20i32..20, n)).prop_map(|(slope, xs)| {
        xs.into_iter()
            .map(|x| Point2::new(x as f64, (slope * x + 1) as f64))
            .collect()
    })
}

/// The sort-based DSTD next hop that `dstd_next_hop` replaced, kept as
/// its reference: rank the progress-making neighbours by distance with a
/// stable sort and pick by tree kind.
fn dstd_next_hop_by_sort<I: Copy>(
    self_pos: Point2,
    dst_pos: Point2,
    neighbors: &[(I, Point2)],
    kind: DstdKind,
) -> Option<I> {
    let my_d = self_pos.dist_sq(dst_pos);
    let mut cands: Vec<(I, f64)> = neighbors
        .iter()
        .filter_map(|&(id, p)| {
            let d = p.dist_sq(dst_pos);
            (d < my_d).then_some((id, d))
        })
        .collect();
    if cands.is_empty() {
        return None;
    }
    cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let pick = match kind {
        DstdKind::Max => 0,
        DstdKind::Min => cands.len() - 1,
        DstdKind::Mid(i) => {
            if cands.len() <= 2 {
                cands.len() / 2
            } else {
                1 + (i as usize) % (cands.len() - 2)
            }
        }
    };
    Some(cands[pick].0)
}

/// `true` when no two edges of `g` (drawn straight between `positions`)
/// cross.
fn is_plane_drawing(g: &Graph, positions: &[Point2]) -> bool {
    let edges: Vec<_> = g.edges().collect();
    for (i, &(a, b)) in edges.iter().enumerate() {
        for &(c, d) in &edges[i + 1..] {
            if segments_cross(positions[a], positions[b], positions[c], positions[d]) {
                return false;
            }
        }
    }
    true
}

/// `has_edge`, `edges()` and `edge_count()` describe one sorted edge set,
/// and with any triangles it is exactly the set of triangle sides.
fn check_edge_set(pts: &[Point2], tri: &Triangulation) -> Result<(), proptest::TestCaseError> {
    let edges: Vec<(usize, usize)> = tri.edges().collect();
    prop_assert_eq!(edges.len(), tri.edge_count());
    for w in edges.windows(2) {
        prop_assert!(w[0] < w[1], "edges not sorted and distinct: {:?}", edges);
    }
    for u in 0..pts.len() {
        for v in 0..pts.len() {
            let listed = edges.contains(&(u.min(v), u.max(v)));
            prop_assert_eq!(tri.has_edge(u, v), u != v && listed, "pair ({}, {})", u, v);
        }
    }
    if !tri.triangles().is_empty() {
        let mut sides: Vec<(usize, usize)> = tri
            .triangles()
            .iter()
            .flat_map(|t| [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])])
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        sides.sort_unstable();
        sides.dedup();
        prop_assert_eq!(edges, sides);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orient2d_antisymmetric(a in point(), b in point(), c in point()) {
        let s1 = orient2d(a, b, c);
        let s2 = orient2d(b, a, c);
        match s1 {
            Sign::Zero => prop_assert_eq!(s2, Sign::Zero),
            Sign::Positive => prop_assert_eq!(s2, Sign::Negative),
            Sign::Negative => prop_assert_eq!(s2, Sign::Positive),
        }
    }

    #[test]
    fn orient2d_cyclic(a in point(), b in point(), c in point()) {
        let s = orient2d(a, b, c);
        prop_assert_eq!(s, orient2d(b, c, a));
        prop_assert_eq!(s, orient2d(c, a, b));
    }

    #[test]
    fn incircle_swap_flips(a in point(), b in point(), c in point(), d in point()) {
        // Swapping two of the first three arguments flips the sign.
        let s1 = incircle(a, b, c, d);
        let s2 = incircle(b, a, c, d);
        match s1 {
            Sign::Zero => prop_assert_eq!(s2, Sign::Zero),
            Sign::Positive => prop_assert_eq!(s2, Sign::Negative),
            Sign::Negative => prop_assert_eq!(s2, Sign::Positive),
        }
    }

    #[test]
    fn segments_cross_symmetric(a in point(), b in point(), c in point(), d in point()) {
        prop_assert_eq!(segments_cross(a, b, c, d), segments_cross(c, d, a, b));
        prop_assert_eq!(segments_cross(a, b, c, d), segments_cross(b, a, d, c));
    }

    #[test]
    fn delaunay_empty_circumcircle(pts in points(3..25)) {
        let tri = Triangulation::build(&pts);
        for t in tri.triangles() {
            let (a, b, c) = (pts[t[0]], pts[t[1]], pts[t[2]]);
            for (i, &p) in pts.iter().enumerate() {
                if t.contains(&i) { continue; }
                prop_assert_ne!(incircle(a, b, c, p), Sign::Positive,
                    "point {} inside circumcircle of {:?}", i, t);
            }
        }
    }

    #[test]
    fn delaunay_edges_agree_with_triangles(pts in lattice_points(0..16)) {
        check_edge_set(&pts, &Triangulation::build(&pts))?;
    }

    #[test]
    fn collinear_delaunay_edges_form_a_path(pts in collinear_points(0..12)) {
        let tri = Triangulation::build(&pts);
        prop_assert!(tri.triangles().is_empty());
        check_edge_set(&pts, &tri)?;
        // A path through the distinct points: one edge fewer than them.
        let mut distinct: Vec<(u64, u64)> =
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(tri.edge_count(), distinct.len().saturating_sub(1));
    }

    #[test]
    fn dstd_matches_sort_reference(
        me in (0i32..5, 0i32..5),
        dst in (0i32..5, 0i32..5),
        nbr_pts in lattice_points(0..12),
        mid in 0u8..6,
    ) {
        // Lattice points tie in distance often; ids are slice positions, so
        // the tie-breaking order is visible.
        let me = Point2::new(me.0 as f64, me.1 as f64);
        let dst = Point2::new(dst.0 as f64, dst.1 as f64);
        let nbrs: Vec<(usize, Point2)> = nbr_pts.into_iter().enumerate().collect();
        for kind in [DstdKind::Max, DstdKind::Min, DstdKind::Mid(mid)] {
            prop_assert_eq!(
                dstd_next_hop(me, dst, &nbrs, kind),
                dstd_next_hop_by_sort(me, dst, &nbrs, kind),
                "{:?}", kind
            );
        }
    }

    #[test]
    fn delaunay_is_plane(pts in points(3..25)) {
        let tri = Triangulation::build(&pts);
        let g = tri.to_graph();
        prop_assert!(is_plane_drawing(&g, &pts));
    }

    #[test]
    fn ldtg_plane_and_connectivity_preserving(pts in points(5..30), r in 1.0e3..6.0e3f64) {
        let udg = unit_disk_graph(&pts, r);
        let ldtg = k_ldtg(&pts, r, 2);
        prop_assert!(is_plane_drawing(&ldtg, &pts), "k-LDTG must be plane");
        prop_assert_eq!(
            udg.connected_components().len(),
            ldtg.connected_components().len(),
            "k-LDTG must preserve connectivity"
        );
        for (u, v) in ldtg.edges() {
            prop_assert!(udg.has_edge(u, v), "LDTG edge outside UDG");
        }
    }

    #[test]
    fn stretch_at_least_one(pts in points(2..15)) {
        let tri = Triangulation::build(&pts);
        let g = tri.to_graph();
        let r = euclidean_stretch(&g, &pts);
        prop_assert!(r.max_stretch >= 1.0 - 1e-9);
        prop_assert!(r.mean_stretch >= 1.0 - 1e-9);
        prop_assert!(r.mean_stretch <= r.max_stretch + 1e-9);
    }

    #[test]
    fn dstd_always_makes_progress(
        me in point(),
        dst in point(),
        nbr_pts in prop::collection::vec(point(), 0..12),
        mid in 0u8..5,
    ) {
        // Unique ids so reverse lookup below is unambiguous.
        let nbrs: Vec<(usize, Point2)> = nbr_pts.into_iter().enumerate().collect();
        let my_d = me.dist_sq(dst);
        for kind in [DstdKind::Max, DstdKind::Min, DstdKind::Mid(mid)] {
            if let Some(id) = dstd_next_hop(me, dst, &nbrs, kind) {
                let p = nbrs.iter().find(|&&(i, _)| i == id).unwrap().1;
                prop_assert!(p.dist_sq(dst) < my_d, "{kind:?} picked a non-progress hop");
            }
        }
        // Max makes at least as much progress as Min when both exist.
        if let (Some(mx), Some(mn)) = (
            dstd_next_hop(me, dst, &nbrs, DstdKind::Max),
            dstd_next_hop(me, dst, &nbrs, DstdKind::Min),
        ) {
            let pmx = nbrs.iter().find(|&&(i, _)| i == mx).unwrap().1;
            let pmn = nbrs.iter().find(|&&(i, _)| i == mn).unwrap().1;
            prop_assert!(pmx.dist_sq(dst) <= pmn.dist_sq(dst));
        }
    }
}
