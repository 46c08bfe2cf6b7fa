//! Source-to-destination spanning tree (DSTD) extraction.
//!
//! GLR's controlled flooding sends message copies along up to three trees
//! extracted from the routing spanner *in the direction from source to
//! destination* (paper §2.3):
//!
//! * **MaxDSTD** — each node forwards to the neighbour making *maximum*
//!   progress (closest to the destination);
//! * **MinDSTD** — the neighbour making *minimum* positive progress;
//! * **MidDSTD** — a neighbour making intermediate progress; several
//!   distinct Mid trees can be extracted when the source wants more than
//!   three copies.
//!
//! Each message copy carries a tree flag; relays re-derive the next hop for
//! their flag from their own local spanner, so a "tree" materialises hop by
//! hop rather than being computed centrally.

use crate::graph::Graph;
use crate::point::Point2;

/// Which source-to-destination tree a (copy of a) message follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DstdKind {
    /// Maximum-progress tree: forward to the neighbour closest to the
    /// destination.
    Max,
    /// Minimum-progress tree: forward to the neighbour with the least
    /// positive progress.
    Min,
    /// `Mid(i)`: the i-th intermediate-progress tree (0-based). `Mid(0)` is
    /// the canonical middle choice; higher indices select other
    /// intermediate candidates when the source wants extra copies.
    Mid(u8),
}

impl DstdKind {
    /// The tree kinds used for an `n`-copy transmission, in the paper's
    /// order: 1 copy uses Max only; 3 copies use Max, Min, Mid; beyond 3,
    /// extra copies take additional Mid trees.
    ///
    /// # Examples
    ///
    /// ```
    /// use glr_geometry::DstdKind;
    ///
    /// assert_eq!(DstdKind::for_copies(1), vec![DstdKind::Max]);
    /// assert_eq!(
    ///     DstdKind::for_copies(3),
    ///     vec![DstdKind::Max, DstdKind::Min, DstdKind::Mid(0)]
    /// );
    /// assert_eq!(DstdKind::for_copies(5).len(), 5);
    /// ```
    pub fn for_copies(n: usize) -> Vec<DstdKind> {
        match n {
            0 => Vec::new(),
            1 => vec![DstdKind::Max],
            2 => vec![DstdKind::Max, DstdKind::Min],
            _ => {
                let mut v = vec![DstdKind::Max, DstdKind::Min];
                for i in 0..(n - 2) {
                    v.push(DstdKind::Mid(i as u8));
                }
                v
            }
        }
    }
}

impl std::fmt::Display for DstdKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DstdKind::Max => write!(f, "MaxDSTD"),
            DstdKind::Min => write!(f, "MinDSTD"),
            DstdKind::Mid(i) => write!(f, "MidDSTD({i})"),
        }
    }
}

/// Picks the next hop among `neighbors` for a message at `self_pos` headed
/// to `dst_pos`, following tree `kind`.
///
/// Only neighbours strictly closer to the destination than `self_pos`
/// qualify ("make progress"); `None` signals a local minimum. Candidates
/// are ranked by distance to the destination (ascending), ties broken by
/// slice order, so the choice is deterministic.
///
/// The id type is generic so protocol code can pass node identifiers
/// directly.
///
/// # Examples
///
/// ```
/// use glr_geometry::{dstd_next_hop, DstdKind, Point2};
///
/// let me = Point2::new(0.0, 0.0);
/// let dst = Point2::new(10.0, 0.0);
/// let nbrs = [
///     ("a", Point2::new(3.0, 0.0)), // strong progress
///     ("b", Point2::new(1.0, 0.0)), // weak progress
///     ("c", Point2::new(-2.0, 0.0)), // backwards: never chosen
/// ];
/// assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Max), Some("a"));
/// assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Min), Some("b"));
/// ```
pub fn dstd_next_hop<I: Copy>(
    self_pos: Point2,
    dst_pos: Point2,
    neighbors: &[(I, Point2)],
    kind: DstdKind,
) -> Option<I> {
    let my_d = self_pos.dist_sq(dst_pos);
    // Candidates make strict progress, so their distances are never NaN.
    let cands = neighbors.iter().filter_map(|&(id, p)| {
        let d = p.dist_sq(dst_pos);
        (d < my_d).then_some((id, d))
    });
    // The ends of the ranking need no sort: the first of the closest and
    // the last of the farthest are what a stable sort puts there.
    let pick = match kind {
        DstdKind::Max => cands.reduce(|best, c| if c.1 < best.1 { c } else { best }),
        DstdKind::Min => cands.reduce(|best, c| if c.1 >= best.1 { c } else { best }),
        DstdKind::Mid(i) => {
            let mut ranked: Vec<(I, f64)> = cands.collect();
            ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let at = if ranked.len() <= 2 {
                // No interior candidate; fall back to the closer end so
                // the copy still moves.
                ranked.len() / 2
            } else {
                1 + (i as usize) % (ranked.len() - 2)
            };
            ranked.get(at).copied()
        }
    };
    pick.map(|(id, _)| id)
}

/// Walks a DSTD path on a global graph from `src` towards vertex `dst`,
/// re-deriving the next hop at every node (as relays do online).
///
/// Stops at `dst`, at a local minimum (`Err` is not used; the partial path
/// is returned), or after `max_hops`. Useful for offline analysis of tree
/// shapes (paper Fig. 2) and for tests.
pub fn extract_dstd_path(
    g: &Graph,
    positions: &[Point2],
    src: usize,
    dst: usize,
    kind: DstdKind,
    max_hops: usize,
) -> Vec<usize> {
    let mut path = vec![src];
    let mut cur = src;
    let dst_pos = positions[dst];
    while cur != dst && path.len() <= max_hops {
        let nbrs: Vec<(usize, Point2)> = g
            .neighbors(cur)
            .iter()
            .map(|&v| (v, positions[v]))
            .collect();
        match dstd_next_hop(positions[cur], dst_pos, &nbrs, kind) {
            Some(next) => {
                path.push(next);
                cur = next;
            }
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldt::k_ldtg;

    fn fan() -> (Point2, Point2, Vec<(usize, Point2)>) {
        let me = Point2::new(0.0, 0.0);
        let dst = Point2::new(100.0, 0.0);
        let nbrs = vec![
            (1, Point2::new(30.0, 10.0)),  // d to dst ~ 70.7
            (2, Point2::new(50.0, 0.0)),   // d = 50 (max progress)
            (3, Point2::new(10.0, 5.0)),   // d ~ 90.1 (min progress)
            (4, Point2::new(25.0, -20.0)), // d ~ 77.6
            (5, Point2::new(-10.0, 0.0)),  // backwards
        ];
        (me, dst, nbrs)
    }

    #[test]
    fn max_min_mid_selection() {
        let (me, dst, nbrs) = fan();
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Max), Some(2));
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Min), Some(3));
        // Interior candidates sorted by distance: 1 (70.7), 4 (77.6).
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Mid(0)), Some(1));
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Mid(1)), Some(4));
        // Mid indices wrap.
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Mid(2)), Some(1));
    }

    #[test]
    fn backwards_neighbors_never_chosen() {
        let me = Point2::new(0.0, 0.0);
        let dst = Point2::new(10.0, 0.0);
        let nbrs = [(9, Point2::new(-5.0, 0.0))];
        for kind in [DstdKind::Max, DstdKind::Min, DstdKind::Mid(0)] {
            assert_eq!(dstd_next_hop(me, dst, &nbrs, kind), None);
        }
    }

    #[test]
    fn single_candidate_all_kinds_agree() {
        let me = Point2::new(0.0, 0.0);
        let dst = Point2::new(10.0, 0.0);
        let nbrs = [(7, Point2::new(4.0, 1.0))];
        for kind in [
            DstdKind::Max,
            DstdKind::Min,
            DstdKind::Mid(0),
            DstdKind::Mid(3),
        ] {
            assert_eq!(dstd_next_hop(me, dst, &nbrs, kind), Some(7));
        }
    }

    #[test]
    fn two_candidates_mid_falls_back() {
        let me = Point2::new(0.0, 0.0);
        let dst = Point2::new(10.0, 0.0);
        let nbrs = [(1, Point2::new(5.0, 0.0)), (2, Point2::new(2.0, 0.0))];
        // Sorted: 1 (d=5), 2 (d=8). Mid falls back to index 1 (= id 2).
        assert_eq!(dstd_next_hop(me, dst, &nbrs, DstdKind::Mid(0)), Some(2));
    }

    #[test]
    fn copies_to_kinds() {
        assert!(DstdKind::for_copies(0).is_empty());
        assert_eq!(DstdKind::for_copies(1), vec![DstdKind::Max]);
        assert_eq!(DstdKind::for_copies(2), vec![DstdKind::Max, DstdKind::Min]);
        let five = DstdKind::for_copies(5);
        assert_eq!(
            five,
            vec![
                DstdKind::Max,
                DstdKind::Min,
                DstdKind::Mid(0),
                DstdKind::Mid(1),
                DstdKind::Mid(2)
            ]
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(DstdKind::Max.to_string(), "MaxDSTD");
        assert_eq!(DstdKind::Mid(2).to_string(), "MidDSTD(2)");
    }

    #[test]
    fn paths_reach_destination_on_connected_spanner() {
        let mut pts = Vec::new();
        let mut state = 88u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..45 {
            pts.push(Point2::new(next() * 900.0, next() * 900.0));
        }
        let g = k_ldtg(&pts, 320.0, 2);
        if !g.is_connected() {
            return; // extremely unlikely at this density
        }
        // Max tree follows greedy progress; with a Delaunay spanner it
        // usually reaches the destination directly. Min/Mid paths are longer
        // but must still make monotone progress while they run.
        let path = extract_dstd_path(&g, &pts, 0, 44, DstdKind::Max, 200);
        for w in path.windows(2) {
            assert!(
                pts[w[1]].dist(pts[44]) < pts[w[0]].dist(pts[44]),
                "Max path must make strict progress"
            );
        }
        let min_path = extract_dstd_path(&g, &pts, 0, 44, DstdKind::Min, 200);
        for w in min_path.windows(2) {
            assert!(pts[w[1]].dist(pts[44]) < pts[w[0]].dist(pts[44]));
        }
        // Min tree takes at least as many hops as Max when both deliver.
        if path.last() == Some(&44) && min_path.last() == Some(&44) {
            assert!(min_path.len() >= path.len());
        }
    }

    #[test]
    fn max_and_min_paths_differ_like_figure2() {
        // Figure 2's qualitative claim: MaxDSTD and MinDSTD trace different
        // routes. Build a fan topology where that must happen.
        let pts = vec![
            Point2::new(0.0, 0.0),    // 0 = S
            Point2::new(30.0, 20.0),  // 1
            Point2::new(30.0, -20.0), // 2
            Point2::new(60.0, 10.0),  // 3
            Point2::new(60.0, -10.0), // 4
            Point2::new(90.0, 0.0),   // 5 = T
        ];
        let mut g = Graph::new(6);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (1, 2),
            (3, 4),
        ] {
            g.add_edge(u, v);
        }
        let max_p = extract_dstd_path(&g, &pts, 0, 5, DstdKind::Max, 50);
        let min_p = extract_dstd_path(&g, &pts, 0, 5, DstdKind::Min, 50);
        assert_eq!(max_p.last(), Some(&5));
        assert_eq!(min_p.last(), Some(&5));
        assert_ne!(max_p, min_p, "trees should diverge");
    }
}
