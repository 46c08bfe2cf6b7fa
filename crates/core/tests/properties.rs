//! Property-based tests for GLR's storage, location and decision logic.

use glr_core::{CopyPolicy, LocationEstimate, LocationTable, MessageStore, StoredMessage};
use glr_geometry::{DstdKind, Point2};
use glr_mobility::Region;
use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
use proptest::prelude::*;

fn msg(seq: u32, tag: u8) -> StoredMessage {
    StoredMessage::new(
        MessageInfo {
            id: MessageId {
                src: NodeId(0),
                seq,
            },
            dst: NodeId(9),
            size: 1000,
            created: SimTime::ZERO,
        },
        DstdKind::Max,
        tag,
        LocationEstimate::new(Point2::ORIGIN, SimTime::ZERO),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_never_exceeds_limit(limit in 1usize..20, ops in prop::collection::vec((0u32..50, 0u8..3), 1..80)) {
        let mut s = MessageStore::new(Some(limit));
        for (i, &(seq, tag)) in ops.iter().enumerate() {
            if i % 3 == 2 {
                // Occasionally run a pass that moves the head to cache.
                for j in 0..s.store_len() {
                    let m = s.pop_front().unwrap();
                    if j == 0 {
                        s.to_cache(m, NodeId(1), SimTime::from_secs(10.0));
                    } else {
                        s.requeue(m);
                    }
                }
            }
            s.push(msg(seq, tag));
            prop_assert!(s.total() <= limit, "total {} > limit {}", s.total(), limit);
        }
    }

    #[test]
    fn ack_is_idempotent_and_precise(tags in prop::collection::vec(0u8..4, 1..10)) {
        let mut s = MessageStore::new(None);
        for (i, &t) in tags.iter().enumerate() {
            s.to_cache(msg(i as u32, t), NodeId(2), SimTime::from_secs(100.0));
        }
        let n = s.cache_len();
        // Acking an absent copy changes nothing.
        let absent = MessageId { src: NodeId(7), seq: 0 };
        let absent_ack = s.ack(absent, 0);
        prop_assert!(!absent_ack);
        prop_assert_eq!(s.cache_len(), n);
        // Acking each exactly once empties the cache.
        for (i, &t) in tags.iter().enumerate() {
            let id = MessageId { src: NodeId(0), seq: i as u32 };
            let acked = s.ack(id, t);
            prop_assert!(acked);
        }
        prop_assert_eq!(s.cache_len(), 0);
    }

    #[test]
    fn expiry_conserves_copies(n in 1usize..15, cutoff in 0.0..20.0f64) {
        let mut s = MessageStore::new(None);
        for i in 0..n {
            s.to_cache(msg(i as u32, 0), NodeId(1), SimTime::from_secs(i as f64));
        }
        let before = s.total();
        let moved = s.expire_cache(SimTime::from_secs(cutoff));
        prop_assert_eq!(s.total(), before, "expiry must not lose copies");
        prop_assert_eq!(s.store_len(), moved);
        // Everything with deadline <= cutoff moved.
        let expect = n.min(cutoff.floor() as usize + 1).min(n);
        prop_assert!(moved <= n);
        if cutoff >= (n - 1) as f64 {
            prop_assert_eq!(moved, n);
        } else {
            prop_assert_eq!(moved, expect);
        }
    }

    #[test]
    fn take_expired_preserves_order(deadlines in prop::collection::vec(0u32..10, 0..20), now in 0u32..10) {
        let mut s = MessageStore::new(None);
        for (i, &d) in deadlines.iter().enumerate() {
            s.to_cache(msg(i as u32, 0), NodeId(1), SimTime::from_secs(d as f64));
        }
        let taken: Vec<u32> = s
            .take_expired(SimTime::from_secs(now as f64))
            .iter()
            .map(|e| e.msg.info.id.seq)
            .collect();
        let (expired, kept): (Vec<u32>, Vec<u32>) =
            (0..deadlines.len() as u32).partition(|&i| deadlines[i as usize] <= now);
        prop_assert_eq!(taken, expired);
        // The entries left behind keep their order too: expiring them all
        // afterwards yields them in insertion order.
        let rest: Vec<u32> = s
            .take_expired(SimTime::from_secs(f64::MAX))
            .iter()
            .map(|e| e.msg.info.id.seq)
            .collect();
        prop_assert_eq!(rest, kept);
    }

    #[test]
    fn in_place_pass_matches_drain_reference(
        n in 0usize..20,
        outcomes in prop::collection::vec(0u8..8, 20..21),
    ) {
        // Per visited copy: 0 = sent (to the Cache), 7 = link saturated
        // (requeued, pass ends), anything else = kept (requeued).
        let mut s = MessageStore::new(Some(n.max(1)));
        for i in 0..n {
            s.push(msg(i as u32, 0));
        }
        // Reference: drain everything, push unsent copies back in visit
        // order, and after saturation push the rest back untouched.
        let mut ref_store = Vec::new();
        let mut ref_cache = Vec::new();
        let mut saturated = false;
        for i in 0..n as u32 {
            match (saturated, outcomes[i as usize]) {
                (true, _) => ref_store.push(i),
                (false, 0) => ref_cache.push(i),
                (false, 7) => {
                    saturated = true;
                    ref_store.push(i);
                }
                _ => ref_store.push(i),
            }
        }
        let pass = s.store_len();
        for visited in 1..=pass {
            let m = s.pop_front().unwrap();
            match outcomes[visited - 1] {
                0 => s.to_cache(m, NodeId(1), SimTime::from_secs(10.0)),
                7 => {
                    s.requeue(m);
                    s.defer_front(pass - visited);
                    break;
                }
                _ => s.requeue(m),
            }
        }
        let store: Vec<u32> = s.iter_store().map(|m| m.info.id.seq).collect();
        prop_assert_eq!(store, ref_store);
        let cache: Vec<u32> = s
            .take_expired(SimTime::from_secs(10.0))
            .iter()
            .map(|e| e.msg.info.id.seq)
            .collect();
        prop_assert_eq!(cache, ref_cache);
    }

    #[test]
    fn location_table_is_monotone_in_time(updates in prop::collection::vec((0.0..100.0f64, -500.0..500.0f64), 1..40)) {
        let mut t = LocationTable::new();
        let node = NodeId(3);
        let mut freshest = f64::NEG_INFINITY;
        for &(at, x) in &updates {
            t.update(node, LocationEstimate::new(Point2::new(x, 0.0), SimTime::from_secs(at)));
            freshest = freshest.max(at);
            let cur = t.get(node).unwrap();
            prop_assert!((cur.at.as_secs() - freshest).abs() < 1e-12,
                "table regressed to {} when freshest is {}", cur.at.as_secs(), freshest);
        }
    }

    #[test]
    fn guesses_never_enter_tables(at in 0.0..100.0f64) {
        let mut t = LocationTable::new();
        let node = NodeId(5);
        prop_assert!(!t.update(node, LocationEstimate::guess(Point2::ORIGIN, SimTime::from_secs(at))));
        prop_assert!(t.get(node).is_none());
    }

    #[test]
    fn copy_policy_monotone_in_radius(n in 5usize..200) {
        // More range never increases the copy count.
        let policy = CopyPolicy::PAPER;
        let mut last = usize::MAX;
        for r in [30.0, 60.0, 90.0, 120.0, 150.0, 200.0, 300.0] {
            let c = policy.copies(n, r, Region::PAPER_STRIP);
            prop_assert!(c <= last, "copies increased with radius at n={} r={}", n, r);
            prop_assert!(c >= 1);
            last = c;
        }
    }

    #[test]
    fn refresh_destination_never_stales(offsets in prop::collection::vec(0.0..50.0f64, 1..10)) {
        let mut s = MessageStore::new(None);
        s.push(msg(0, 0));
        let mut best = 0.0f64;
        for &dt in &offsets {
            let est = LocationEstimate::new(Point2::new(dt, dt), SimTime::from_secs(dt));
            s.refresh_destination(NodeId(9), est);
            best = best.max(dt);
            let cur = s.iter_store().next().unwrap().dest_est;
            prop_assert!((cur.at.as_secs() - best).abs() < 1e-12);
        }
    }
}
