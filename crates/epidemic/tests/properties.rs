//! Property-based tests for the epidemic buffer.

use glr_epidemic::{BufferedMessage, FifoBuffer};
use glr_sim::{MessageId, MessageInfo, NodeId, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

fn msg(src: u32, seq: u32) -> BufferedMessage {
    BufferedMessage {
        info: MessageInfo {
            id: MessageId {
                src: NodeId(src),
                seq,
            },
            dst: NodeId(99),
            size: 100,
            created: SimTime::ZERO,
        },
        hops: 0,
    }
}

/// The reference `FifoBuffer`: a plain queue plus an ordered id set.
struct Model {
    queue: VecDeque<BufferedMessage>,
    ids: BTreeSet<MessageId>,
    capacity: Option<usize>,
}

impl Model {
    fn insert(&mut self, m: BufferedMessage) -> Option<BufferedMessage> {
        if self.ids.contains(&m.info.id) {
            return None;
        }
        if self.capacity == Some(0) {
            return Some(m);
        }
        let evicted = match self.capacity {
            Some(cap) if self.queue.len() >= cap => self.queue.pop_front(),
            _ => None,
        };
        if let Some(old) = &evicted {
            self.ids.remove(&old.info.id);
        }
        self.ids.insert(m.info.id);
        self.queue.push_back(m);
        evicted
    }

    fn remove(&mut self, id: MessageId) -> Option<BufferedMessage> {
        self.ids.remove(&id);
        let pos = self.queue.iter().position(|m| m.info.id == id)?;
        self.queue.remove(pos)
    }

    /// The `i`-th held id (mod the length), for duplicate inserts and
    /// removals that are certain to hit.
    fn held(&self, i: u32) -> Option<MessageId> {
        let n = self.queue.len();
        (n > 0).then(|| self.queue[i as usize % n].info.id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `FifoBuffer` agrees with the queue-plus-`BTreeSet` model after
    /// every insert, duplicate insert and removal: membership, length,
    /// stored copies, summary-vector order and the evicted message.
    #[test]
    fn buffer_matches_queue_and_set_model(
        cap_choice in 0usize..6,
        ops in prop::collection::vec((0u8..4, 0u32..3, 0u32..8, 0u32..5), 0..150),
    ) {
        // None, Some(0) and small limits.
        let capacity = cap_choice.checked_sub(1);
        let mut b = FifoBuffer::new(capacity);
        let mut model = Model { queue: VecDeque::new(), ids: BTreeSet::new(), capacity };
        for (step, &(kind, src, seq, hops)) in ops.iter().enumerate() {
            let fresh = BufferedMessage { hops, ..msg(src, seq) };
            match kind {
                0 => prop_assert_eq!(b.insert(fresh), model.insert(fresh), "insert, step {}", step),
                1 => {
                    // Re-insert a held id with different hops: ignored.
                    if let Some(id) = model.held(seq) {
                        let dup = BufferedMessage { hops: hops + 10, ..msg(id.src.0, id.seq) };
                        prop_assert_eq!(b.insert(dup), None, "duplicate, step {}", step);
                        prop_assert_eq!(model.insert(dup), None);
                    }
                }
                2 => {
                    let id = fresh.info.id;
                    prop_assert_eq!(b.remove(id), model.remove(id), "remove, step {}", step);
                }
                _ => {
                    if let Some(id) = model.held(seq) {
                        prop_assert_eq!(b.remove(id), model.remove(id), "remove held, step {}", step);
                    }
                }
            }
            prop_assert_eq!(b.len(), model.queue.len());
            prop_assert_eq!(
                b.summary_vector(),
                model.queue.iter().map(|m| m.info.id).collect::<Vec<_>>()
            );
            for src in 0..3 {
                for seq in 0..8 {
                    let id = msg(src, seq).info.id;
                    prop_assert_eq!(b.contains(id), model.ids.contains(&id));
                    prop_assert_eq!(b.get(id), model.queue.iter().find(|m| m.info.id == id));
                }
            }
        }
    }

    #[test]
    fn capacity_is_never_exceeded(cap in 0usize..30, inserts in prop::collection::vec((0u32..5, 0u32..40), 0..120)) {
        let mut b = FifoBuffer::new(Some(cap));
        for &(src, seq) in &inserts {
            b.insert(msg(src, seq));
            prop_assert!(b.len() <= cap);
        }
    }

    #[test]
    fn summary_vector_matches_membership(inserts in prop::collection::vec((0u32..4, 0u32..30), 0..60)) {
        let mut b = FifoBuffer::new(None);
        for &(src, seq) in &inserts {
            b.insert(msg(src, seq));
        }
        let sv = b.summary_vector();
        prop_assert_eq!(sv.len(), b.len());
        for id in &sv {
            prop_assert!(b.contains(*id));
        }
        // No duplicates in the summary vector.
        let set: std::collections::HashSet<_> = sv.iter().collect();
        prop_assert_eq!(set.len(), sv.len());
    }

    #[test]
    fn eviction_is_strictly_fifo(cap in 1usize..10, n in 0u32..40) {
        let mut b = FifoBuffer::new(Some(cap));
        let mut evicted = Vec::new();
        for seq in 0..n {
            if let Some(old) = b.insert(msg(0, seq)) {
                evicted.push(old.info.id.seq);
            }
        }
        // Evictions come out in insertion order: 0, 1, 2, ...
        for (i, &seq) in evicted.iter().enumerate() {
            prop_assert_eq!(seq as usize, i);
        }
        // The survivors are exactly the newest `min(n, cap)`.
        let sv = b.summary_vector();
        prop_assert_eq!(sv.len(), (n as usize).min(cap));
    }

    #[test]
    fn remove_then_reinsert_roundtrips(seqs in prop::collection::vec(0u32..20, 1..20)) {
        let mut b = FifoBuffer::new(None);
        for &s in &seqs {
            b.insert(msg(1, s));
        }
        let unique: std::collections::HashSet<_> = seqs.iter().collect();
        prop_assert_eq!(b.len(), unique.len());
        for &s in unique.iter() {
            let id = msg(1, *s).info.id;
            prop_assert!(b.remove(id).is_some());
            prop_assert!(!b.contains(id));
            prop_assert!(b.insert(msg(1, *s)).is_none());
            prop_assert!(b.contains(id));
        }
    }
}
