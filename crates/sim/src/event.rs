//! The discrete events of a run. The engine keeps them in a
//! deterministic time-then-FIFO
//! [`TimedQueue<EventKind>`](crate::queue::TimedQueue).
//!
//! Events at equal timestamps pop in scheduling order (the queue's
//! monotone sequence number breaks ties), which is what makes a run a
//! pure function of its inputs: no ordering is ever left to the heap's
//! whim. [`drain_due`](crate::queue::TimedQueue::drain_due) hands the
//! engine everything due at one timestamp as a batch, the unit of its
//! batched-delivery loop.

use crate::ids::NodeId;

/// Everything that can happen in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Node broadcasts its IMEP-style neighbour-sensing beacon.
    Beacon(NodeId),
    /// The frame in flight at this node's radio finishes transmitting.
    TxComplete(NodeId),
    /// A protocol timer set through `Ctx::set_timer` fires.
    Timer(NodeId, u64),
    /// The workload injects message `i`.
    Inject(u32),
    /// Periodic storage-occupancy sampling.
    StatsSample,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TimedQueue;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = TimedQueue::<EventKind>::new();
        q.schedule(SimTime::from_secs(2.0), EventKind::StatsSample);
        q.schedule(SimTime::from_secs(1.0), EventKind::Beacon(NodeId(1)));
        q.schedule(SimTime::from_secs(1.0), EventKind::Beacon(NodeId(2)));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.pop().unwrap().1, EventKind::Beacon(NodeId(1)));
        assert_eq!(q.pop().unwrap().1, EventKind::Beacon(NodeId(2)));
        assert_eq!(q.pop().unwrap().1, EventKind::StatsSample);
        assert!(q.pop().is_none());
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn drain_due_batches_one_timestamp() {
        let mut q = TimedQueue::<EventKind>::new();
        let t = SimTime::from_secs(1.0);
        q.schedule(t, EventKind::Beacon(NodeId(1)));
        q.schedule(SimTime::from_secs(2.0), EventKind::StatsSample);
        q.schedule(t, EventKind::TxComplete(NodeId(3)));
        let mut batch = Vec::new();
        q.drain_due(t, &mut batch);
        assert_eq!(
            batch,
            vec![
                EventKind::Beacon(NodeId(1)),
                EventKind::TxComplete(NodeId(3))
            ]
        );
        assert_eq!(q.next_at(), Some(SimTime::from_secs(2.0)));
    }
}
