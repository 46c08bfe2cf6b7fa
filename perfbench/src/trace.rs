//! Outside-in layer tracing: wrappers that time every call the engine
//! makes into a protocol and into the radio medium, through the crates'
//! public `Protocol` and `Medium` seams. Nothing inside the engine is
//! touched; the engine's own share (event loop, queue, beacon path) is
//! what remains of a run's wall time once these are subtracted.

use glr_sim::{Ctx, Frame, Medium, MessageInfo, NodeId, PacketKind, Protocol, QueueFull};
use glr_sim::{SimConfig, SimTime, TxResolution, World};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The protocol hooks, in the order their metrics are reported.
pub const HOOKS: [&str; 6] = [
    "on_init",
    "on_message_created",
    "on_packet",
    "on_neighbor_appeared",
    "on_timer",
    "storage_used",
];
const INIT: usize = 0;
const CREATED: usize = 1;
const PACKET: usize = 2;
const APPEARED: usize = 3;
const TIMER: usize = 4;
const STORAGE: usize = 5;

/// Call count and accumulated time of one traced seam.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Time inside the calls, in nanoseconds (self time for protocol
    /// hooks: nested medium enqueues are subtracted).
    pub ns: u64,
}

impl Span {
    fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Accumulated time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// The live, per-run recorder shared by every wrapped protocol instance
/// and the wrapped medium of one simulation (single-threaded: a run
/// executes on one thread).
#[derive(Default)]
pub struct Recorder {
    hooks: [Cell<Span>; 6],
    enqueue: Cell<Span>,
    tx_complete: Cell<Span>,
    start_next: Cell<Span>,
    delivered: Cell<u64>,
    delivered_control: Cell<u64>,
    lost: Cell<u64>,
    retrying: Cell<u64>,
    queue_full: Cell<u64>,
    timer_ns: RefCell<Vec<u32>>,
    packet_ns: RefCell<Vec<u32>>,
}

fn bump(cell: &Cell<Span>, ns: u64) {
    let mut s = cell.get();
    s.calls += 1;
    s.ns += ns;
    cell.set(s);
}

fn incr(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl Recorder {
    /// Times one protocol hook, charging it its self time: the medium
    /// enqueues it triggers (through `Ctx::send`) are the medium's.
    fn hook<R>(&self, hook: usize, f: impl FnOnce() -> R) -> R {
        let nested_before = self.enqueue.get().ns;
        let t = Instant::now();
        let r = f();
        let total = t.elapsed().as_nanos() as u64;
        let nested = self.enqueue.get().ns - nested_before;
        let own = total.saturating_sub(nested);
        bump(&self.hooks[hook], own);
        let samples = match hook {
            TIMER => Some(&self.timer_ns),
            PACKET => Some(&self.packet_ns),
            _ => None,
        };
        if let Some(v) = samples {
            v.borrow_mut().push(own.min(u32::MAX as u64) as u32);
        }
        r
    }

    /// Freezes the recorder into plain, thread-movable totals.
    pub fn totals(&self) -> LayerTotals {
        LayerTotals {
            hooks: std::array::from_fn(|i| self.hooks[i].get()),
            enqueue: self.enqueue.get(),
            tx_complete: self.tx_complete.get(),
            start_next: self.start_next.get(),
            delivered: self.delivered.get(),
            delivered_control: self.delivered_control.get(),
            lost: self.lost.get(),
            retrying: self.retrying.get(),
            queue_full: self.queue_full.get(),
            timer_ns: self.timer_ns.borrow().clone(),
            packet_ns: self.packet_ns.borrow().clone(),
        }
    }
}

/// What one traced run (or a sum of traced runs) recorded.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// Per protocol hook, in [`HOOKS`] order.
    pub hooks: [Span; 6],
    /// `Medium::enqueue`.
    pub enqueue: Span,
    /// `Medium::tx_complete` (one per `TxComplete` engine event).
    pub tx_complete: Span,
    /// `Medium::start_next`.
    pub start_next: Span,
    /// `tx_complete` outcomes: frames handed to a receiver.
    pub delivered: u64,
    /// The control frames among `delivered` (the engine counts them into
    /// `RunStats::control_tx` next to beacons).
    pub delivered_control: u64,
    /// `tx_complete` outcomes: frames lost for good.
    pub lost: u64,
    /// `tx_complete` outcomes: ARQ retries.
    pub retrying: u64,
    /// `enqueue` refusals (transmit queue full).
    pub queue_full: u64,
    /// Self time of every `on_timer` call, in nanoseconds.
    pub timer_ns: Vec<u32>,
    /// Self time of every `on_packet` call, in nanoseconds.
    pub packet_ns: Vec<u32>,
}

impl LayerTotals {
    /// Adds another run's totals (sweep aggregation).
    pub fn add(&mut self, o: &LayerTotals) {
        for (a, b) in self.hooks.iter_mut().zip(o.hooks) {
            a.add(b);
        }
        self.enqueue.add(o.enqueue);
        self.tx_complete.add(o.tx_complete);
        self.start_next.add(o.start_next);
        self.delivered += o.delivered;
        self.delivered_control += o.delivered_control;
        self.lost += o.lost;
        self.retrying += o.retrying;
        self.queue_full += o.queue_full;
        self.timer_ns.extend_from_slice(&o.timer_ns);
        self.packet_ns.extend_from_slice(&o.packet_ns);
    }

    /// Scales every span's time by `factor` (the unit's steal-free over
    /// wall-clock run time); latency samples stay wall-clock.
    pub fn steal_free(mut self, factor: f64) -> Self {
        let f = if factor.is_finite() { factor } else { 1.0 };
        for s in self.hooks.iter_mut().chain([
            &mut self.enqueue,
            &mut self.tx_complete,
            &mut self.start_next,
        ]) {
            s.ns = (s.ns as f64 * f) as u64;
        }
        self
    }

    /// Self time of all protocol hooks, in seconds (includes the
    /// `Ctx::neighbors`/`local_view` reads the hooks make, which cannot
    /// be split off from outside).
    pub fn protocol_s(&self) -> f64 {
        self.hooks.iter().map(Span::secs).sum()
    }

    /// Time inside the medium, in seconds.
    pub fn medium_s(&self) -> f64 {
        self.enqueue.secs() + self.tx_complete.secs() + self.start_next.secs()
    }

    /// `Protocol::on_neighbor_appeared` calls: new radio contacts.
    pub fn contacts(&self) -> u64 {
        self.hooks[APPEARED].calls
    }

    /// `Protocol::on_timer` calls: timer events.
    pub fn timers(&self) -> u64 {
        self.hooks[TIMER].calls
    }

    /// `Protocol::on_message_created` calls: injection events.
    pub fn injects(&self) -> u64 {
        self.hooks[CREATED].calls
    }

    /// `Protocol::storage_used` calls (one per node per stats sample).
    pub fn storage_polls(&self) -> u64 {
        self.hooks[STORAGE].calls
    }
}

/// A protocol instance whose every hook is timed into a shared
/// [`Recorder`]; behaviour is the wrapped protocol's, unchanged.
pub struct Traced<P> {
    inner: P,
    rec: Rc<Recorder>,
}

impl<P: Protocol> Traced<P> {
    /// Wraps a protocol factory so every node's instance records into
    /// `rec`.
    pub fn factory(
        mut f: impl FnMut(NodeId, &SimConfig) -> P,
        rec: &Rc<Recorder>,
    ) -> impl FnMut(NodeId, &SimConfig) -> Traced<P> {
        let rec = rec.clone();
        move |id, cfg| Traced {
            inner: f(id, cfg),
            rec: rec.clone(),
        }
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Packet = P::Packet;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self::Packet>) {
        self.rec.hook(INIT, || self.inner.on_init(ctx))
    }

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        self.rec
            .hook(CREATED, || self.inner.on_message_created(ctx, info))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, from: NodeId, packet: Self::Packet) {
        self.rec
            .hook(PACKET, || self.inner.on_packet(ctx, from, packet))
    }

    fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, Self::Packet>, nbr: NodeId) {
        self.rec
            .hook(APPEARED, || self.inner.on_neighbor_appeared(ctx, nbr))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Packet>, token: u64) {
        self.rec.hook(TIMER, || self.inner.on_timer(ctx, token))
    }

    fn storage_used(&self) -> usize {
        self.rec.hook(STORAGE, || self.inner.storage_used())
    }
}

/// A medium whose every call is timed into a shared [`Recorder`], with
/// the outcome of each call counted.
pub struct TracedMedium<Pk> {
    inner: Box<dyn Medium<Pk>>,
    rec: Rc<Recorder>,
}

impl<Pk> TracedMedium<Pk> {
    /// Wraps a built medium (e.g. from `MediumKind::build`).
    pub fn new(inner: Box<dyn Medium<Pk>>, rec: &Rc<Recorder>) -> Self {
        TracedMedium {
            inner,
            rec: rec.clone(),
        }
    }
}

impl<Pk> Medium<Pk> for TracedMedium<Pk> {
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull> {
        let t = Instant::now();
        let r = self.inner.enqueue(world, from, frame);
        bump(&self.rec.enqueue, t.elapsed().as_nanos() as u64);
        if r.is_err() {
            incr(&self.rec.queue_full);
        }
        r
    }

    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
        let t = Instant::now();
        let r = self.inner.tx_complete(world, from);
        bump(&self.rec.tx_complete, t.elapsed().as_nanos() as u64);
        match &r {
            TxResolution::Delivered { kind, .. } => {
                incr(&self.rec.delivered);
                if *kind == PacketKind::Control {
                    incr(&self.rec.delivered_control);
                }
            }
            TxResolution::Lost => incr(&self.rec.lost),
            TxResolution::Retrying { .. } => incr(&self.rec.retrying),
        }
        r
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let t = Instant::now();
        let r = self.inner.start_next(world, from);
        bump(&self.rec.start_next, t.elapsed().as_nanos() as u64);
        r
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.inner.queue_len(node)
    }
}

/// A protocol that never sends: run on the same config, seed and medium
/// as a real run, its wall time is the beacon path alone (spatial index,
/// neighbour tables, event queue) — the "idle twin".
pub struct Idle;

impl Protocol for Idle {
    type Packet = ();

    fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}

    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}
