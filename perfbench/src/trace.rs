//! The benchmark's tracing seams: wrappers around two public layer traits
//! that count (and, for the protocol, time) every call and forward it
//! unchanged.
//!
//! * [`CountingView`] wraps a [`MembershipView`] provider.  It counts
//!   `knows_at_depth` and `summary_allows` (and how many vetoes the latter
//!   returned) and times `round_elapsed`.
//! * [`Traced`] wraps a protocol instance — [`RoundProcess`],
//!   [`MulticastProtocol`] and [`DeliveryOutcome`] — and times `on_round`,
//!   `on_message` and `publish`, and counts `has_delivered` probes.
//!
//! Per-call boundaries are summed into a count plus a total time, never
//! recorded one span per call.  Both wrappers forward every trait method,
//! defaulted ones included: a missed `activity` would silently turn off the
//! engine's active-set scheduling, a missed `summary_allows` would turn off
//! summary routing.  `tests/wrappers.rs` pins the forwarding.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcast_addr::{Address, Prefix};
use pmcast_core::{DeliveryOutcome, Gossip, MulticastProtocol};
use pmcast_interest::{Event, EventId};
use pmcast_membership::{MembershipView, SubtreeSummaries};
use pmcast_simnet::{Activity, ProcessId, RoundContext, RoundProcess};

/// Total time and call count of one per-call boundary on one thread.
#[derive(Debug, Default)]
pub struct Span {
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    /// Runs `f`, adding its duration and one call to the span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.nanos
            .set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        value
    }

    /// Total time spent inside the span, in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Counters of a [`CountingView`]; atomics because providers are shared
/// across threads by contract (`MembershipView: Send + Sync`).
#[derive(Debug, Default)]
pub struct ViewCounters {
    /// `knows_at_depth` calls (the pmcast fanout draw's candidate filter).
    knows_at_depth: AtomicU64,
    /// `summary_allows` calls (the summary-routing veto).
    summary_allows: AtomicU64,
    /// `summary_allows` calls that returned `false` (a skipped subtree).
    summary_skips: AtomicU64,
    /// `round_elapsed` calls (per-round membership maintenance).
    round_elapsed: AtomicU64,
    /// Total time inside `round_elapsed`, in nanoseconds.
    round_elapsed_nanos: AtomicU64,
}

impl ViewCounters {
    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// `knows_at_depth` calls so far.
    pub fn knows_at_depth_calls(&self) -> u64 {
        Self::load(&self.knows_at_depth)
    }

    /// `summary_allows` calls so far.
    pub fn summary_allows_calls(&self) -> u64 {
        Self::load(&self.summary_allows)
    }

    /// `summary_allows` calls that vetoed a subtree.
    pub fn summary_skip_calls(&self) -> u64 {
        Self::load(&self.summary_skips)
    }

    /// `round_elapsed` calls so far.
    pub fn round_elapsed_calls(&self) -> u64 {
        Self::load(&self.round_elapsed)
    }

    /// Total time inside `round_elapsed`, in seconds.
    pub fn round_elapsed_seconds(&self) -> f64 {
        Self::load(&self.round_elapsed_nanos) as f64 * 1e-9
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A [`MembershipView`] that forwards every call to `inner` and counts the
/// calls the benchmark reports on.
#[derive(Debug)]
pub struct CountingView {
    inner: Arc<dyn MembershipView>,
    counters: Arc<ViewCounters>,
}

impl CountingView {
    /// Wraps a provider; the counters are shared with the caller.
    pub fn new(inner: Arc<dyn MembershipView>, counters: Arc<ViewCounters>) -> Self {
        Self { inner, counters }
    }
}

impl MembershipView for CountingView {
    fn estimated_size(&self) -> usize {
        self.inner.estimated_size()
    }

    fn peer_count(&self, of: usize) -> usize {
        self.inner.peer_count(of)
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.inner.peer_at(of, k)
    }

    fn knows(&self, of: usize, peer: usize) -> bool {
        self.inner.knows(of, peer)
    }

    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        bump(&self.counters.knows_at_depth);
        self.inner.knows_at_depth(of, depth, peer)
    }

    fn is_global(&self) -> bool {
        self.inner.is_global()
    }

    fn round_elapsed(&self) {
        let started = Instant::now();
        self.inner.round_elapsed();
        self.counters
            .round_elapsed_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        bump(&self.counters.round_elapsed);
    }

    fn observe_join(&self, process: usize) {
        self.inner.observe_join(process);
    }

    fn observe_leave(&self, process: usize) {
        self.inner.observe_leave(process);
    }

    fn observe_crash(&self, process: usize) {
        self.inner.observe_crash(process);
    }

    fn attach_interest_summaries(&self, summaries: SubtreeSummaries) {
        self.inner.attach_interest_summaries(summaries);
    }

    fn summary_allows(&self, subgroup: &Prefix, event: &Event) -> bool {
        bump(&self.counters.summary_allows);
        let allowed = self.inner.summary_allows(subgroup, event);
        if !allowed {
            bump(&self.counters.summary_skips);
        }
        allowed
    }
}

/// First deliveries observed by [`Traced`] processes, timed on the
/// running executor's clock (virtual time under the deterministic
/// executor), so it may only be used inside `LocalExecutor::run`.
#[derive(Debug, Default)]
pub struct DeliveryLog {
    published: HashMap<EventId, Duration>,
    latencies: Vec<Duration>,
}

impl DeliveryLog {
    /// Time from each event's first publication to each first delivery.
    pub fn latencies(&self) -> &[Duration] {
        &self.latencies
    }

    fn published(&mut self, event: EventId) {
        let now = smol::now();
        self.published.entry(event).or_insert(now);
    }

    fn delivered(&mut self, event: EventId) {
        let now = smol::now();
        let origin = *self
            .published
            .get(&event)
            .expect("an event is delivered only after it was published");
        self.latencies.push(now.saturating_sub(origin));
    }
}

/// Per-call spans shared by every [`Traced`] process of one run.
#[derive(Debug, Default)]
pub struct ProcessLayers {
    /// `RoundProcess::on_round` (the gossip round: fanout draw, veto, sends).
    pub on_round: Span,
    /// `RoundProcess::on_message` (receipt, dedup, delivery, buffering).
    pub on_message: Span,
    /// `MulticastProtocol::publish`.
    pub publish: Span,
    /// `MulticastProtocol::has_delivered` probes (the runner's latency
    /// tracker).
    pub has_delivered: Cell<u64>,
    /// When set, first deliveries are logged with their latency.
    pub deliveries: Option<RefCell<DeliveryLog>>,
}

impl ProcessLayers {
    /// Spans that also log first deliveries.
    pub fn logging_deliveries() -> Self {
        Self {
            deliveries: Some(RefCell::new(DeliveryLog::default())),
            ..Self::default()
        }
    }
}

/// A protocol instance that forwards every call to `inner`, timing the
/// callbacks into the protocol layer.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    layers: Rc<ProcessLayers>,
}

impl<P> Traced<P> {
    /// Wraps one protocol instance.
    pub fn new(inner: P, layers: Rc<ProcessLayers>) -> Self {
        Self { inner, layers }
    }
}

impl<P: MulticastProtocol> Traced<P> {
    /// Runs a callback that may deliver `event`, logging a first delivery.
    fn logging<T>(&mut self, event: EventId, f: impl FnOnce(&mut P) -> T) -> T {
        let Some(log) = self.layers.deliveries.as_ref() else {
            return f(&mut self.inner);
        };
        let before = self.inner.has_delivered(event);
        let value = f(&mut self.inner);
        if !before && self.inner.has_delivered(event) {
            log.borrow_mut().delivered(event);
        }
        value
    }
}

impl<P: MulticastProtocol> RoundProcess for Traced<P> {
    type Message = Gossip;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        let layers = Rc::clone(&self.layers);
        layers.on_round.time(|| self.inner.on_round(ctx));
    }

    fn on_message(&mut self, from: ProcessId, message: Gossip, ctx: &mut RoundContext<'_, Gossip>) {
        let layers = Rc::clone(&self.layers);
        let event = message.event.id();
        layers
            .on_message
            .time(|| self.logging(event, |inner| inner.on_message(from, message, ctx)));
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn activity(&self) -> Activity {
        self.inner.activity()
    }
}

impl<P: MulticastProtocol> MulticastProtocol for Traced<P> {
    fn publish(&mut self, event: Arc<Event>) {
        let layers = Rc::clone(&self.layers);
        let id = event.id();
        if let Some(log) = layers.deliveries.as_ref() {
            log.borrow_mut().published(id);
        }
        layers
            .publish
            .time(|| self.logging(id, |inner| inner.publish(event)));
    }

    fn register_event(&mut self, event: &Event) {
        self.inner.register_event(event);
    }

    fn has_delivered(&self, event: EventId) -> bool {
        self.layers
            .has_delivered
            .set(self.layers.has_delivered.get() + 1);
        self.inner.has_delivered(event)
    }

    fn has_received(&self, event: EventId) -> bool {
        self.inner.has_received(event)
    }

    fn address(&self) -> &Address {
        self.inner.address()
    }

    fn retire_below(&mut self, floor: EventId) {
        self.inner.retire_below(floor);
    }

    fn dedup_len(&self) -> usize {
        self.inner.dedup_len()
    }
}

impl<P: DeliveryOutcome> DeliveryOutcome for Traced<P> {
    fn outcome_address(&self) -> &Address {
        self.inner.outcome_address()
    }

    fn outcome_delivered(&self, event: EventId) -> bool {
        self.inner.outcome_delivered(event)
    }

    fn outcome_received(&self, event: EventId) -> bool {
        self.inner.outcome_received(event)
    }
}
