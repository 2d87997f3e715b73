//! The tracing wrappers forward every trait method, defaulted ones
//! included, and a wrapped trial equals an unwrapped one.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use pmcast_addr::{Address, AddressSpace, Prefix};
use pmcast_core::{
    DeliveryOutcome, FloodFactory, GenuineFactory, Gossip, InterestRouting, MulticastProtocol,
    PmcastConfig, PmcastFactory, ProtocolFactory,
};
use pmcast_interest::{Event, EventId, Filter};
use pmcast_membership::{MembershipView, SubtreeSummaries};
use pmcast_perfbench::sim::replay;
use pmcast_perfbench::trace::{CountingView, ProcessLayers, Traced, ViewCounters};
use pmcast_perfbench::{END_TO_END, PER_LAYER};
use pmcast_sim::runner::run_scenario_trial;
use pmcast_sim::scenario::{MembershipSpec, Scenario, TopicWorkload};
use pmcast_simnet::{Activity, ProcessId, RoundContext, RoundProcess};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A provider whose every answer differs from the trait default, and which
/// logs every call it receives.
#[derive(Debug, Default)]
struct ProbeView {
    calls: Mutex<Vec<String>>,
}

impl ProbeView {
    fn log(&self, call: impl Into<String>) {
        self.calls.lock().expect("probe log").push(call.into());
    }

    fn calls(&self) -> Vec<String> {
        self.calls.lock().expect("probe log").clone()
    }
}

impl MembershipView for ProbeView {
    fn estimated_size(&self) -> usize {
        self.log("estimated_size");
        41
    }
    fn peer_count(&self, of: usize) -> usize {
        self.log(format!("peer_count {of}"));
        42
    }
    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.log(format!("peer_at {of} {k}"));
        43
    }
    fn knows(&self, of: usize, peer: usize) -> bool {
        self.log(format!("knows {of} {peer}"));
        true
    }
    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        self.log(format!("knows_at_depth {of} {depth} {peer}"));
        false
    }
    fn is_global(&self) -> bool {
        self.log("is_global");
        true
    }
    fn round_elapsed(&self) {
        self.log("round_elapsed");
    }
    fn observe_join(&self, process: usize) {
        self.log(format!("observe_join {process}"));
    }
    fn observe_leave(&self, process: usize) {
        self.log(format!("observe_leave {process}"));
    }
    fn observe_crash(&self, process: usize) {
        self.log(format!("observe_crash {process}"));
    }
    fn attach_interest_summaries(&self, _summaries: SubtreeSummaries) {
        self.log("attach_interest_summaries");
    }
    fn summary_allows(&self, _subgroup: &Prefix, event: &Event) -> bool {
        self.log(format!("summary_allows {}", event.id()));
        false
    }
}

#[test]
fn counting_view_forwards_every_method() {
    let probe = Arc::new(ProbeView::default());
    let counters = Arc::new(ViewCounters::default());
    let view = CountingView::new(probe.clone(), Arc::clone(&counters));
    let event = Event::builder(5).build();
    let space = AddressSpace::regular(2, 2).expect("valid shape");

    assert_eq!(view.estimated_size(), 41);
    assert_eq!(view.peer_count(1), 42);
    assert_eq!(view.peer_at(1, 2), 43);
    assert!(view.knows(1, 2));
    assert!(!view.knows_at_depth(1, 2, 3));
    assert!(view.is_global());
    view.round_elapsed();
    view.observe_join(4);
    view.observe_leave(5);
    view.observe_crash(6);
    view.attach_interest_summaries(SubtreeSummaries::build(space, vec![Some(Filter::new()); 4]));
    assert!(!view.summary_allows(&Prefix::root(), &event));

    assert_eq!(
        probe.calls(),
        [
            "estimated_size",
            "peer_count 1",
            "peer_at 1 2",
            "knows 1 2",
            "knows_at_depth 1 2 3",
            "is_global",
            "round_elapsed",
            "observe_join 4",
            "observe_leave 5",
            "observe_crash 6",
            "attach_interest_summaries",
            &format!("summary_allows {}", event.id()),
        ]
    );
    assert_eq!(counters.knows_at_depth_calls(), 1);
    assert_eq!(counters.summary_allows_calls(), 1);
    assert_eq!(counters.summary_skip_calls(), 1);
    assert_eq!(counters.round_elapsed_calls(), 1);
}

/// A protocol instance whose every answer differs from the trait default,
/// and which logs every call it receives.
#[derive(Debug)]
struct ProbeProcess {
    address: Address,
    calls: Rc<RefCell<Vec<String>>>,
}

impl ProbeProcess {
    fn log(&self, call: impl Into<String>) {
        self.calls.borrow_mut().push(call.into());
    }
}

impl RoundProcess for ProbeProcess {
    type Message = Gossip;
    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        self.log(format!("on_round {}", ctx.round()));
    }
    fn on_message(
        &mut self,
        from: ProcessId,
        message: Gossip,
        _ctx: &mut RoundContext<'_, Gossip>,
    ) {
        self.log(format!("on_message {} {}", from.0, message.event.id()));
    }
    fn is_quiescent(&self) -> bool {
        self.log("is_quiescent");
        true
    }
    fn activity(&self) -> Activity {
        self.log("activity");
        Activity::SkipWhenQuiescent
    }
}

impl MulticastProtocol for ProbeProcess {
    fn publish(&mut self, event: Arc<Event>) {
        self.log(format!("publish {}", event.id()));
    }
    fn register_event(&mut self, event: &Event) {
        self.log(format!("register_event {}", event.id()));
    }
    fn has_delivered(&self, event: EventId) -> bool {
        self.log(format!("has_delivered {event}"));
        true
    }
    fn has_received(&self, event: EventId) -> bool {
        self.log(format!("has_received {event}"));
        true
    }
    fn address(&self) -> &Address {
        self.log("address");
        &self.address
    }
    fn retire_below(&mut self, floor: EventId) {
        self.log(format!("retire_below {floor}"));
    }
    fn dedup_len(&self) -> usize {
        self.log("dedup_len");
        7
    }
}

impl DeliveryOutcome for ProbeProcess {
    fn outcome_address(&self) -> &Address {
        self.log("outcome_address");
        &self.address
    }
    fn outcome_delivered(&self, event: EventId) -> bool {
        self.log(format!("outcome_delivered {event}"));
        true
    }
    fn outcome_received(&self, event: EventId) -> bool {
        self.log(format!("outcome_received {event}"));
        true
    }
}

#[test]
fn traced_process_forwards_every_method() {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let address: Address = "1.0".parse().expect("valid address");
    let layers = Rc::new(ProcessLayers::default());
    let mut process = Traced::new(
        ProbeProcess {
            address: address.clone(),
            calls: Rc::clone(&calls),
        },
        Rc::clone(&layers),
    );
    let event = Arc::new(Event::builder(9).build());
    let id = event.id();
    let mut outbox = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut ctx = RoundContext::external(ProcessId(0), 3, &mut outbox, &mut rng);

    process.on_round(&mut ctx);
    process.on_message(
        ProcessId(2),
        Gossip::new(Arc::clone(&event), 1, 0.5, 0),
        &mut ctx,
    );
    assert!(process.is_quiescent());
    assert_eq!(process.activity(), Activity::SkipWhenQuiescent);
    process.publish(Arc::clone(&event));
    process.register_event(&event);
    assert!(process.has_delivered(id));
    assert!(process.has_received(id));
    assert_eq!(MulticastProtocol::address(&process), &address);
    process.retire_below(id);
    assert_eq!(process.dedup_len(), 7);
    assert_eq!(process.outcome_address(), &address);
    assert!(process.outcome_delivered(id));
    assert!(process.outcome_received(id));

    assert_eq!(
        *calls.borrow(),
        [
            "on_round 3".to_string(),
            format!("on_message 2 {id}"),
            "is_quiescent".to_string(),
            "activity".to_string(),
            format!("publish {id}"),
            format!("register_event {id}"),
            format!("has_delivered {id}"),
            format!("has_received {id}"),
            "address".to_string(),
            format!("retire_below {id}"),
            "dedup_len".to_string(),
            "outcome_address".to_string(),
            format!("outcome_delivered {id}"),
            format!("outcome_received {id}"),
        ]
    );
    assert_eq!(layers.on_round.calls(), 1);
    assert_eq!(layers.on_message.calls(), 1);
    assert_eq!(layers.publish.calls(), 1);
    assert_eq!(layers.has_delivered.get(), 1);
}

fn assert_replay_matches<F: ProtocolFactory>(scenario: &Scenario, label: &str) {
    for trial in 0..2 {
        let layers = Rc::new(ProcessLayers::default());
        let counters = Arc::new(ViewCounters::default());
        let traced = replay::<F>(scenario, trial, &layers, &counters);
        let untraced = run_scenario_trial::<F>(scenario, trial);
        assert_eq!(traced.outcome, untraced, "{label}, trial {trial}");
        assert_eq!(
            traced.traffic.messages_sent, untraced.messages_sent,
            "{label}"
        );
        assert!(layers.on_round.calls() > 0, "{label}: on_round was timed");
    }
}

fn providers() -> [(&'static str, MembershipSpec); 4] {
    [
        ("global", MembershipSpec::Global),
        ("partial", MembershipSpec::partial(8)),
        ("delegate", MembershipSpec::delegate(3)),
        ("delegate_lazy", MembershipSpec::delegate_lazy(3)),
    ]
}

#[test]
fn wrapped_trials_equal_unwrapped_ones_for_every_provider() {
    for (name, membership) in providers() {
        let scenario = Scenario::builder()
            .group(4, 3)
            .loss(0.05)
            .crash_fraction(0.05)
            .leave_at(2, 7)
            .join_at(3, 7)
            .membership(membership)
            .seed(11)
            .build();
        assert_replay_matches::<PmcastFactory>(&scenario, &format!("pmcast/{name}"));
        assert_replay_matches::<FloodFactory>(&scenario, &format!("flood/{name}"));
        assert_replay_matches::<GenuineFactory>(&scenario, &format!("genuine/{name}"));
    }
}

#[test]
fn wrapped_topic_trials_equal_unwrapped_ones_for_every_routing_arm() {
    for routing in [
        InterestRouting::Oracle,
        InterestRouting::Summary,
        InterestRouting::Blind,
    ] {
        for (name, membership) in providers() {
            let scenario = Scenario::builder()
                .group(4, 2)
                .topics(TopicWorkload::new(6, 2, 40).with_publish_rounds(8))
                .membership(membership)
                .protocol(PmcastConfig::default().with_interest_routing(routing))
                .seed(5)
                .build();
            assert_replay_matches::<PmcastFactory>(&scenario, &format!("{routing:?}/{name}"));
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        bench.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not report"
    );
}
