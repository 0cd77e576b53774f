//! One table drives every `Communicator` call — the twelve data
//! primitives, both charges and phase push/pop, plus their error shapes —
//! through every decorator of the workspace. A decorator that overrides
//! nothing, `TracingComm`, a default-plan `FaultComm` and `ThreadedComm`
//! must return what a bare `Clique` returns and charge the same ledger;
//! `BroadcastComm::measured` must return the same results and errors and
//! charge each call what its documented cost table says.

use cc_model::{
    BroadcastComm, Clique, Communicator, Decorator, FaultComm, FaultPlan, NodeId, RouteBatch,
    ThreadedComm, TracingComm, Words,
};

const N: usize = 5;

/// Wraps a communicator and overrides nothing: the seam's defaults alone.
struct Plain<C>(C);

impl<C: Communicator> Decorator for Plain<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.0
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.0
    }
}

/// Send loads 3, 0, 1, 3, 1 (node 4 also messages itself): every load is
/// within the `1·n` routing budget.
fn outboxes() -> Vec<Vec<(NodeId, Words)>> {
    vec![
        vec![(1, vec![1, 2]), (2, vec![3])],
        vec![],
        vec![(0, vec![9])],
        vec![(4, vec![4, 5, 6])],
        vec![(4, vec![7])],
    ]
}

fn rows() -> Vec<Words> {
    vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6], vec![]]
}

fn batch(messages: &[(NodeId, NodeId, &[u64])]) -> RouteBatch {
    let mut batch = RouteBatch::new();
    for &(src, dst, words) in messages {
        batch.push(src, dst, words.iter().copied());
    }
    batch
}

/// One `Communicator` call with its arguments.
enum Call {
    PushPhase,
    PopPhase,
    Exchange(Vec<Vec<(NodeId, Words)>>),
    Route(Vec<Vec<(NodeId, Words)>>),
    RouteStrict(Vec<Vec<(NodeId, Words)>>),
    RouteBatch(RouteBatch),
    BroadcastAll(Vec<u64>),
    BroadcastAllInto(Vec<u64>),
    BroadcastAllWords(Vec<Words>),
    BroadcastFrom(NodeId, Words),
    Allgather(Vec<Words>),
    Sort(Vec<Words>),
    GatherTo(NodeId, Vec<Words>),
    ChargeOracle(u64),
    ChargeImplemented(u64),
}

impl Call {
    /// Makes the call on `comm`; returns its outcome, printed.
    fn run(&self, comm: &mut dyn Communicator) -> String {
        match self {
            Call::PushPhase => format!("{:?}", comm.push_phase("seam")),
            Call::PopPhase => format!("{:?}", comm.pop_phase()),
            Call::Exchange(o) => format!("{:?}", comm.exchange(o.clone())),
            Call::Route(o) => format!("{:?}", comm.route(o.clone())),
            Call::RouteStrict(o) => format!("{:?}", comm.route_strict(o.clone())),
            Call::RouteBatch(b) => format!("{:?}", comm.route_batch(b)),
            Call::BroadcastAll(v) => format!("{:?}", comm.broadcast_all(v)),
            Call::BroadcastAllInto(v) => {
                let mut out = vec![99; 7];
                let result = comm.broadcast_all_into(v, &mut out);
                format!("{result:?} {out:?}")
            }
            Call::BroadcastAllWords(r) => format!("{:?}", comm.broadcast_all_words(r)),
            Call::BroadcastFrom(src, w) => format!("{:?}", comm.broadcast_from(*src, w)),
            Call::Allgather(r) => format!("{:?}", comm.allgather(r)),
            Call::Sort(r) => format!("{:?}", comm.sort(r)),
            Call::GatherTo(dst, r) => format!("{:?}", comm.gather_to(*dst, r)),
            Call::ChargeOracle(k) => format!("{:?}", comm.charge_oracle(*k)),
            Call::ChargeImplemented(k) => format!("{:?}", comm.charge_implemented(*k)),
        }
    }
}

/// `(label, call, rounds BroadcastComm::measured charges)`. The last
/// column follows the cost table of `cc_model::broadcast`: unicast-shaped
/// calls cost the maximum per-node send load, `broadcast_from` costs
/// `w`, and the vector primitives cost the longest vector. A label with
/// a `/` names an error case, unless it ends in `empty`.
fn table() -> Vec<(&'static str, Call, u64)> {
    let bad_dst = vec![vec![], vec![(7, vec![1])], vec![], vec![], vec![]];
    let mut over_budget = vec![Vec::new(); N];
    over_budget[0].push((1, (0..6).collect()));
    let routed = batch(&[(0, 1, &[1, 2]), (3, 4, &[5]), (0, 2, &[6]), (3, 0, &[])]);
    vec![
        ("push_phase", Call::PushPhase, 0),
        ("exchange", Call::Exchange(outboxes()), 3),
        (
            "exchange/wrong count",
            Call::Exchange(vec![Vec::new(); N - 1]),
            0,
        ),
        ("exchange/bad node", Call::Exchange(bad_dst.clone()), 0),
        ("route", Call::Route(outboxes()), 3),
        ("route/empty", Call::Route(vec![Vec::new(); N]), 0),
        ("route/wrong count", Call::Route(vec![Vec::new(); N + 1]), 0),
        ("route/bad node", Call::Route(bad_dst), 0),
        ("route_strict", Call::RouteStrict(outboxes()), 3),
        (
            "route_strict/over budget",
            Call::RouteStrict(over_budget),
            0,
        ),
        ("route_batch", Call::RouteBatch(routed), 3),
        ("route_batch/empty", Call::RouteBatch(RouteBatch::new()), 0),
        (
            "route_batch/bad source",
            Call::RouteBatch(batch(&[(0, 1, &[1]), (6, 0, &[2])])),
            0,
        ),
        (
            "route_batch/bad destination",
            Call::RouteBatch(batch(&[(1, 9, &[1])])),
            0,
        ),
        ("broadcast_all", Call::BroadcastAll(vec![5, 4, 3, 2, 1]), 1),
        (
            "broadcast_all/wrong count",
            Call::BroadcastAll(vec![1, 2]),
            0,
        ),
        (
            "broadcast_all_into",
            Call::BroadcastAllInto(vec![1, 2, 3, 4, 5]),
            1,
        ),
        (
            "broadcast_all_into/wrong count",
            Call::BroadcastAllInto(vec![1]),
            0,
        ),
        ("broadcast_all_words", Call::BroadcastAllWords(rows()), 3),
        (
            "broadcast_all_words/wrong count",
            Call::BroadcastAllWords(rows()[1..].to_vec()),
            0,
        ),
        (
            "broadcast_from",
            Call::BroadcastFrom(1, (0..8).collect()),
            8,
        ),
        (
            "broadcast_from/bad node",
            Call::BroadcastFrom(9, vec![1]),
            0,
        ),
        ("allgather", Call::Allgather(rows()), 3),
        ("allgather/wrong count", Call::Allgather(vec![vec![1]]), 0),
        ("sort", Call::Sort(rows()), 3),
        ("sort/all empty", Call::Sort(vec![Vec::new(); N]), 0),
        ("sort/wrong count", Call::Sort(rows()[..2].to_vec()), 0),
        ("gather_to", Call::GatherTo(2, rows()), 3),
        ("gather_to/bad node", Call::GatherTo(9, rows()), 0),
        (
            "gather_to/wrong count",
            Call::GatherTo(0, rows()[1..].to_vec()),
            0,
        ),
        ("charge_oracle", Call::ChargeOracle(3), 3),
        ("charge_implemented", Call::ChargeImplemented(2), 2),
        ("pop_phase", Call::PopPhase, 0),
        ("top-level route", Call::Route(outboxes()), 3),
    ]
}

/// Runs the table; returns each call's outcome and the rounds it charged.
fn run(comm: &mut dyn Communicator) -> Vec<(&'static str, String, u64)> {
    table()
        .into_iter()
        .map(|(label, call, _)| {
            let before = comm.ledger().total_rounds();
            let outcome = call.run(comm);
            (label, outcome, comm.ledger().total_rounds() - before)
        })
        .collect()
}

#[test]
fn the_table_covers_the_error_shapes() {
    let outcomes = run(&mut Clique::new(N));
    let errors: Vec<&str> = (outcomes.iter())
        .filter(|(_, outcome, _)| outcome.starts_with("Err"))
        .map(|&(label, _, _)| label)
        .collect();
    assert_eq!(errors.len(), 15, "{errors:?}");
    for (label, outcome, _) in &outcomes {
        assert_eq!(
            label.contains('/') && !label.ends_with("empty"),
            outcome.starts_with("Err"),
            "{label}: {outcome}"
        );
    }
}

#[test]
fn unicast_decorators_match_a_bare_clique() {
    let mut bare = Clique::new(N);
    let want = run(&mut bare);
    let check = |name: &str, comm: &mut dyn Communicator| {
        let got = run(comm);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w, g, "{name}");
        }
        assert_eq!(comm.ledger().phases(), bare.ledger().phases(), "{name}");
        assert_eq!(comm.ledger().report(), bare.ledger().report(), "{name}");
        assert_eq!(comm.faults_observed(), 0, "{name}");
        assert_eq!(comm.ledger().current_phase(), "", "{name}");
    };
    check("plain", &mut Plain(Clique::new(N)));
    check("plain over plain", &mut Plain(Plain(Clique::new(N))));
    let mut traced = TracingComm::new(Clique::new(N));
    check("tracing", &mut traced);
    // Every call leaves one event, the phase calls included, except the
    // batch whose out-of-range source is rejected before it is traced.
    assert_eq!(traced.events().len(), table().len() - 1);
    check(
        "fault",
        &mut FaultComm::new(Clique::new(N), FaultPlan::default()),
    );
    check("threaded", &mut ThreadedComm::with_workers(N, 2));
    check(
        "tracing over fault over threaded",
        &mut TracingComm::new(FaultComm::new(
            ThreadedComm::with_workers(N, 2),
            FaultPlan::default(),
        )),
    );
}

#[test]
fn measured_broadcast_follows_its_cost_table() {
    let want = run(&mut Clique::new(N));
    let mut comm = BroadcastComm::measured(Clique::new(N));
    let got = run(&mut comm);
    let costs: Vec<u64> = table().into_iter().map(|(_, _, cost)| cost).collect();
    for (((label, outcome, _), (_, got_outcome, rounds)), cost) in want.iter().zip(&got).zip(&costs)
    {
        assert_eq!(outcome, got_outcome, "{label}");
        assert_eq!(rounds, cost, "{label}");
    }
    let total: u64 = costs.iter().sum();
    assert_eq!(comm.ledger().total_rounds(), total);
    assert_eq!(comm.ledger().charged_rounds(), 3);
}
