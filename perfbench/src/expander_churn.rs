//! `expander-churn`: `ExpanderOverlay` under a Random `ChurnSchedule`
//! (r = 1.5, intensity 0.5) for a fixed number of epochs. Each epoch
//! rewrites the topology: `reconfigure()` samples with
//! `run_alg1_direct` and runs the bridging protocol on the engine.
//!
//! One operation is one epoch. Checks, every epoch: the membership equals
//! the previous members minus the event's leaves plus its joins; each of
//! the `d/2` cycles is one Hamilton cycle over exactly that set; and a
//! breadth-first search over the cycles' edges reaches every member.

use crate::meter::{timed, Clock};
use crate::Rep;
use overlay_adversary::churn::{ChurnEvent, ChurnSchedule, ChurnStrategy};
use overlay_graphs::HGraph;
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_direct;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const N: usize = 1024;
const D: usize = 8;
const EPOCHS: u64 = 4;
const RATE: f64 = 1.5;
const INTENSITY: f64 = 0.5;

pub fn rep(seed: u64, clock: &mut Clock) -> Rep {
    let params = SamplingParams::default();
    let overlay_seed = seed ^ 0xE7C4_0000;
    let (mut ov, setup_s) = timed(|| ExpanderOverlay::new(N, D, params, overlay_seed));
    let mut schedule = ChurnSchedule::new(ChurnStrategy::Random, RATE, INTENSITY, N as u64);
    let mut rng = simnet::rng::stream(seed, 0, 0xC4A7);
    let mut rep = Rep { setup_s, attempted: EPOCHS, ..Rep::default() };
    let (mut rounds, mut joins, mut leaves) = (0u64, 0usize, 0usize);

    for epoch in 1..=EPOCHS {
        let before: BTreeSet<NodeId> = ov.members().iter().copied().collect();
        if clock.tracing() {
            // Estimate of the sampling share inside `reconfigure`: one
            // replay of the sampler on this epoch's input graph, timed
            // outside the timed phase.
            let epoch_seed = overlay_seed.wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (_, secs) = timed(|| run_alg1_direct(ov.graph(), &params, epoch_seed));
            clock.add_nested("sampling.run_alg1_direct_s", secs);
        }
        let (event, metrics, connected) = clock.segment(|c| {
            let event = c.span("adversary.churn_next_s", || schedule.next(ov.members(), &mut rng));
            c.span("reconfig.apply_churn_s", || ov.apply_churn(&event));
            let metrics = c.span("reconfig.reconfigure_s", || ov.reconfigure());
            let connected = c.span("graphs.is_connected_s", || ov.is_connected());
            (event, metrics, connected)
        });
        rounds += metrics.rounds;
        joins += event.joins.len();
        leaves += event.leaves.len();
        rep.node_rounds += (ov.members().len() as u64 * metrics.rounds) as f64;
        if !(metrics.valid && connected && epoch_ok(&before, &event, ov.graph())) {
            rep.failed += 1;
        }
    }

    rep.modeled.insert("epoch_rounds", rounds as f64 / EPOCHS as f64);
    rep.counts.insert("reconfig.joins", joins as f64);
    rep.counts.insert("reconfig.leaves", leaves as f64);
    rep.counts.insert("reconfig.members", ov.members().len() as f64);
    rep
}

/// The benchmark's own check of one epoch's result.
fn epoch_ok(before: &BTreeSet<NodeId>, event: &ChurnEvent, graph: &HGraph) -> bool {
    let mut expected = before.clone();
    for v in &event.leaves {
        expected.remove(v);
    }
    for j in &event.joins {
        if !expected.insert(j.new_node) {
            return false;
        }
    }
    let members: BTreeSet<NodeId> = graph.nodes().iter().copied().collect();
    if members != expected || graph.nodes().len() != expected.len() {
        return false;
    }
    let cycles = graph.cycles();
    if cycles.len() != D / 2 {
        return false;
    }
    // Each cycle visits every member exactly once.
    for cycle in cycles {
        let order = cycle.order();
        let visited: BTreeSet<NodeId> = order.iter().copied().collect();
        if order.len() != expected.len() || visited != expected {
            return false;
        }
    }
    // Breadth-first search over the union of the cycles' edges.
    let index: BTreeMap<NodeId, usize> =
        expected.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); expected.len()];
    for cycle in cycles {
        let order = cycle.order();
        for (k, v) in order.iter().enumerate() {
            let (a, b) = (index[v], index[&order[(k + 1) % order.len()]]);
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    let mut seen = vec![false; expected.len()];
    let mut queue = VecDeque::from([0usize]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for &w in &adj[u] {
            if !seen[w] {
                seen[w] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    reached == expected.len()
}
