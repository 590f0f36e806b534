//! `dht-zipf`: `RobustDht` serving W1's mix — Zipf 1.1 over 4096 keys,
//! 70% reads beside 30% writes, batches of 256 — under the W-series
//! `churn+dos` campaign. Routing in `apps::dht` and the adversary do the
//! work; the simulation engine does none.
//!
//! The benchmark drives `serve_batch`/`step` itself (as the workload
//! engine's W1 loop does, without its Algorithm 2 control plane) so that
//! it can read every written key back at the end.
//!
//! One operation is one DHT request: each batched read or write, and each
//! final read-back. A batched request fails when it does not complete; a
//! read-back fails when it returns anything but the last value the
//! benchmark wrote to that key.

use crate::meter::{timed, Clock};
use crate::Rep;
use overlay_adversary::adaptive::Attacker;
use overlay_adversary::lateness::TopologySnapshot;
use overlay_adversary::Campaign;
use overlay_apps::dht::{DhtOp, RobustDht, MESSAGE_BITS};
use overlay_workload::Zipf;
use rand::RngExt;
use simnet::{BlockSet, NodeId};
use std::collections::{BTreeMap, BTreeSet};

const N: usize = 512;
const KEYS: u64 = 4096;
const SKEW: f64 = 1.1;
const READ_FRACTION: f64 = 0.7;
const BATCH: usize = 256;
/// Fixed: the campaign's churn half grows its population every call, so
/// its cost per batch rises with the batch count (see README).
const BATCHES: u64 = 96;
const BOUND: f64 = 0.02;
const LATENESS: u64 = 2;

pub fn rep(seed: u64, clock: &mut Clock) -> Rep {
    let ((mut dht, mut attacker), setup_s) = timed(|| {
        let dht = RobustDht::new(N, 2.0, seed ^ 0xD47_0000);
        let attacker = Campaign::preset("churn+dos", BOUND, LATENESS, seed)
            .expect("churn+dos is a built-in preset");
        (dht, attacker)
    });
    let zipf = Zipf::new(KEYS, SKEW);
    let mut gen = simnet::rng::stream(seed, 1, 0x574B_4C31);
    let mut rep = Rep { setup_s, ..Rep::default() };

    // The benchmark's own record of the last value written to each key.
    let mut latest: BTreeMap<u64, u64> = BTreeMap::new();
    let mut unverifiable: BTreeSet<u64> = BTreeSet::new();
    let (mut round, mut congestion, mut blocked_total) = (0u64, 0u64, 0usize);

    for _ in 0..BATCHES {
        let (ops, blocked, m) = clock.segment(|c| {
            let snap = snapshot(round, &dht);
            let blocked = c.span("adversary.campaign_block_s", || {
                attacker.observe(snap);
                attacker.block(round, N)
            });
            let ops = c.span("workload.zipf_gen_s", || generate(&zipf, &mut gen));
            let m = c.span("dht.serve_batch_s", || dht.serve_batch(&ops, &blocked));
            c.span("dht.step_s", || {
                for _ in 0..m.rounds {
                    dht.step(&blocked);
                }
            });
            (ops, blocked, m)
        });
        round += m.rounds;
        congestion = congestion.max(m.congestion);
        blocked_total += blocked.len();
        rep.attempted += ops.len() as u64;
        let lost = (ops.len() - m.completed) as u64;
        rep.failed += lost;
        if blocked.len() > (BOUND * N as f64).floor() as usize {
            rep.problems.push(format!("campaign blocked {} of {N}", blocked.len()));
        }
        for op in &ops {
            if let DhtOp::Write { key, value } = *op {
                latest.insert(key, value);
                // A batch that lost requests leaves its writes unknown.
                if lost > 0 {
                    unverifiable.insert(key);
                }
            }
        }
    }

    // Read every written key back with nothing blocked.
    let keys: Vec<u64> = latest.keys().copied().filter(|k| !unverifiable.contains(k)).collect();
    let none = BlockSet::none();
    let reads = clock.segment(|c| {
        c.span("dht.read_s", || keys.iter().map(|&k| dht.read(k, &none)).collect::<Vec<_>>())
    });
    rep.attempted += keys.len() as u64;
    for (key, got) in keys.iter().zip(reads) {
        if got != Ok(latest[key]) {
            rep.failed += 1;
        }
    }

    let done = rep.attempted - rep.failed;
    rep.node_rounds = (N as u64 * round) as f64;
    rep.modeled.insert("epoch_rounds", round as f64 / BATCHES as f64);
    rep.modeled
        .insert("model.bits_per_op", (dht.messages_total * MESSAGE_BITS) as f64 / done as f64);
    rep.counts.insert("dht.messages", dht.messages_total as f64);
    rep.counts.insert("dht.rounds", round as f64);
    rep.counts.insert("dht.max_congestion", congestion as f64);
    rep.counts.insert("adversary.blocked", blocked_total as f64);
    rep
}

/// The DHT's current topology as the campaign sees it.
fn snapshot(round: u64, dht: &RobustDht) -> TopologySnapshot {
    TopologySnapshot {
        round,
        nodes: (0..dht.len() as u64).map(NodeId).collect(),
        edges: Vec::new(),
        groups: dht.groups().groups().to_vec(),
        group_edges: Vec::new(),
    }
}

fn generate(zipf: &Zipf, gen: &mut simnet::rng::NodeRng) -> Vec<DhtOp> {
    (0..BATCH)
        .map(|_| {
            let key = zipf.sample(gen);
            if gen.random_bool(READ_FRACTION) {
                DhtOp::Read { key }
            } else {
                DhtOp::Write { key, value: gen.random::<u64>() }
            }
        })
        .collect()
}
