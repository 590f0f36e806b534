//! `alg1-msg`: Algorithm 1 at message level (`run_alg1`) on a random
//! 8-regular H-graph. The engine (route/deliver/compute/send) and
//! `Alg1Node` do nearly all the work.
//!
//! One operation is one node's sample set. Checks: the run takes `2T+1`
//! rounds with `T` from the paper's walk-length formula, every node holds
//! at least `ceil(beta log2 n)` samples drawn from the membership, and the
//! pooled samples are close to uniform (total-variation distance within a
//! small multiple of what an exactly uniform multinomial would show).

use crate::meter::{timed, Clock};
use crate::Rep;
use overlay_graphs::HGraph;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1, run_alg1_observed};
use simnet::NodeId;
use telemetry::{Phase, Telemetry};

const N: usize = 2048;
const D: usize = 8;
/// Allowed pooled TV distance, as a multiple of the uniform expectation.
const TV_SLACK: f64 = 1.25;

pub fn rep(seed: u64, clock: &mut Clock) -> Rep {
    let params = SamplingParams::default();
    let nodes: Vec<NodeId> = (0..N as u64).map(NodeId).collect();
    let mut rng = simnet::rng::stream(seed, 0, 0xA161);
    let (graph, setup_s) = timed(|| HGraph::random(&nodes, D, &mut rng));
    if clock.tracing() {
        clock.add_nested("graphs.hgraph_random_s", setup_s);
    }
    let run_seed = seed ^ 0x5A3B_1E00;

    let (samples, metrics) = clock.segment(|c| {
        if !c.tracing() {
            return run_alg1(&graph, &params, run_seed);
        }
        let tel = Telemetry::new(telemetry::Config { timing: true, ..Default::default() });
        let out =
            c.span("sampling.run_alg1_s", || run_alg1_observed(&graph, &params, run_seed, &tel));
        let profile = tel.profile();
        let mut phases = 0.0;
        for (name, phase) in [
            ("engine.deliver_s", Phase::Deliver),
            ("engine.compute_s", Phase::Compute),
            ("engine.send_s", Phase::Send),
        ] {
            let secs = profile.stat(phase).wall_ns as f64 * 1e-9;
            phases += secs;
            c.add_nested(name, secs);
        }
        let total = c.spans["sampling.run_alg1_s"];
        c.add_nested("engine.other_s", total - phases);
        out
    });

    let mut rep = Rep { setup_s, attempted: N as u64, ..Rep::default() };

    // Rounds: 2T+1 with T = ceil(log2 t), t = ceil(2 alpha log_{d/4} n).
    let walk = (2.0 * params.alpha * (N as f64).ln() / (D as f64 / 4.0).ln()).ceil().max(2.0);
    let expected_rounds = 2 * walk.log2().ceil() as u64 + 1;
    if metrics.rounds != expected_rounds {
        rep.problems
            .push(format!("alg1 took {} rounds, expected {expected_rounds}", metrics.rounds));
    }

    // Per node: enough samples, all of them members.
    let need = (params.beta * (N as f64).log2()).ceil() as usize;
    let mut pooled = vec![0u64; N];
    let mut total = 0u64;
    for (_, s) in &samples {
        let members = s.iter().all(|v| (v.raw() as usize) < N);
        if s.len() < need || !members {
            rep.failed += 1;
            continue;
        }
        for v in s {
            pooled[v.raw() as usize] += 1;
        }
        total += s.len() as u64;
    }
    if samples.len() != N {
        rep.problems.push(format!("{} sample sets for {N} nodes", samples.len()));
    }

    // Pooled total-variation distance against the uniform distribution.
    // For an exactly uniform multinomial with `total` draws over N cells,
    // E|X_i - mu| ~ sqrt(2 total p (1-p) / pi), so E[TV] is N/(2 total)
    // times that.
    let p = 1.0 / N as f64;
    let mu = total as f64 * p;
    let tv: f64 = pooled.iter().map(|&c| (c as f64 - mu).abs()).sum::<f64>() / (2.0 * total as f64);
    let expected_tv = N as f64 / (2.0 * total as f64)
        * (2.0 * total as f64 * p * (1.0 - p) / std::f64::consts::PI).sqrt();
    eprintln!("alg1-msg: pooled TV {tv:.5} = {:.3} x uniform expectation", tv / expected_tv);
    if tv > TV_SLACK * expected_tv {
        rep.problems.push(format!(
            "pooled TV {tv:.5} exceeds {TV_SLACK} x uniform expectation {expected_tv:.5}"
        ));
    }

    rep.node_rounds = (N as u64 * metrics.rounds) as f64;
    rep.modeled.insert("epoch_rounds", metrics.rounds as f64);
    rep.modeled.insert("model.max_node_bits", metrics.max_node_bits as f64);
    rep.counts.insert("engine.msgs", metrics.total_msgs as f64);
    rep.counts.insert("engine.rounds", metrics.rounds as f64);
    rep
}
