//! The workspace benchmark: one named workload per process, timed end to
//! end with tracing off, or layer by layer with tracing on.
//!
//! ```text
//! perfbench --workload <alg1-msg|expander-churn|dht-zipf|dos-heal>
//!           --seed <u64> --seconds <secs> --trace <0|1>
//! ```
//!
//! A run repeats one *repetition* of the workload (set-up, timed phase,
//! output checks) until its timed phases add up to `--seconds`. Every
//! repetition of a run replays the same seed-derived inputs, so its
//! modeled figures must repeat exactly; the timings are reported as
//! medians over repetitions. The last line of standard output is the JSON
//! result; the line before it is the run manifest. See `README.md`.

mod alg1_msg;
mod dht_zipf;
mod dos_heal;
mod expander_churn;
mod meter;

use meter::{median, peak_rss_mb, Clock};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one repetition of a workload produced.
#[derive(Default)]
pub struct Rep {
    /// Seconds spent building the workload's graphs, overlays or DHT.
    pub setup_s: f64,
    /// Simulated node-rounds (members x rounds) in the timed phase.
    pub node_rounds: f64,
    /// Operations attempted and failed (the unit is per workload).
    pub attempted: u64,
    pub failed: u64,
    /// Modeled figures: a function of the seed, identical in every
    /// repetition.
    pub modeled: BTreeMap<&'static str, f64>,
    /// Per-layer counts, also identical in every repetition.
    pub counts: BTreeMap<&'static str, f64>,
    /// Whole-run checks that failed.
    pub problems: Vec<String>,
}

impl Rep {
    fn ops_done(&self) -> u64 {
        self.attempted - self.failed
    }
}

const WORKLOADS: &[&str] = &["alg1-msg", "expander-churn", "dht-zipf", "dos-heal"];

/// End-to-end metrics (tracing off), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("epoch_rounds", "rounds"),
];

/// Per-layer metrics (tracing on), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.hgraph_random_s", "s"),
    ("graphs.is_connected_s", "s"),
    ("engine.deliver_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.send_s", "s"),
    ("engine.other_s", "s"),
    ("engine.msgs", "count"),
    ("engine.rounds", "count"),
    ("sampling.run_alg1_s", "s"),
    ("sampling.run_alg1_direct_s", "s"),
    ("reconfig.reconfigure_s", "s"),
    ("reconfig.apply_churn_s", "s"),
    ("reconfig.joins", "count"),
    ("reconfig.leaves", "count"),
    ("reconfig.members", "count"),
    ("adversary.churn_next_s", "s"),
    ("adversary.campaign_block_s", "s"),
    ("adversary.dos_block_s", "s"),
    ("adversary.blocked", "count"),
    ("workload.zipf_gen_s", "s"),
    ("dht.serve_batch_s", "s"),
    ("dht.step_s", "s"),
    ("dht.read_s", "s"),
    ("dht.messages", "count"),
    ("dht.rounds", "count"),
    ("dht.max_congestion", "count"),
    ("runner.snapshot_s", "s"),
    ("runner.step_s", "s"),
    ("healing.evictions", "count"),
    ("healing.rejoins", "count"),
    ("model.max_node_bits", "bits"),
    ("model.bits_per_op", "bits"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (known: {})", WORKLOADS.join(", ")));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run_rep(workload: &str, seed: u64, clock: &mut Clock) -> Rep {
    match workload {
        "alg1-msg" => alg1_msg::rep(seed, clock),
        "expander-churn" => expander_churn::rep(seed, clock),
        "dht-zipf" => dht_zipf::rep(seed, clock),
        "dos-heal" => dos_heal::rep(seed, clock),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// The commit the tree was checked out at, read from `.git` without a
/// git binary; `unknown` outside a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric is not finite: {x}");
    format!("{x:?}")
}

/// The end-to-end metrics of the untraced repetitions: medians over
/// repetitions, peak memory of the whole process, and the modeled rounds.
fn end_to_end(plain: &[(Rep, Clock)]) -> Vec<(&'static str, f64)> {
    let per_rep = |f: &dyn Fn(&Rep, &Clock) -> f64| -> f64 {
        median(&plain.iter().map(|(r, c)| f(r, c)).collect::<Vec<_>>())
    };
    vec![
        ("setup_s", per_rep(&|r, _| r.setup_s)),
        ("node_rounds_per_s", per_rep(&|r, c| r.node_rounds / c.wall_s)),
        ("ops_per_s", per_rep(&|r, c| r.ops_done() as f64 / c.wall_s)),
        ("cpu_s", per_rep(&|_, c| c.cpu_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("epoch_rounds", plain[0].0.modeled.get("epoch_rounds").copied().unwrap_or(0.0)),
    ]
}

/// The per-layer metrics. Times are means per traced repetition, so the
/// top-level layers plus `unattributed_s` add up to `trace.wall_s`.
fn per_layer(plain: &[(Rep, Clock)], traced: &[(Rep, Clock)]) -> Vec<(&'static str, f64)> {
    let mean = |f: &dyn Fn(&Clock) -> f64| {
        traced.iter().map(|(_, c)| f(c)).sum::<f64>() / traced.len() as f64
    };
    let wall = mean(&|c| c.wall_s);
    let plain_wall = plain.iter().map(|(_, c)| c.wall_s).sum::<f64>() / plain.len() as f64;
    let layers = mean(&|c| c.spans.values().sum());
    eprintln!(
        "perfbench: traced wall {wall:.4}s = layers {layers:.4}s + unattributed {:.4}s ({:.2}%)",
        wall - layers,
        100.0 * (wall - layers) / wall
    );
    let rep = &traced[0].0;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "process.cpu_per_wall" => mean(&|c| c.cpu_s) / wall,
                "trace.wall_s" => wall,
                "unattributed_s" => wall - layers,
                "trace.overhead_s" => wall - plain_wall,
                _ if unit == "s" => mean(&|c| {
                    c.spans.get(name).or_else(|| c.nested.get(name)).copied().unwrap_or(0.0)
                }),
                _ => rep.counts.get(name).or_else(|| rep.modeled.get(name)).copied().unwrap_or(0.0),
            };
            (name, value)
        })
        .collect()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });

    // Repetitions until the timed phases cover `--seconds`. A traced run
    // alternates untraced and traced repetitions, so the tracing overhead
    // is measured on the same process and inputs.
    let mut plain: Vec<(Rep, Clock)> = Vec::new();
    let mut traced: Vec<(Rep, Clock)> = Vec::new();
    let mut measured = 0.0;
    for i in 0.. {
        let tracing = args.trace && i % 2 == 1;
        let mut clock = Clock::new(tracing);
        let rep = run_rep(&args.workload, args.seed, &mut clock);
        measured += clock.wall_s;
        eprintln!(
            "perfbench: repetition {i}{}: set-up {:.6}s, timed {:.6}s wall, {:.6}s cpu",
            if tracing { " (traced)" } else { "" },
            rep.setup_s,
            clock.wall_s,
            clock.cpu_s
        );
        if tracing {
            traced.push((rep, clock));
        } else {
            plain.push((rep, clock));
        }
        let enough_reps = plain.len() >= 3 && (!args.trace || !traced.is_empty());
        if measured >= args.seconds && enough_reps {
            break;
        }
    }

    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|(r, _)| r.attempted).sum();
    let failed: u64 = all().map(|(r, _)| r.failed).sum();
    let mut problems: Vec<String> = all().flat_map(|(r, _)| r.problems.clone()).collect();
    let first = &plain[0].0;
    if all().any(|(r, _)| r.modeled != first.modeled || r.counts != first.counts) {
        problems.push("modeled figures differ between repetitions of one seed".into());
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let metrics = if args.trace { per_layer(&plain, &traced) } else { end_to_end(&plain) };
    let backend = format!("{:?}", reconfig_core::backend::select());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"backend\": {}, \"rayon_threads\": {}, \"host_cpus\": {}, \"commit\": {}, \
         \"repetitions\": {}, \"attempted\": {attempted}, \"failed\": {failed}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&backend),
        rayon::current_num_threads(),
        host_cpus,
        json_str(&commit()),
        plain.len() + traced.len(),
    );

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(units[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
}
