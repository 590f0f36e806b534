//! `dos-heal`: A5's healed arm scaled up. `FaultyRunner` with healing on
//! drives a `DosOverlay` through message loss and crash-recovery faults,
//! under a Random `DosAdversary` at r = 0.3 that is 2t-late (it acts on a
//! view two epoch lengths old). The only workload that runs the overlay
//! runner (`core::healing`, `core::monitor`).
//!
//! The benchmark steps the runner itself, round by round, doing what
//! `FaultyRunner::run` does, so it can judge each round's block set. One
//! operation is one round. Checks, every round: the block set stays within
//! the r-bound of the current population, and every occupied group of
//! `grouped()` keeps a member outside the block set.

use crate::meter::{timed, Clock};
use crate::Rep;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;

const N: usize = 8192;
const EPOCHS: u64 = 16;
const BOUND: f64 = 0.3;
const LOSS: f64 = 0.1;
const CRASH_HAZARD: f64 = 0.002;
const MAX_CRASH_FRACTION: f64 = 0.1;
/// Longer than the heartbeat timeout, so crashed members are evicted while
/// down and come back through the join path.
const RECOVER_EPOCHS: u64 = 5;

pub fn rep(seed: u64, clock: &mut Clock) -> Rep {
    let ((mut runner, mut adversary, epoch_len), setup_s) = timed(|| {
        let overlay = DosOverlay::new(N, DosParams::default(), seed ^ 0xD05_0000);
        let epoch_len = overlay.epoch_len();
        let faults = FaultSchedule::new(
            seed ^ 0xFA17,
            LOSS,
            CRASH_HAZARD,
            Some(RECOVER_EPOCHS * epoch_len),
            MAX_CRASH_FRACTION,
        );
        let runner = FaultyRunner::new(overlay, faults, HealingParams::default(), true)
            .with_dos_bound(BOUND);
        let adversary = DosAdversary::new(DosStrategy::Random, BOUND, 2 * epoch_len, seed ^ 0xAD5);
        (runner, adversary, epoch_len)
    });
    let rounds = EPOCHS * epoch_len;
    let mut rep = Rep { setup_s, attempted: rounds, ..Rep::default() };
    let mut blocked_total = 0usize;

    for _ in 0..rounds {
        let (round, n, blocked) = clock.segment(|c| {
            let round = runner.overlay.round();
            let snap = c.span("runner.snapshot_s", || runner.overlay.snapshot(round));
            let n = HealableOverlay::len(&runner.overlay);
            let blocked = c.span("adversary.dos_block_s", || {
                adversary.observe(snap);
                adversary.block(round, n)
            });
            (round, n, blocked)
        });
        blocked_total += blocked.len();
        let within = blocked.len() <= (BOUND * n as f64).floor() as usize;
        let available = runner
            .overlay
            .grouped()
            .groups()
            .iter()
            .all(|g| g.is_empty() || g.iter().any(|&v| !blocked.contains(v)));
        if !(within && available) {
            rep.failed += 1;
        }
        clock.segment(|c| {
            c.span("runner.step_s", || {
                runner.monitor.check(
                    Invariant::BlockingBudget,
                    round,
                    blocked.within_bound(BOUND, n),
                    || format!("{} blocked of {n}", blocked.len()),
                );
                runner.step(&blocked)
            })
        });
        rep.node_rounds += n as f64;
    }

    let stats = runner.stats();
    rep.modeled.insert("epoch_rounds", epoch_len as f64);
    rep.counts.insert("healing.evictions", stats.evictions as f64);
    rep.counts.insert("healing.rejoins", stats.rejoins as f64);
    rep.counts.insert("adversary.blocked", blocked_total as f64);
    rep
}
