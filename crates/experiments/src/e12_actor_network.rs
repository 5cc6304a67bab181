//! E12 — Actor-network churn and freezing (§II.C).
//!
//! Paper claim: "When new applications and user groups cease to come to the
//! Internet, and the set of actors in the actor network becomes fixed, then
//! we can assume that the tensions and tussles in the network will begin to
//! be resolved, and this will imply a freezing of the actor network, and a
//! freezing of the Internet. So we should look for a time when innovation
//! slows, not just as a signal but also as a pre-condition of a durably
//! formed and unchangeable Internet."
//!
//! Measured: a seeded actor network run under a sweep of entrant arrival
//! rates; we record whether (and when) the network freezes, final tussle
//! energy, and durability.

use crate::chain::{pace, replay, Settled};
use tussle_actors::{ActorKind, ActorNetwork, ChurnProcess, FreezeDetector};
use tussle_core::{ExperimentReport, Table};
use tussle_sim::{Ctx, SimRng};

/// Outcome for one arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Entrants admitted over the run.
    pub entrants: u64,
    /// Step at which the network froze, if it did.
    pub frozen_at: Option<usize>,
    /// Final tussle energy.
    pub final_energy: f64,
    /// Final durability.
    pub final_durability: f64,
}

/// One rate's evolving network, threaded through its event chain.
struct RateTally {
    net: ActorNetwork,
    churn: ChurnProcess,
    det: FreezeDetector,
    done: usize,
}

impl RateTally {
    fn new(rate: f64) -> Self {
        let mut net = ActorNetwork::new(3);
        // the founding population: users, an ISP, the protocol suite, a law
        let users = net.add_actor(ActorKind::Human, "users", vec![0.9, -0.4, 0.1]);
        let isp = net.add_actor(ActorKind::Institution, "isp", vec![-0.8, 0.6, 0.0]);
        let ip = net.add_actor(ActorKind::Technology, "ip", vec![0.0, 0.0, 0.0]);
        let law = net.add_actor(ActorKind::Institution, "telecom-law", vec![-0.2, 0.8, -0.5]);
        net.align(users, ip, 0.7);
        net.align(isp, ip, 0.7);
        net.align(isp, law, 0.5);
        net.align(users, isp, 0.4);
        RateTally {
            net,
            churn: ChurnProcess::new(rate),
            det: FreezeDetector::new(0.05, 25),
            done: 0,
        }
    }
}

/// Advance the network `n` churn steps, feeding the freeze detector.
fn churn_batch(t: &mut RateTally, n: usize, rng: &mut SimRng) {
    for _ in 0..n {
        let admitted = t.churn.step(&mut t.net, rng);
        t.det.observe(admitted, || t.net.tussle_energy());
    }
    t.done += n;
}

fn outcome_of(t: &RateTally) -> ChurnOutcome {
    ChurnOutcome {
        entrants: t.churn.entrants(),
        frozen_at: t.det.frozen_at(),
        final_energy: t.net.tussle_energy(),
        final_durability: t.net.durability(),
    }
}

/// Run one arrival rate for `steps` (the pure loop the unit tests drive;
/// [`run`] replays it as paced engine-event epochs).
pub fn run_rate(rate: f64, steps: usize, seed: u64) -> ChurnOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e12");
    let mut t = RateTally::new(rate);
    churn_batch(&mut t, steps, &mut rng);
    outcome_of(&t)
}

/// E12's replay world: each arrival rate's settled churn outcome.
type Rates = Settled<ChurnOutcome>;

/// Churn steps per epoch event in the engine replay.
const EPOCH: usize = 150;
/// Total churn steps per rate.
const STEPS: usize = 600;

/// One churn epoch as an engine event, chaining to the next epoch.
fn run_epoch(w: &mut Rates, ctx: &mut Ctx<Rates>, i: usize, rate: f64, mut t: RateTally) {
    ctx.span_enter(
        "e12.epoch",
        Some("society"),
        &[("rate", &rate.to_string()), ("done", &t.done.to_string())],
    );
    let n = EPOCH.min(STEPS - t.done);
    churn_batch(&mut t, n, ctx.rng);
    if t.done < STEPS {
        let lag = pace(
            ctx,
            "e12.pacing",
            "society",
            &[],
            format!("{} steps churned; next epoch follows", t.done),
        );
        ctx.span_exit(&[("entrants", &t.churn.entrants().to_string())]);
        ctx.schedule_in(lag, move |w2, ctx2| run_epoch(w2, ctx2, i, rate, t));
    } else {
        let o = outcome_of(&t);
        ctx.trace_fields(
            "e12.settled",
            Some("society"),
            &[("frozen", &o.frozen_at.is_some().to_string())],
            format!("rate={rate} evolution settles"),
        );
        ctx.span_exit(&[("entrants", &o.entrants.to_string())]);
        w.put(i, o);
    }
}

/// Run E12 and produce the report. Each arrival rate's 600 churn steps run
/// as a causal chain of epoch events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let rates = [0.0, 0.05, 0.5, 2.0];
    let outcomes =
        replay(seed, rates, |w, ctx, i, rate| run_epoch(w, ctx, i, rate, RateTally::new(rate)));

    let mut table = Table::new(
        "Actor-network evolution vs. entrant arrival rate (600 steps)",
        &["entrants", "frozen at step", "final tussle energy", "final durability"],
    );
    for (rate, o) in rates.into_iter().zip(&outcomes) {
        table.push_row(
            &format!("rate={rate}"),
            &[
                o.entrants.to_string(),
                o.frozen_at.map(|s| s.to_string()).unwrap_or_else(|| "never".into()),
                format!("{:.3}", o.final_energy),
                format!("{:.2}", o.final_durability),
            ],
        );
    }
    let closed = &outcomes[0];
    let busy = &outcomes[2];
    let packed = &outcomes[3];
    let shape_holds = closed.frozen_at.is_some()
        && busy.frozen_at.is_none()
        && packed.frozen_at.is_none()
        && packed.final_energy > closed.final_energy
        && closed.final_durability > 0.5; // the frozen network is durable

    ExperimentReport {
        id: "E12".into(),
        section: "II.C".into(),
        paper_claim: "Continuous entry of new actors keeps the actor network (and hence the \
                      Internet) changeable; when entrants stop, tussles resolve, the network \
                      hardens, and the architecture freezes."
            .into(),
        summary: format!(
            "rate 0 freezes at step {} with durability {:.2}; rate 0.5 and 2.0 never freeze \
             (final tussle energy {:.2} and {:.2}).",
            closed.frozen_at.unwrap_or(0),
            closed.final_durability,
            busy.final_energy,
            packed.final_energy,
        ),
        table,
        shape_holds,
        cost: None,
        scoreboard: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_networks_freeze_hard() {
        let o = run_rate(0.0, 600, 1);
        assert!(o.frozen_at.is_some());
        assert!(o.final_energy < 0.05);
        assert!(o.final_durability > 0.5);
        assert_eq!(o.entrants, 0);
    }

    #[test]
    fn open_networks_stay_fluid() {
        let o = run_rate(1.0, 600, 1);
        assert!(o.frozen_at.is_none());
        assert!(o.final_energy > 0.05);
        assert!(o.entrants > 300);
    }

    #[test]
    fn more_churn_more_tussle() {
        let slow = run_rate(0.1, 400, 2);
        let fast = run_rate(2.0, 400, 2);
        assert!(fast.final_energy > slow.final_energy);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
