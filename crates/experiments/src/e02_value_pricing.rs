//! E2 — Value pricing vs. tunneling (§V.A.2).
//!
//! Paper claim: "some acceptable use policies for residential broadband
//! access prohibit the operation of a server in the home. To run a server,
//! the customer is required to pay a higher 'business' rate. Customers who
//! wish to sidestep this restriction can respond by shifting to another
//! provider, if there is one, or by tunneling to disguise the port numbers
//! being used. The probable outcome of this tussle depends strongly on
//! whether one perceives competition as currently healthy."
//!
//! Measured: an escalation in four rounds — flat pricing; value pricing
//! introduced; server-runners tunnel; the provider deploys detection —
//! under a monopoly and under competition (an alternative flat-rate
//! provider the detected can flee to).

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::{Money, PricingScheme, Usage};
use tussle_net::tunnel::TunnelDetector;
use tussle_sim::{Ctx, SimRng};

/// One escalation rung's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Escalation rung label.
    pub round: &'static str,
    /// Provider revenue from the server-running segment.
    pub revenue: Money,
    /// Server-runners' total surplus.
    pub consumer_surplus: Money,
    /// Customers who left for the competitor (0 in monopoly).
    pub departed: usize,
}

/// Population parameters.
const N_SERVER_RUNNERS: usize = 20;
const SERVER_VALUE: Money = Money(150_000_000); // $150/mo value of service+server
const RESIDENTIAL: Money = Money(40_000_000); // $40
const BUSINESS: Money = Money(120_000_000); // $120
const COMPETITOR_FLAT: Money = Money(55_000_000); // $55 flat elsewhere
const TUNNEL_COST: Money = Money(5_000_000); // $5/mo of hassle

/// One escalation rung's outcome. Rounds 0–2 are pure bills; round 3
/// samples the tunnel detector once per customer from `rng`.
pub fn round_outcome(round: usize, competitive: bool, rng: &mut SimRng) -> RoundOutcome {
    let vp = PricingScheme::ValuePricing { residential: RESIDENTIAL, business: BUSINESS };
    match round {
        // Round 0: flat pricing, everyone pays residential-equivalent.
        0 => RoundOutcome {
            round: "flat pricing",
            revenue: RESIDENTIAL * N_SERVER_RUNNERS as i64,
            consumer_surplus: (SERVER_VALUE - RESIDENTIAL) * N_SERVER_RUNNERS as i64,
            departed: 0,
        },
        // Round 1: value pricing; servers are visible; everyone pays business.
        1 => {
            let bill = vp.bill(Usage::open_server(1000));
            RoundOutcome {
                round: "value pricing",
                revenue: bill * N_SERVER_RUNNERS as i64,
                consumer_surplus: (SERVER_VALUE - bill) * N_SERVER_RUNNERS as i64,
                departed: 0,
            }
        }
        // Round 2: everyone tunnels; bills fall back to residential, minus
        // the tunnel hassle on the consumer side.
        2 => {
            let bill = vp.bill(Usage::hidden_server(1000));
            RoundOutcome {
                round: "consumers tunnel",
                revenue: bill * N_SERVER_RUNNERS as i64,
                consumer_surplus: (SERVER_VALUE - bill - TUNNEL_COST) * N_SERVER_RUNNERS as i64,
                departed: 0,
            }
        }
        // Round 3: the provider deploys detection. Detected customers are
        // re-billed at the business rate; under competition they leave for
        // the flat competitor instead of paying it.
        _ => {
            let detector = TunnelDetector::new(0.8, 0.02);
            let mut revenue = Money::ZERO;
            let mut surplus = Money::ZERO;
            let mut departed = 0;
            for _ in 0..N_SERVER_RUNNERS {
                // a tunneled packet stream is sampled once per billing cycle
                let detected = rng.chance(detector.true_positive);
                if detected {
                    if competitive {
                        departed += 1;
                        surplus += SERVER_VALUE - COMPETITOR_FLAT;
                        // revenue goes to the competitor, not this provider
                    } else {
                        revenue += BUSINESS;
                        surplus += SERVER_VALUE - BUSINESS;
                    }
                } else {
                    revenue += RESIDENTIAL;
                    surplus += SERVER_VALUE - RESIDENTIAL - TUNNEL_COST;
                }
            }
            RoundOutcome { round: "provider detects", revenue, consumer_surplus: surplus, departed }
        }
    }
}

/// Play the four rounds. `competitive` controls whether a flat-rate
/// alternative exists for detected server-runners to flee to.
pub fn run_rounds(competitive: bool, seed: u64) -> Vec<RoundOutcome> {
    let mut rng = SimRng::seed_from_u64(seed).fork("e02");
    (0..4).map(|round| round_outcome(round, competitive, &mut rng)).collect()
}

/// One escalation rung as an engine event. Each rung schedules the rung it
/// provokes after a seeded reaction lag, so the run's provenance records
/// the escalation as a causal chain per regime; the last rung settles the
/// regime's rounds.
fn play_round(
    w: &mut Settled<Vec<RoundOutcome>>,
    ctx: &mut Ctx<Settled<Vec<RoundOutcome>>>,
    i: usize,
    competitive: bool,
    mut rounds: Vec<RoundOutcome>,
) {
    let round = rounds.len();
    // Round 2 (tunneling) is the consumers' move; the rest are the
    // provider's pricing moves.
    let actor = if round == 2 { "user" } else { "provider" };
    let regime = if competitive { "competitive" } else { "monopoly" };
    ctx.span_enter("e2.round", Some(actor), &[("regime", regime), ("round", &round.to_string())]);
    let o = round_outcome(round, competitive, ctx.rng);
    if round + 1 < 4 {
        let lag =
            pace(ctx, "e2.counter", actor, &[], format!("{} provokes the next rung", o.round));
        ctx.span_exit(&[("revenue", &o.revenue.to_string())]);
        rounds.push(o);
        ctx.schedule_in(lag, move |w2, ctx2| play_round(w2, ctx2, i, competitive, rounds));
    } else {
        ctx.trace_fields(
            "e2.settled",
            Some(actor),
            &[("departed", &o.departed.to_string())],
            format!("{regime} escalation settles at {}", o.round),
        );
        ctx.span_exit(&[("revenue", &o.revenue.to_string())]);
        rounds.push(o);
        w.put(i, rounds);
    }
}

/// Run E2 and produce the report. Each regime's escalation plays out as a
/// causally chained sequence of engine events on the shared clock.
pub fn run(seed: u64) -> ExperimentReport {
    let regimes = replay(seed, [false, true], |w, ctx, i, competitive| {
        play_round(w, ctx, i, competitive, Vec::new())
    });
    let (mono, comp) = (&regimes[0], &regimes[1]);

    let mut table = Table::new(
        "Value-pricing escalation: provider revenue / server-runner surplus / departures",
        &[
            "monopoly revenue",
            "monopoly surplus",
            "competitive revenue",
            "competitive surplus",
            "departed",
        ],
    );
    for (m, c) in mono.iter().zip(comp) {
        table.push_row(
            m.round,
            &[
                m.revenue.to_string(),
                m.consumer_surplus.to_string(),
                c.revenue.to_string(),
                c.consumer_surplus.to_string(),
                c.departed.to_string(),
            ],
        );
    }

    // Shape: value pricing raises revenue; tunneling claws it back;
    // detection re-raises revenue under monopoly but LOSES customers (and
    // revenue relative to monopoly) under competition.
    let shape_holds = mono[1].revenue > mono[0].revenue
        && mono[2].revenue < mono[1].revenue
        && mono[3].revenue > mono[2].revenue
        && comp[3].departed > 0
        && comp[3].revenue < mono[3].revenue
        && comp[3].consumer_surplus > mono[3].consumer_surplus;

    ExperimentReport {
        id: "E2".into(),
        section: "V.A.2".into(),
        paper_claim: "Value pricing segments the market; tunneling shifts surplus back to \
                      consumers; detection re-escalates — and the outcome pivots on whether \
                      competition gives detected customers somewhere to go."
            .into(),
        summary: format!(
            "monopoly detection recovers revenue to {}; under competition {} of {} detected \
             customers depart and provider revenue is only {}.",
            mono[3].revenue, comp[3].departed, N_SERVER_RUNNERS, comp[3].revenue
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
    fn value_pricing_raises_revenue_until_tunnels() {
        let rounds = run_rounds(false, 1);
        assert!(rounds[1].revenue > rounds[0].revenue);
        assert!(rounds[2].revenue < rounds[1].revenue);
        // tunnels return the bill to residential exactly
        assert_eq!(rounds[2].revenue, rounds[0].revenue);
    }

    #[test]
    fn detection_outcome_depends_on_competition() {
        let mono = run_rounds(false, 2);
        let comp = run_rounds(true, 2);
        assert_eq!(mono[3].departed, 0);
        assert!(comp[3].departed > 0);
        assert!(comp[3].revenue < mono[3].revenue);
    }

    #[test]
    fn consumers_always_prefer_competition() {
        for seed in [1, 5, 9] {
            let mono = run_rounds(false, seed);
            let comp = run_rounds(true, seed);
            assert!(comp[3].consumer_surplus >= mono[3].consumer_surplus);
        }
    }

    #[test]
    fn report_shape_holds() {
        let r = run(3);
        assert!(r.shape_holds, "{}", r.summary);
        assert_eq!(r.table.rows.len(), 4);
    }
}
