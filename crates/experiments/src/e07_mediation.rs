//! E7 — Third-party mediation (§V.B).
//!
//! Paper claim: "most users do not trust many of the parties they actually
//! want to talk to ... we depend on third parties to mediate and enhance
//! the assurance that things are going to go right. Credit card companies
//! limit our liability to $50 ... there should be explicit ability to
//! select what third parties are used to mediate an interaction."
//!
//! Measured: a buyer population transacting with sellers of whom a fraction
//! are fraudulent, under no mediation, escrow mediation, reputation
//! mediation — and a final condition where buyers may *choose* between two
//! escrow providers with different fees, to show choice disciplining the
//! mediator market itself.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_sim::{Ctx, SimRng};
use tussle_trust::mediator::{run_transaction, Mediator, ReputationBook, TransactionSetup};

/// Mediation regimes compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Caveat emptor.
    Unmediated,
    /// Single escrow provider.
    Escrow,
    /// Reputation service.
    Reputation,
    /// Two escrow providers; buyers pick the cheaper.
    EscrowChoice,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::Unmediated => "no mediation",
            Regime::Escrow => "escrow ($50 cap)",
            Regime::Reputation => "reputation service",
            Regime::EscrowChoice => "escrow with choice",
        }
    }
}

/// Aggregate outcome of one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct MediationOutcome {
    /// Total buyer net across all transactions (micro-currency).
    pub buyer_net_total: i64,
    /// Transactions actually attempted.
    pub attempted: usize,
    /// Fraudulent completions.
    pub frauds: usize,
    /// Total fees collected by mediators.
    pub fees: i64,
}

const FRAUD_RATE: f64 = 0.25;
const N_TRANSACTIONS: usize = 400;

fn setup() -> TransactionSetup {
    TransactionSetup { value: 1_500_000, price: 1_000_000, fraud_probability: 0.0 }
}

/// One regime's market state, threaded through its event chain.
struct RegimeTally {
    book: ReputationBook,
    fraudulent: Vec<bool>,
    done: usize,
    total: i64,
    attempted: usize,
    frauds: usize,
    fees: i64,
}

impl RegimeTally {
    /// Draw the seller population. Sellers recur so reputation can learn.
    fn new(rng: &mut SimRng) -> Self {
        let n_sellers = 40u64;
        let fraudulent: Vec<bool> = (0..n_sellers).map(|_| rng.chance(FRAUD_RATE)).collect();
        RegimeTally {
            book: ReputationBook::new(),
            fraudulent,
            done: 0,
            total: 0,
            attempted: 0,
            frauds: 0,
            fees: 0,
        }
    }
}

/// Settle `n` transactions under `regime`, mutating the tallies.
fn trade_batch(t: &mut RegimeTally, regime: Regime, n: usize, rng: &mut SimRng) {
    let cheap_escrow = Mediator::Escrow { liability_cap: 50_000, fee: 10_000 };
    let dear_escrow = Mediator::Escrow { liability_cap: 50_000, fee: 60_000 };
    let reputation = Mediator::Reputation { min_score: 0.4, fee: 5_000 };

    for i in t.done..t.done + n {
        let seller = (i as u64) % t.fraudulent.len() as u64;
        let mut s = setup();
        s.fraud_probability = if t.fraudulent[seller as usize] { 0.9 } else { 0.02 };
        let mediator = match regime {
            Regime::Unmediated => &Mediator::None,
            Regime::Escrow => &cheap_escrow,
            Regime::Reputation => &reputation,
            // buyers compare fee schedules and pick the cheaper — "explicit
            // ability to select what third parties are used"
            Regime::EscrowChoice => {
                if fee_of(&cheap_escrow) <= fee_of(&dear_escrow) {
                    &cheap_escrow
                } else {
                    &dear_escrow
                }
            }
        };
        let o = run_transaction(s, mediator, seller, &mut t.book, rng);
        t.total += o.buyer_net;
        t.fees += o.mediator_fee;
        if o.attempted {
            t.attempted += 1;
        }
        if o.defrauded {
            t.frauds += 1;
        }
    }
    t.done += n;
}

fn outcome_of(t: &RegimeTally) -> MediationOutcome {
    MediationOutcome {
        buyer_net_total: t.total,
        attempted: t.attempted,
        frauds: t.frauds,
        fees: t.fees,
    }
}

/// Run one regime (the pure loop the unit tests drive; [`run`] replays it
/// as paced engine-event bursts).
pub fn run_regime(regime: Regime, seed: u64) -> MediationOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e07");
    let mut t = RegimeTally::new(&mut rng);
    trade_batch(&mut t, regime, N_TRANSACTIONS, &mut rng);
    outcome_of(&t)
}

/// Transactions per burst event in the engine replay.
const BURST: usize = 80;

/// One paced transaction burst as an engine event, chaining to the next.
/// The market rolls come from a per-regime fork carried through the chain
/// (not `ctx.rng`): every regime faces the *same* seller population and
/// fraud rolls, the common-random-numbers pairing the regime comparison
/// depends on. The engine rng still paces the bursts.
fn run_burst(
    w: &mut Settled<MediationOutcome>,
    ctx: &mut Ctx<Settled<MediationOutcome>>,
    i: usize,
    regime: Regime,
    mut t: RegimeTally,
    mut market_rng: SimRng,
) {
    ctx.span_enter(
        "e7.burst",
        Some("user"),
        &[("regime", regime.label()), ("done", &t.done.to_string())],
    );
    let n = BURST.min(N_TRANSACTIONS - t.done);
    trade_batch(&mut t, regime, n, &mut market_rng);
    if t.done < N_TRANSACTIONS {
        let lag = pace(
            ctx,
            "e7.pacing",
            "user",
            &[],
            format!("{} transactions settled; next burst follows", t.done),
        );
        ctx.span_exit(&[("frauds", &t.frauds.to_string())]);
        ctx.schedule_in(lag, move |w2, ctx2| run_burst(w2, ctx2, i, regime, t, market_rng));
    } else {
        let o = outcome_of(&t);
        ctx.trace_fields(
            "e7.settled",
            Some("provider"),
            &[("fees", &o.fees.to_string())],
            format!("{} market settles", regime.label()),
        );
        ctx.span_exit(&[("frauds", &t.frauds.to_string())]);
        w.put(i, o);
    }
}

fn fee_of(m: &Mediator) -> i64 {
    match m {
        Mediator::Escrow { fee, .. } | Mediator::Reputation { fee, .. } => *fee,
        Mediator::None => 0,
    }
}

/// Run E7 and produce the report. Each regime's 400 transactions run as a
/// causal chain of burst events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let regimes = [Regime::Unmediated, Regime::Escrow, Regime::Reputation, Regime::EscrowChoice];
    let outcomes = replay(seed, regimes, move |w, ctx, i, regime| {
        let mut market_rng = SimRng::seed_from_u64(seed).fork("e07");
        let t = RegimeTally::new(&mut market_rng);
        run_burst(w, ctx, i, regime, t, market_rng);
    });

    let mut table = Table::new(
        "Commerce among strangers (400 transactions, 25% of sellers fraudulent)",
        &["buyer net ($)", "attempted", "frauds", "mediator fees ($)"],
    );
    for (r, o) in regimes.into_iter().zip(&outcomes) {
        table.push_row(
            r.label(),
            &[
                format!("{:.2}", o.buyer_net_total as f64 / 1e6),
                o.attempted.to_string(),
                o.frauds.to_string(),
                format!("{:.2}", o.fees as f64 / 1e6),
            ],
        );
    }
    let (raw, escrow, rep, choice) = (&outcomes[0], &outcomes[1], &outcomes[2], &outcomes[3]);
    let shape_holds = escrow.buyer_net_total > raw.buyer_net_total
        && rep.buyer_net_total > raw.buyer_net_total
        && rep.frauds < raw.frauds
        && choice.buyer_net_total >= escrow.buyer_net_total
        && choice.fees <= escrow.fees;

    ExperimentReport {
        id: "E7".into(),
        section: "V.B".into(),
        paper_claim: "Third-party mediation (liability caps, reputation) makes commerce among \
                      mutually distrusting parties viable; parties must be able to choose their \
                      mediators, which disciplines mediator pricing."
            .into(),
        summary: format!(
            "buyer net: unmediated ${:.0}, escrow ${:.0}, reputation ${:.0} (frauds {} → {}); \
             with mediator choice buyers do no worse and fees do not rise.",
            raw.buyer_net_total as f64 / 1e6,
            escrow.buyer_net_total as f64 / 1e6,
            rep.buyer_net_total as f64 / 1e6,
            raw.frauds,
            rep.frauds,
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
    fn mediation_beats_caveat_emptor() {
        let raw = run_regime(Regime::Unmediated, 1);
        let escrow = run_regime(Regime::Escrow, 1);
        assert!(escrow.buyer_net_total > raw.buyer_net_total);
    }

    #[test]
    fn reputation_reduces_fraud_volume() {
        let raw = run_regime(Regime::Unmediated, 2);
        let rep = run_regime(Regime::Reputation, 2);
        assert!(rep.frauds < raw.frauds, "rep {} vs raw {}", rep.frauds, raw.frauds);
        // and it refuses some transactions outright
        assert!(rep.attempted < raw.attempted);
    }

    #[test]
    fn choice_picks_the_cheap_mediator() {
        let one = run_regime(Regime::Escrow, 3);
        let choice = run_regime(Regime::EscrowChoice, 3);
        assert_eq!(one.fees, choice.fees, "buyers route around the expensive escrow");
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
