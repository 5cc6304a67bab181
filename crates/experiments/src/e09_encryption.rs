//! E9 — The encryption escalation ladder (§VI.A).
//!
//! Paper claim: "Peeking is irresistible. ... the ultimate defense of the
//! end-to-end mode is end-to-end encryption. ... the response of the
//! provider is to refuse to carry encrypted data. It is probably not the
//! case that a commercial ISP would escalate to this level ... In the U.S.,
//! competition would probably discipline a provider that tried to block
//! encryption. But a conservative government with a state-run monopoly ISP
//! might. ... Then the advantage of having the encrypted mode is that it
//! would force the government to be explicit about what their policy was."
//! (Footnote 17: "The next step in this sort of escalation is
//! steganography.")
//!
//! Measured: the ladder is played under a competitive market and under a
//! state monopoly; the provider's decision to block is driven by a profit
//! comparison (blocking loses customers only where customers can leave).

use crate::chain::{pace, replay, Settled};
use tussle_core::escalation::EscalationLadder;
use tussle_core::{ExperimentReport, Mechanism, Table};
use tussle_econ::Money;
use tussle_sim::Ctx;

/// Market regimes of §VI.A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketRegime {
    /// Several ISPs; customers can switch freely.
    Competitive,
    /// One state-run ISP; nowhere to go.
    StateMonopoly,
}

impl MarketRegime {
    fn label(self) -> &'static str {
        match self {
            MarketRegime::Competitive => "competitive market",
            MarketRegime::StateMonopoly => "state monopoly",
        }
    }
}

/// Outcome of the ladder in one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptionOutcome {
    /// Did the provider block encrypted traffic?
    pub provider_blocked: bool,
    /// The mechanism left standing.
    pub final_mechanism: Mechanism,
    /// Did the user end up with confidential traffic?
    pub privacy_achieved: bool,
    /// Is the provider's interference policy visible to the user?
    pub policy_visible: bool,
    /// Provider profit under its chosen response.
    pub provider_profit: Money,
}

const N_CUSTOMERS: i64 = 20;
const PRICE: Money = Money(60_000_000);
const COST: Money = Money(20_000_000);
/// What the provider gains per customer by controlling/peeking at traffic
/// (VPN surcharges, ad injection, vertical-integration leverage).
const CONTROL_RENT: Money = Money(15_000_000);

/// The provider's profit if it blocks encrypted traffic, given the regime.
pub fn blocking_profit(regime: MarketRegime) -> Money {
    match regime {
        // customers defect to the ISP that carries encrypted traffic
        MarketRegime::Competitive => Money::ZERO,
        // customers have nowhere to go; the provider keeps margin + rent
        MarketRegime::StateMonopoly => (PRICE - COST + CONTROL_RENT) * N_CUSTOMERS,
    }
}

/// The provider's profit if it tolerates encryption.
pub fn tolerate_profit(_regime: MarketRegime) -> Money {
    (PRICE - COST) * N_CUSTOMERS
}

/// Play the §VI.A ladder in one regime (the pure decision logic; the
/// engine-driven replay in [`run`] turns its rungs into causally chained
/// events).
pub fn play_ladder(regime: MarketRegime) -> EscalationLadder {
    let block_pays = blocking_profit(regime) > tolerate_profit(regime);
    EscalationLadder::play(Mechanism::Encryption, 10, |_, counters| {
        // rung 1: the provider decides whether to counter encryption
        if counters.contains(&Mechanism::EncryptionBlocking) {
            return block_pays.then_some(Mechanism::EncryptionBlocking);
        }
        // rung 2: the user decides how to counter blocking
        if counters.contains(&Mechanism::Steganography) {
            return match regime {
                // competitive users would just switch ISP, but if we got
                // here the provider blocked anyway; monopoly users have
                // only concealment left
                MarketRegime::Competitive => Some(Mechanism::ServerChoice),
                MarketRegime::StateMonopoly => Some(Mechanism::Steganography),
            };
        }
        None
    })
}

/// Outcome of the ladder in one regime.
pub fn run_regime(regime: MarketRegime) -> EncryptionOutcome {
    let ladder = play_ladder(regime);
    let final_mechanism = ladder.final_mechanism();
    let provider_blocked =
        ladder.steps.iter().any(|s| s.mechanism == Mechanism::EncryptionBlocking);
    // privacy: encryption survives unless blocking is the last word
    let privacy_achieved = final_mechanism != Mechanism::EncryptionBlocking;
    // the §VI.A consolation: blocking, where it happens, is an explicit,
    // visible policy — cleartext peeking is not
    let policy_visible = provider_blocked;
    EncryptionOutcome {
        provider_blocked,
        final_mechanism,
        privacy_achieved,
        policy_visible,
        provider_profit: if provider_blocked {
            blocking_profit(regime)
        } else {
            tolerate_profit(regime)
        },
    }
}

/// One deployment rung as an engine event. Each counter-move is scheduled
/// *by the rung it answers* after a seeded reaction lag, so the run's
/// provenance records the escalation as a causal chain — exactly the
/// structure `tussle-cli explain` walks — and different seeds diverge in
/// their trace streams (the lags are rng draws), which is what
/// `tussle-cli diff` bisects.
fn deploy(
    w: &mut Settled<EncryptionOutcome>,
    ctx: &mut Ctx<Settled<EncryptionOutcome>>,
    i: usize,
    regime: MarketRegime,
    steps: Vec<Mechanism>,
    rung: usize,
    outcome: EncryptionOutcome,
) {
    let mechanism = steps[rung];
    // Even rungs are the user's moves (encryption, steganography), odd
    // rungs the provider's (blocking).
    let actor = if rung.is_multiple_of(2) { "user" } else { "provider" };
    let mech_label = format!("{mechanism:?}");
    let rung_label = rung.to_string();
    ctx.span_enter(
        "e9.deploy",
        Some(actor),
        &[("regime", regime.label()), ("mechanism", &mech_label), ("rung", &rung_label)],
    );
    if rung + 1 < steps.len() {
        // The counter takes time to procure and roll out; the lag is the
        // run's seed-dependent texture.
        let lag =
            pace(ctx, "e9.counter", actor, &[], format!("{mech_label} provokes a counter-move"));
        ctx.span_exit(&[("countered", "true")]);
        ctx.schedule_in(lag, move |w2, ctx2| {
            deploy(w2, ctx2, i, regime, steps, rung + 1, outcome);
        });
    } else {
        ctx.trace_fields(
            "e9.settled",
            Some(actor),
            &[("final", &mech_label)],
            format!("{} settles at {mech_label}", regime.label()),
        );
        ctx.span_exit(&[("countered", "false")]);
        w.put(i, outcome);
    }
}

/// Run E9 and produce the report. The ladder decisions are pure profit
/// comparisons; the engine replay gives them a causal event structure.
pub fn run(seed: u64) -> ExperimentReport {
    let regimes = [MarketRegime::Competitive, MarketRegime::StateMonopoly];
    let outcomes = replay(seed, regimes, |w, ctx, i, regime| {
        let steps: Vec<Mechanism> = play_ladder(regime).steps.iter().map(|s| s.mechanism).collect();
        let outcome = run_regime(regime);
        deploy(w, ctx, i, regime, steps, 0, outcome);
    });

    let mut table = Table::new(
        "The encryption escalation ladder by market regime",
        &[
            "provider blocks",
            "final mechanism",
            "privacy achieved",
            "policy visible",
            "provider profit",
        ],
    );
    for (regime, o) in regimes.into_iter().zip(&outcomes) {
        table.push_row(
            regime.label(),
            &[
                o.provider_blocked.to_string(),
                format!("{:?}", o.final_mechanism),
                o.privacy_achieved.to_string(),
                o.policy_visible.to_string(),
                o.provider_profit.to_string(),
            ],
        );
    }
    let (comp, mono) = (&outcomes[0], &outcomes[1]);
    let shape_holds = !comp.provider_blocked
        && comp.privacy_achieved
        && comp.final_mechanism == Mechanism::Encryption
        && mono.provider_blocked
        && mono.final_mechanism == Mechanism::Steganography
        && mono.privacy_achieved // concealment, not consent
        && mono.policy_visible;

    ExperimentReport {
        id: "E9".into(),
        section: "VI.A".into(),
        paper_claim: "Competition disciplines a provider that would block encryption, so the \
                      ladder stops at (visible) encryption; a state monopoly blocks, the user \
                      escalates to steganography, and the technology's remaining contribution \
                      is forcing the blocking policy to be explicit and visible."
            .into(),
        summary: format!(
            "competitive: provider tolerates, ladder ends at {:?}; monopoly: provider blocks \
             (policy visible: {}), ladder ends at {:?}.",
            comp.final_mechanism, mono.policy_visible, mono.final_mechanism
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
    fn competition_makes_blocking_unprofitable() {
        assert!(
            blocking_profit(MarketRegime::Competitive) < tolerate_profit(MarketRegime::Competitive)
        );
        assert!(
            blocking_profit(MarketRegime::StateMonopoly)
                > tolerate_profit(MarketRegime::StateMonopoly)
        );
    }

    #[test]
    fn competitive_ladder_stops_at_encryption() {
        let o = run_regime(MarketRegime::Competitive);
        assert!(!o.provider_blocked);
        assert_eq!(o.final_mechanism, Mechanism::Encryption);
        assert!(o.privacy_achieved);
    }

    #[test]
    fn monopoly_escalates_to_steganography() {
        let o = run_regime(MarketRegime::StateMonopoly);
        assert!(o.provider_blocked);
        assert_eq!(o.final_mechanism, Mechanism::Steganography);
        assert!(o.privacy_achieved, "stego conceals, so traffic is confidential");
        assert!(o.policy_visible, "blocking forced the policy into the open");
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }

    #[test]
    fn replay_is_seeded_and_causal() {
        let observe = |seed| {
            let g = tussle_sim::obs::begin(tussle_sim::ObsMode::Cost);
            let r = run(seed);
            (g.finish(), r)
        };
        let (a, ra) = observe(2002);
        let (a2, _) = observe(2002);
        let (b, rb) = observe(2003);
        assert_eq!(a.digest, a2.digest, "same seed, same stream");
        assert_ne!(a.digest, b.digest, "seeded reaction lags diverge the stream");
        assert!(ra.shape_holds && rb.shape_holds, "outcomes are seed-independent");
        assert!(a.events >= 4, "both regimes replay through the engine: {}", a.events);
        assert!(a.rng_draws >= 2, "monopoly counter-moves draw lags");
    }
}
