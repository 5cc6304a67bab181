//! E16 — The multicast post-mortem: the exercise, done (§VII, footnote 19).
//!
//! Paper claim: "This follows on the failure of multicast to emerge as an
//! open end-to-end service. ... The case study of the failure to deploy
//! multicast is left as an exercise for the reader."
//!
//! The exercise: multicast differs from QoS in one structural way — its
//! benefit is *conjunctive*. A premium queue helps the moment one ISP
//! deploys it; inter-domain multicast delivers nothing until essentially
//! every ISP on the distribution tree deploys. That turns deployment into
//! a stag hunt: even with a value-transfer mechanism, "all deploy" and
//! "none deploy" are both equilibria, and unilateral best-response
//! dynamics starting from the empty Internet select the bad one. The
//! contrast case is the CDN/cache architecture, whose benefit is
//! unilateral — and which is what the market actually built.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::Money;
use tussle_sim::SimRng;

/// How a technology's benefit accrues to a deployer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenefitShape {
    /// Benefit only if at least `threshold` fraction of others deployed.
    Conjunctive {
        /// Fraction of other ISPs that must have deployed first.
        threshold: f64,
    },
    /// Benefit accrues to the deployer alone, immediately.
    Unilateral,
}

/// One deployment scenario.
#[derive(Debug, Clone)]
pub struct DeploymentScenario {
    /// Display label.
    pub label: &'static str,
    /// Benefit shape.
    pub shape: BenefitShape,
    /// Does a value-transfer mechanism exist (can deployers be paid)?
    pub value_transfer: bool,
    /// Initial deployed fraction (a standards-body "big bang" seeds 1.0).
    pub initial_deployment: f64,
}

/// Result of running the dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentOutcome {
    /// Final deployed fraction.
    pub deployed: f64,
    /// Whether the final state is an equilibrium (nobody wants to move).
    pub stable: bool,
}

const N_ISPS: usize = 20;
const BENEFIT: Money = Money(150_000_000); // $150 over the horizon, if paid

fn costs(seed: u64) -> Vec<Money> {
    let mut rng = SimRng::seed_from_u64(seed).fork("e16");
    (0..N_ISPS).map(|_| Money::from_dollars(rng.range(60..120i64))).collect()
}

fn wants_to_deploy(
    shape: BenefitShape,
    value_transfer: bool,
    others_deployed: f64,
    cost: Money,
) -> bool {
    let gross = if value_transfer { BENEFIT } else { Money::ZERO };
    let benefit = match shape {
        BenefitShape::Unilateral => gross,
        BenefitShape::Conjunctive { threshold } => {
            if others_deployed >= threshold {
                gross
            } else {
                Money::ZERO
            }
        }
    };
    benefit > cost
}

/// Iterated best-response deployment dynamics.
pub fn run_scenario(s: &DeploymentScenario, seed: u64) -> DeploymentOutcome {
    let cost_table = costs(seed);
    let mut deployed: Vec<bool> =
        (0..N_ISPS).map(|i| (i as f64) < s.initial_deployment * N_ISPS as f64).collect();
    for _round in 0..50 {
        let mut changed = false;
        for i in 0..N_ISPS {
            let others = deployed.iter().enumerate().filter(|(j, d)| *j != i && **d).count() as f64
                / (N_ISPS - 1) as f64;
            let want = wants_to_deploy(s.shape, s.value_transfer, others, cost_table[i]);
            if want != deployed[i] {
                deployed[i] = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // stability check: one more pass must change nothing
    let frac = deployed.iter().filter(|d| **d).count() as f64 / N_ISPS as f64;
    let stable = (0..N_ISPS).all(|i| {
        let others = deployed.iter().enumerate().filter(|(j, d)| *j != i && **d).count() as f64
            / (N_ISPS - 1) as f64;
        wants_to_deploy(s.shape, s.value_transfer, others, cost_table[i]) == deployed[i]
    });
    DeploymentOutcome { deployed: frac, stable }
}

/// The four §VII/fn.19 scenarios.
pub fn scenarios() -> Vec<DeploymentScenario> {
    vec![
        DeploymentScenario {
            label: "multicast, no value transfer",
            shape: BenefitShape::Conjunctive { threshold: 0.8 },
            value_transfer: false,
            initial_deployment: 0.0,
        },
        DeploymentScenario {
            label: "multicast, value transfer, organic start",
            shape: BenefitShape::Conjunctive { threshold: 0.8 },
            value_transfer: true,
            initial_deployment: 0.0,
        },
        DeploymentScenario {
            label: "multicast, value transfer, big-bang start",
            shape: BenefitShape::Conjunctive { threshold: 0.8 },
            value_transfer: true,
            initial_deployment: 1.0,
        },
        DeploymentScenario {
            label: "CDN/caches (unilateral benefit)",
            shape: BenefitShape::Unilateral,
            value_transfer: true,
            initial_deployment: 0.0,
        },
    ]
}

/// Run E16 and produce the report. The best-response dynamics are pure;
/// each scenario plays as a two-event causal chain (the standards moment,
/// then — after a seeded roll-out lag — the market settles) on the shared
/// engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let outcomes = replay(seed, scenarios(), move |_, ctx, i, s| {
        ctx.span_enter("e16.standards", Some("isp"), &[("scenario", s.label)]);
        let lag = pace(
            ctx,
            "e16.rollout",
            "isp",
            &[],
            format!("{}: the deployment game begins", s.label),
        );
        ctx.span_exit(&[]);
        ctx.schedule_in(lag, move |w2: &mut Settled<DeploymentOutcome>, ctx2| {
            ctx2.span_enter("e16.dynamics", Some("isp"), &[("scenario", s.label)]);
            let o = run_scenario(&s, seed);
            ctx2.span_exit(&[("deployed", &format!("{:.2}", o.deployed))]);
            w2.put(i, o);
        });
    });

    let mut table = Table::new(
        "Multicast vs. CDN deployment dynamics (20 ISPs, cost $60-$120, benefit $150 if paid)",
        &["final deployment", "stable equilibrium"],
    );
    for (s, o) in scenarios().iter().zip(&outcomes) {
        table.push_row(s.label, &[format!("{:.2}", o.deployed), o.stable.to_string()]);
    }

    let (no_transfer, organic, bigbang, cdn) =
        (&outcomes[0], &outcomes[1], &outcomes[2], &outcomes[3]);
    let shape_holds = no_transfer.deployed == 0.0
        && organic.deployed == 0.0 // the stag hunt selects the bad equilibrium
        && organic.stable
        && bigbang.deployed == 1.0 // all-deploy IS an equilibrium...
        && bigbang.stable // ...it was just unreachable organically
        && cdn.deployed == 1.0;

    ExperimentReport {
        id: "E16".into(),
        section: "VII (fn. 19)".into(),
        paper_claim: "Multicast failed like QoS but worse: its benefit is conjunctive, so even \
                      with a value-transfer mechanism, organic deployment is a stag hunt stuck \
                      at the none-deploy equilibrium; the all-deploy equilibrium exists but is \
                      unreachable unilaterally. Unilateral-benefit designs (CDNs/caches) \
                      deploy themselves — and that is what the market built."
            .into(),
        summary: format!(
            "organic multicast sticks at {:.0}% even with payment (stable: {}); a coordinated \
             big-bang start sustains {:.0}%; the unilateral CDN design reaches {:.0}% from \
             nothing.",
            organic.deployed * 100.0,
            organic.stable,
            bigbang.deployed * 100.0,
            cdn.deployed * 100.0,
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
    fn organic_multicast_fails_even_with_payment() {
        let s = &scenarios()[1];
        let o = run_scenario(s, 3);
        assert_eq!(o.deployed, 0.0);
        assert!(o.stable, "none-deploy is a genuine equilibrium, not a transient");
    }

    #[test]
    fn all_deploy_is_also_an_equilibrium() {
        let s = &scenarios()[2];
        let o = run_scenario(s, 3);
        assert_eq!(o.deployed, 1.0);
        assert!(o.stable);
    }

    #[test]
    fn big_bang_without_value_transfer_unravels() {
        let s = DeploymentScenario {
            label: "seeded but unpaid",
            shape: BenefitShape::Conjunctive { threshold: 0.8 },
            value_transfer: false,
            initial_deployment: 1.0,
        };
        let o = run_scenario(&s, 3);
        assert_eq!(o.deployed, 0.0, "without greed, even coordination cannot hold");
    }

    #[test]
    fn cdn_deploys_from_nothing() {
        let o = run_scenario(&scenarios()[3], 3);
        assert_eq!(o.deployed, 1.0);
    }

    #[test]
    fn report_shape_holds_across_seeds() {
        for seed in [1, 7, 42] {
            let r = run(seed);
            assert!(r.shape_holds, "seed {seed}: {}", r.summary);
        }
    }
}
