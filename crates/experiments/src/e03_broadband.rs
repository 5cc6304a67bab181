//! E3 — Residential broadband access (§V.A.3).
//!
//! Paper claim: "A pessimistic outcome five years in the future is that the
//! average residential customer will have two choices ... because they
//! control the wires. ... fiber installed by a neutral party such as a
//! municipality can be a platform for competitors to provide higher level
//! services. ... Proposals that implement open access at this modularity
//! boundary are more likely to benefit the Internet as a whole ... But they
//! probably will not work to the advantage of those that invest in the
//! fiber."
//!
//! Measured: the same consumer population under (a) a vertically-integrated
//! wires monopoly, (b) the telco/cable duopoly, (c) municipal open-access
//! fiber with several retail ISPs buying regulated wholesale.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::{Consumer, Market, MarketReport, Money, Provider};

/// The three §V.A.3 market structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// One vertically integrated wire owner.
    Monopoly,
    /// Telephone company vs. cable company.
    Duopoly,
    /// Municipal fiber at a regulated wholesale price + N retail ISPs.
    OpenAccessFiber {
        /// Number of retail ISPs on the fiber.
        retail_isps: usize,
    },
}

impl Structure {
    fn label(self) -> String {
        match self {
            Structure::Monopoly => "wires monopoly".into(),
            Structure::Duopoly => "telco/cable duopoly".into(),
            Structure::OpenAccessFiber { retail_isps } => {
                format!("open-access fiber + {retail_isps} ISPs")
            }
        }
    }
}

/// Outcome of one structure.
#[derive(Debug, Clone)]
pub struct BroadbandOutcome {
    /// Final market report.
    pub report: MarketReport,
    /// The wires owner's profit (the §V.A.3 "will not work to the
    /// advantage of those that invest in the fiber" number).
    pub wires_profit: Money,
}

fn consumers(n: u64, switching: Money) -> Vec<Consumer> {
    (0..n)
        .map(|id| Consumer {
            id,
            // heterogeneous willingness to pay: $40..$140
            value: Money::from_dollars(40 + (id as i64 * 100) / n as i64),
            usage_mb: 1000,
            runs_server: false,
            tunnels: false,
            switching_cost: switching,
            provider: None,
        })
        .collect()
}

/// Run one structure for `months`.
pub fn run_structure(structure: Structure, months: usize) -> BroadbandOutcome {
    // The wires cost $25/customer/month to operate whoever owns them.
    let wires_cost = Money::from_dollars(25);
    let providers = match structure {
        Structure::Monopoly => {
            vec![Provider::flat("wires-owner", Money::from_dollars(60), wires_cost)]
        }
        Structure::Duopoly => vec![
            Provider::flat("telco", Money::from_dollars(60), wires_cost),
            Provider::flat("cable", Money::from_dollars(60), wires_cost),
        ],
        Structure::OpenAccessFiber { retail_isps } => {
            // The municipality charges retail ISPs a regulated wholesale
            // rate of $28; each ISP adds its own $2 of retail cost. Retail
            // marginal cost is thus $30, slightly above the integrated
            // owner's — the paper's "less efficient technically" price of
            // modularity — but the retail layer is competitive.
            (0..retail_isps)
                .map(|i| {
                    Provider::flat(
                        &format!("retail-{i}"),
                        Money::from_dollars(45),
                        Money::from_dollars(30),
                    )
                })
                .collect()
        }
    };
    // The boundary placement sets the switching cost: changing *wires*
    // (monopoly/duopoly) means new equipment, new addresses, truck rolls;
    // changing a *retail ISP* on shared fiber is a billing change (§V.A.3,
    // the modularity argument).
    let switching = match structure {
        Structure::Monopoly | Structure::Duopoly => Money::from_dollars(250),
        Structure::OpenAccessFiber { .. } => Money::from_dollars(15),
    };
    let mut market = Market::new(consumers(40, switching), providers);
    let report = market.run(months);
    let wires_profit = match structure {
        // integrated owners keep the whole margin
        Structure::Monopoly | Structure::Duopoly => report.provider_profit,
        // the municipality earns wholesale minus wires cost on every
        // served line: $3/customer/month
        Structure::OpenAccessFiber { .. } => Money::from_dollars(3) * report.served as i64,
    };
    BroadbandOutcome { report, wires_profit }
}

/// Run E3 and produce the report. The market logic is pure; each structure
/// plays as a two-event causal chain (the wires are built, then — after a
/// seeded construction lag — the retail market settles) on the shared
/// engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let months = 80;
    let structures =
        [Structure::Monopoly, Structure::Duopoly, Structure::OpenAccessFiber { retail_isps: 4 }];
    let outcomes = replay(seed, structures, move |_, ctx, i, s| {
        ctx.span_enter("e3.buildout", Some("isp"), &[("structure", &s.label())]);
        let lag = pace(
            ctx,
            "e3.wires",
            "isp",
            &[],
            format!("{} wires go in; the retail market follows", s.label()),
        );
        ctx.span_exit(&[]);
        ctx.schedule_in(lag, move |w2: &mut Settled<BroadbandOutcome>, ctx2| {
            ctx2.span_enter("e3.market", Some("user"), &[("structure", &s.label())]);
            let o = run_structure(s, months);
            ctx2.span_exit(&[("served", &o.report.served.to_string())]);
            w2.put(i, o);
        });
    });

    let mut table = Table::new(
        "Broadband market structure (40 consumers, WTP $40-$140)",
        &["avg price", "served", "consumer surplus", "wires-owner profit"],
    );
    for (s, o) in structures.into_iter().zip(&outcomes) {
        table.push_row(
            &s.label(),
            &[
                o.report.avg_headline.to_string(),
                o.report.served.to_string(),
                o.report.consumer_surplus.to_string(),
                o.wires_profit.to_string(),
            ],
        );
    }
    let (mono, duo, open) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    // Shape: open access gives the lowest price, the most service and the
    // most consumer surplus — and the smallest return to the wires owner.
    let shape_holds = open.report.avg_headline < duo.report.avg_headline
        && duo.report.avg_headline < mono.report.avg_headline
        && open.report.served >= duo.report.served
        && open.report.consumer_surplus > mono.report.consumer_surplus
        && open.wires_profit < mono.wires_profit;

    ExperimentReport {
        id: "E3".into(),
        section: "V.A.3".into(),
        paper_claim: "Open access at the facilities/service modularity boundary benefits \
                      consumers (price, coverage) but not the party that invested in the fiber."
            .into(),
        summary: format!(
            "avg price: monopoly {} > duopoly {} > open access {}; wires profit: {} vs {} vs {}.",
            mono.report.avg_headline,
            duo.report.avg_headline,
            open.report.avg_headline,
            mono.wires_profit,
            duo.wires_profit,
            open.wires_profit,
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
    fn competition_ladder_orders_prices() {
        let mono = run_structure(Structure::Monopoly, 60);
        let duo = run_structure(Structure::Duopoly, 60);
        let open = run_structure(Structure::OpenAccessFiber { retail_isps: 4 }, 60);
        assert!(open.report.avg_headline < duo.report.avg_headline);
        assert!(duo.report.avg_headline < mono.report.avg_headline);
    }

    #[test]
    fn fiber_owner_earns_least_under_open_access() {
        let mono = run_structure(Structure::Monopoly, 60);
        let open = run_structure(Structure::OpenAccessFiber { retail_isps: 4 }, 60);
        assert!(open.wires_profit < mono.wires_profit);
        assert!(open.wires_profit.is_positive(), "but it is not a charity");
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
