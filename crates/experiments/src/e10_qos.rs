//! E10 — The QoS deployment post-mortem (§VII).
//!
//! Paper claim: "One can thus see the failure of QoS deployment as a
//! failure first to design any value-transfer mechanism to give the
//! providers the possibility of being rewarded for making the investment
//! (greed), and second, a failure to couple the design to a mechanism
//! whereby the user can exercise choice to select the provider who offered
//! the service (competitive fear)." Plus the closed-deployment corollary:
//! "if they deploy QoS mechanisms but only turn them on for applications
//! that they sell ... they can price it at monopoly prices."
//!
//! Measured: five heterogeneous ISPs evaluate the open-QoS investment in
//! each cell of the 2×2 {value transfer, provider choice}; a final row
//! shows the closed/vertically-integrated deployment that needs neither.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::{InvestmentCase, Money};
use tussle_sim::{Ctx, SimRng, SimTime};

/// Deployment results for one cell of the factorial.
#[derive(Debug, Clone, PartialEq)]
pub struct QosCell {
    /// Whether a value-transfer mechanism exists.
    pub value_transfer: bool,
    /// Whether consumers can route to the deploying provider.
    pub provider_choice: bool,
    /// How many of the ISPs deploy open QoS.
    pub deployments: usize,
    /// Total ISPs considered.
    pub isps: usize,
}

/// Per-ISP upgrade costs (router upgrades + management + operations),
/// drawn once from the seed so the population is heterogeneous.
fn costs(seed: u64, n: usize) -> Vec<Money> {
    let mut rng = SimRng::seed_from_u64(seed).fork("e10");
    (0..n).map(|_| Money::from_dollars(rng.range(80..140i64))).collect()
}

/// Evaluate one factorial cell.
pub fn run_cell(value_transfer: bool, provider_choice: bool, seed: u64) -> QosCell {
    let costs = costs(seed, 5);
    let deployments = costs
        .iter()
        .filter(|cost| {
            InvestmentCase {
                cost: **cost,
                greed_revenue: Money::from_dollars(75),
                fear_loss: Money::from_dollars(75),
                value_transfer_exists: value_transfer,
                consumer_can_choose: provider_choice,
            }
            .deploys()
        })
        .count();
    QosCell { value_transfer, provider_choice, deployments, isps: costs.len() }
}

/// The closed-deployment corollary: a vertically integrated ISP selling
/// its own telephony at monopoly prices. Greed alone is enormous because
/// the value capture needs no open payment standard.
pub fn run_closed(seed: u64) -> QosCell {
    let costs = costs(seed, 5);
    let deployments = costs
        .iter()
        .filter(|cost| {
            InvestmentCase {
                cost: **cost,
                greed_revenue: Money::from_dollars(400), // monopoly pricing
                fear_loss: Money::ZERO,
                value_transfer_exists: true, // they bill themselves
                consumer_can_choose: false,
            }
            .deploys()
        })
        .count();
    QosCell { value_transfer: true, provider_choice: false, deployments, isps: costs.len() }
}

/// Each ISP's board takes one virtual quarter-millisecond to evaluate the
/// investment case; the factorial cells are laid out back-to-back on the
/// virtual timeline so the run's flamegraph and activity series have a
/// deterministic shape (only the inter-cell lag is seeded).
const EVAL_MICROS_PER_ISP: u64 = 250;

/// E10's replay world. Its one chain settles the four factorial cells,
/// then the closed-deployment corollary.
type Meetings = Settled<(Vec<QosCell>, QosCell)>;

/// One board meeting as a pair of engine events: the span opens when the
/// boards convene and closes one eval period later, so the run's
/// flamegraph (`tests/golden/E10.collapsed`) keeps real virtual-time
/// widths. Meetings chain sequentially — each close schedules the next
/// cell after a seeded scheduling lag — carrying the settled `cells`.
fn board_meeting(ctx: &mut Ctx<Meetings>, seed: u64, mut cells: Vec<QosCell>) {
    // The factorial in deployment order, then the closed corollary.
    const FACTORIAL: [(bool, bool); 4] =
        [(false, false), (true, false), (false, true), (true, true)];
    let idx = cells.len();
    let closed_round = idx >= FACTORIAL.len();
    let (vt, pc) = if closed_round { (true, false) } else { FACTORIAL[idx] };
    ctx.span_enter(
        if closed_round { "e10.closed" } else { "e10.cell" },
        Some("isp"),
        &[("transfer", if vt { "+" } else { "-" }), ("choice", if pc { "+" } else { "-" })],
    );
    let cell = if closed_round { run_closed(seed) } else { run_cell(vt, pc, seed) };
    let eval = SimTime::from_micros(EVAL_MICROS_PER_ISP * cell.isps as u64);
    ctx.schedule_in(eval, move |w2, ctx2| {
        ctx2.span_exit(&[("deployments", &cell.deployments.to_string())]);
        if closed_round {
            ctx2.trace_fields(
                "e10.settled",
                Some("isp"),
                &[("deployments", &cell.deployments.to_string())],
                "closed-QoS corollary settles",
            );
            w2.put(0, (cells, cell));
        } else {
            let lag = pace(
                ctx2,
                "e10.adjourn",
                "isp",
                &[],
                format!("cell {idx} adjourns; next board convenes"),
            );
            cells.push(cell);
            ctx2.schedule_in(lag, move |_, ctx3| board_meeting(ctx3, seed, cells));
        }
    });
}

/// Run E10 and produce the report. The five board meetings run as one
/// sequential causal chain of engine events on the shared clock.
pub fn run(seed: u64) -> ExperimentReport {
    let (cells, closed) =
        replay(seed, [()], move |_, ctx, _, ()| board_meeting(ctx, seed, Vec::new())).remove(0);

    let mut table = Table::new(
        "Open-QoS deployment across the fear/greed factorial (5 ISPs, cost $80-$140)",
        &["value transfer", "provider choice", "ISPs deploying"],
    );
    for c in &cells {
        table.push_row(
            &format!(
                "open QoS: transfer={} choice={}",
                if c.value_transfer { "+" } else { "-" },
                if c.provider_choice { "+" } else { "-" }
            ),
            &[
                c.value_transfer.to_string(),
                c.provider_choice.to_string(),
                format!("{}/{}", c.deployments, c.isps),
            ],
        );
    }
    table.push_row(
        "closed QoS (vertical integration)",
        &["true".into(), "false".into(), format!("{}/{}", closed.deployments, closed.isps)],
    );

    let shape_holds = cells[0].deployments == 0
        && cells[1].deployments == 0
        && cells[2].deployments == 0
        && cells[3].deployments == cells[3].isps
        && closed.deployments == closed.isps;

    ExperimentReport {
        id: "E10".into(),
        section: "VII".into(),
        paper_claim: "Open QoS deploys only when BOTH a value-transfer mechanism (greed) and \
                      consumer provider-choice (fear) exist; neither alone covers the upgrade \
                      cost. Closed QoS — turned on only for the ISP's own applications — \
                      deploys on greed alone, at monopoly prices, shrinking the open Internet."
            .into(),
        summary: format!(
            "deployments: (-,-)={} (+,-)={} (-,+)={} (+,+)={} of 5; closed QoS {} of 5.",
            cells[0].deployments,
            cells[1].deployments,
            cells[2].deployments,
            cells[3].deployments,
            closed.deployments,
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
    fn only_the_full_cell_deploys_open_qos() {
        for seed in [1, 7, 99] {
            assert_eq!(run_cell(false, false, seed).deployments, 0);
            assert_eq!(run_cell(true, false, seed).deployments, 0);
            assert_eq!(run_cell(false, true, seed).deployments, 0);
            let full = run_cell(true, true, seed);
            assert_eq!(full.deployments, full.isps);
        }
    }

    #[test]
    fn closed_qos_deploys_without_choice() {
        let c = run_closed(1);
        assert_eq!(c.deployments, c.isps);
    }

    #[test]
    fn costs_are_deterministic_per_seed() {
        assert_eq!(costs(5, 5), costs(5, 5));
        assert_ne!(costs(5, 5), costs(6, 5));
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
        assert_eq!(r.table.rows.len(), 5);
    }
}
