//! E15 — The rise and fall of micro-payments (§IV.C).
//!
//! Paper claim: "(There is an interesting case study in the rise and fall
//! of micro-payments, the success of the traditional credit card companies
//! for Internet payments, and the emergence of PayPal and similar
//! schemes.)" — the paper leaves the case study parenthetical; we run it.
//!
//! Measured: across payment sizes, which instrument has the lowest total
//! overhead (fees + user friction) once the §V.B requirement of buyer
//! protection is imposed. The shape of the historical outcome: pure
//! micro-payment tokens never win a protected transaction at any size;
//! account aggregation (the PayPal shape) takes the small end; percentage
//! economics decide the large end; and below the friction floor *no*
//! instrument is viable — which is why sub-cent content is sold in
//! bundles, not per item.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::payments::{best_instrument, viable, Instrument};
use tussle_econ::Money;
use tussle_sim::Ctx;

/// Outcome at one payment size.
#[derive(Debug, Clone, PartialEq)]
pub struct PaymentPoint {
    /// Payment amount.
    pub amount: Money,
    /// Winner among buyer-protected instruments.
    pub winner_protected: Instrument,
    /// Winner with protection waived (trusted counterparty).
    pub winner_unprotected: Instrument,
    /// Overhead ratio of the protected winner.
    pub overhead_ratio: f64,
    /// Is anything viable (overhead under half the payment)?
    pub any_viable: bool,
}

/// Evaluate one payment size.
pub fn run_point(amount: Money) -> PaymentPoint {
    let winner_protected = best_instrument(amount, true);
    let winner_unprotected = best_instrument(amount, false);
    PaymentPoint {
        amount,
        winner_protected,
        winner_unprotected,
        overhead_ratio: winner_protected.overhead_ratio(amount),
        any_viable: Instrument::all().iter().any(|i| viable(*i, amount, 0.5)),
    }
}

/// The payment sizes swept, smallest first.
const SIZES: [Money; 6] = [
    Money(1_000),       // $0.001 — the micropayment dream
    Money(10_000),      // $0.01
    Money(250_000),     // $0.25 — a song snippet
    Money(1_000_000),   // $1
    Money(10_000_000),  // $10
    Money(100_000_000), // $100
];

/// E15's replay world: the one chain's points, in size order.
type Sweep = Settled<Vec<PaymentPoint>>;

/// One payment size as an engine event, chaining up-market to the next;
/// the largest size settles the sweep's `points`.
fn run_size(w: &mut Sweep, ctx: &mut Ctx<Sweep>, mut points: Vec<PaymentPoint>) {
    let idx = points.len();
    let amount = SIZES[idx];
    ctx.span_enter("e15.size", Some("provider"), &[("amount", &amount.to_string())]);
    let p = run_point(amount);
    ctx.span_exit(&[("winner", &format!("{:?}", p.winner_protected))]);
    points.push(p);
    if idx + 1 < SIZES.len() {
        let lag = pace(
            ctx,
            "e15.upmarket",
            "provider",
            &[],
            format!("{amount} settled; the market moves up a size band"),
        );
        ctx.schedule_in(lag, move |w2, ctx2| run_size(w2, ctx2, points));
    } else {
        w.put(0, points);
    }
}

/// Run E15 and produce the report. The instrument economics are pure; the
/// size sweep runs as one causal chain of engine events on the shared
/// clock, smallest payment first.
pub fn run(seed: u64) -> ExperimentReport {
    let points = replay(seed, [()], |w, ctx, _, ()| run_size(w, ctx, Vec::new())).remove(0);

    let mut table = Table::new(
        "Best payment instrument by transaction size",
        &["protected winner", "unprotected winner", "overhead ratio", "viable at all"],
    );
    for p in &points {
        table.push_row(
            &p.amount.to_string(),
            &[
                format!("{:?}", p.winner_protected),
                format!("{:?}", p.winner_unprotected),
                format!("{:.3}", p.overhead_ratio),
                p.any_viable.to_string(),
            ],
        );
    }

    // The historical shape:
    let micropayment_never_wins_protected =
        points.iter().all(|p| p.winner_protected != Instrument::Micropayment);
    let sub_cent_dead = !points[0].any_viable;
    let aggregator_takes_the_small_end = points[2].winner_protected == Instrument::Aggregator
        && points[3].winner_protected == Instrument::Aggregator;
    let overhead_falls_with_size =
        points.windows(2).all(|w| w[1].overhead_ratio <= w[0].overhead_ratio + 1e-12);
    let shape_holds = micropayment_never_wins_protected
        && sub_cent_dead
        && aggregator_takes_the_small_end
        && overhead_falls_with_size;

    ExperimentReport {
        id: "E15".into(),
        section: "IV.C".into(),
        paper_claim: "Micro-payments fell, credit-card-style protected instruments won, and \
                      PayPal-shaped aggregation emerged — value flow needs trust mediation and \
                      amortized fixed costs, not just low marginal fees."
            .into(),
        summary: format!(
            "micropayments win a protected transaction at no size; sub-cent payments are not \
             viable for any instrument (overhead ratio {:.1} at $0.001); aggregation wins from \
             $0.25 through $1; overhead falls monotonically with size.",
            points[0].overhead_ratio
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
    fn micropayments_never_win_when_protection_matters() {
        for amount in [Money(1_000), Money(250_000), Money::from_dollars(50)] {
            assert_ne!(run_point(amount).winner_protected, Instrument::Micropayment);
        }
    }

    #[test]
    fn sub_cent_content_is_unsellable_per_item() {
        let p = run_point(Money(1_000));
        assert!(!p.any_viable);
        assert!(p.overhead_ratio > 1.0, "overhead exceeds the payment itself");
    }

    #[test]
    fn overhead_ratio_is_monotone_decreasing() {
        let a = run_point(Money(10_000)).overhead_ratio;
        let b = run_point(Money::from_dollars(1)).overhead_ratio;
        let c = run_point(Money::from_dollars(100)).overhead_ratio;
        assert!(a > b && b > c);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
        assert_eq!(r.table.rows.len(), 6);
    }
}
