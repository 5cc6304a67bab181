//! E14 — Game-theoretic substrate validation (§II.B).
//!
//! Paper claims exercised:
//! 1. Vickrey mechanisms make the information sub-game tussle-free
//!    (truth-telling weakly dominates); first-price auctions keep it alive
//!    (shading strictly pays).
//! 2. TCP congestion compliance rests on social pressure, and "should this
//!    balance change, the technical design of the system will do nothing to
//!    bound or guide the resulting shift" — compliance tips from near-total
//!    to near-zero as the pressure term crosses the bandwidth-grab payoff.
//! 3. The zero-sum ↔ coordination spectrum: learning dynamics find the
//!    mixed equilibrium of a purely conflicting game and the payoff-
//!    dominant outcome of a coordination game.

use crate::chain::{lag, pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_game::auction::truthful_vs_deviation;
use tussle_game::repeated::CongestionGame;
use tussle_game::solve::is_nash;
use tussle_game::{FictitiousPlay, Game};
use tussle_sim::{Ctx, SimRng};

/// Vickrey truthfulness over random profiles drawn from `rng`: count of
/// profitable deviations found (paper prediction: zero).
pub fn vickrey_deviations(trials: usize, rng: &mut SimRng) -> usize {
    let mut violations = 0;
    for _ in 0..trials {
        let n_others = rng.range(1..5usize);
        let others: Vec<f64> = (0..n_others).map(|_| rng.range(0.0..100.0)).collect();
        let value = rng.range(0.0..100.0);
        let alt = rng.range(0.0..150.0);
        let (truthful, deviant) = truthful_vs_deviation(&others, value, alt);
        if deviant > truthful + 1e-9 {
            violations += 1;
        }
    }
    violations
}

/// [`vickrey_deviations`] with a self-seeded stream (the unit-test entry).
pub fn vickrey_violations(trials: usize, seed: u64) -> usize {
    let mut rng = SimRng::seed_from_u64(seed).fork("e14-vickrey");
    vickrey_deviations(trials, &mut rng)
}

/// Final defector share of the congestion game at a given social-pressure
/// level.
pub fn compliance_at(pressure: f64) -> f64 {
    CongestionGame { defector_gain: 2.0, collapse_severity: 0.6, social_pressure: pressure }
        .evolve(0.1, 60_000)
}

/// Fictitious play's distance from the known mixed equilibrium of matching
/// pennies.
pub fn matching_pennies_error(rounds: u64) -> f64 {
    let g = Game::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]);
    let mut fp = FictitiousPlay::new(g);
    fp.run(rounds);
    (fp.row_empirical()[0] - 0.5).abs().max((fp.col_empirical()[0] - 0.5).abs())
}

/// The social-pressure sweep for the congestion game.
const PRESSURES: [f64; 4] = [0.0, 0.3, 0.8, 1.5];
/// Vickrey profiles sampled.
const TRIALS: usize = 2_000;

/// What E14's one chain settles: the three sub-games' results, filled in
/// phase by phase as the chain carries them along.
#[derive(Default)]
struct Games {
    violations: usize,
    defection: Vec<f64>,
    fp_error: f64,
    coord: (f64, bool),
}

/// One congestion-game pressure level as a span carried across two engine
/// events (enter → evolve → exit after a seeded settling period), chaining
/// to the next level; the last level hands off to the learning sub-game.
fn pressure_level(ctx: &mut Ctx<Settled<Games>>, mut games: Games) {
    let idx = games.defection.len();
    let p = PRESSURES[idx];
    ctx.span_enter("e14.congestion", Some("user"), &[("pressure", &p.to_string())]);
    let d = compliance_at(p);
    games.defection.push(d);
    let settle = pace(
        ctx,
        "e14.evolved",
        "user",
        &[("defectors", &format!("{d:.3}"))],
        format!("pressure {p}: defector share settles at {d:.3}"),
    );
    ctx.schedule_in(settle, move |_, ctx2| {
        ctx2.span_exit(&[("defectors", &format!("{d:.3}"))]);
        if idx + 1 < PRESSURES.len() {
            pressure_level(ctx2, games);
        } else {
            learning_phase(ctx2, games);
        }
    });
}

/// The learning-dynamics sub-game: matching pennies, then the coordination
/// game, each under its own span on the virtual timeline; the chain
/// settles when the coordination span closes.
fn learning_phase(ctx: &mut Ctx<Settled<Games>>, mut games: Games) {
    ctx.span_enter("e14.learning", Some("society"), &[("game", "matching-pennies")]);
    games.fp_error = matching_pennies_error(20_000);
    let settle = lag(ctx);
    ctx.schedule_in(settle, move |_, ctx2| {
        ctx2.span_exit(&[("error", &format!("{:.3}", games.fp_error))]);
        ctx2.span_enter("e14.learning", Some("society"), &[("game", "coordination")]);
        let g = Game::coordination(vec![1.0, 3.0]);
        let mut fp = FictitiousPlay::new(g.clone());
        fp.run(5_000);
        let x = fp.row_empirical();
        let y = fp.col_empirical();
        games.coord = (x[1], is_nash(&g, &x, &y, 0.05));
        let settle2 = lag(ctx2);
        ctx2.schedule_in(settle2, move |w3, ctx3| {
            ctx3.span_exit(&[("dominant_mass", &format!("{:.3}", games.coord.0))]);
            ctx3.trace("e14.settled", "all three sub-games settled");
            w3.put(0, games);
        });
    });
}

/// Run E14 and produce the report. The three sub-games run as one
/// sequential causal chain — Vickrey auctions, the congestion-compliance
/// sweep, then learning dynamics — so the run's flamegraph
/// (`tests/golden/E14.collapsed`) shows the spans in phase order with real
/// virtual-time widths.
pub fn run(seed: u64) -> ExperimentReport {
    let mut games = replay(seed, [()], |_, ctx, _, ()| {
        ctx.span_enter("e14.vickrey", Some("provider"), &[("trials", &TRIALS.to_string())]);
        let violations = vickrey_deviations(TRIALS, ctx.rng);
        let settle = pace(
            ctx,
            "e14.audited",
            "provider",
            &[("violations", &violations.to_string())],
            format!("{violations} profitable deviations in {TRIALS} sampled profiles"),
        );
        ctx.schedule_in(settle, move |_, ctx2| {
            ctx2.span_exit(&[("violations", &violations.to_string())]);
            pressure_level(ctx2, Games { violations, ..Games::default() });
        });
    });
    let Games { violations, defection, fp_error, coord } = games.remove(0);
    let (trials, pressures) = (TRIALS, PRESSURES);

    let mut table = Table::new("Game-theoretic substrate checks", &["metric", "value"]);
    table.push_row(
        "Vickrey profitable deviations",
        &["violations / trials".into(), format!("{violations} / {trials}")],
    );
    for (p, d) in pressures.iter().zip(&defection) {
        table.push_row(
            &format!("congestion defection @ pressure {p}"),
            &["final defector share".into(), format!("{d:.3}")],
        );
    }
    table.push_row(
        "matching pennies (fictitious play)",
        &["|empirical - equilibrium|".into(), format!("{fp_error:.3}")],
    );
    table.push_row(
        "coordination game",
        &["mass on payoff-dominant action".into(), format!("{:.3} (nash: {})", coord.0, coord.1)],
    );

    let shape_holds = violations == 0
        && defection[0] > 0.9 // no pressure: compliance collapses
        && defection[3] < 0.05 // strong pressure: compliance holds
        && defection.windows(2).all(|w| w[1] <= w[0] + 1e-9) // monotone
        && fp_error < 0.02
        && coord.0 > 0.9
        && coord.1;

    ExperimentReport {
        id: "E14".into(),
        section: "II.B".into(),
        paper_claim: "Vickrey's mechanism makes truthful revelation dominant (a tussle-free \
                      information sub-game); TCP congestion compliance survives only while \
                      social pressure outweighs the defection payoff, with nothing technical \
                      bounding the shift; learning dynamics recover equilibria across the \
                      zero-sum/coordination spectrum."
            .into(),
        summary: format!(
            "{violations} profitable Vickrey deviations in {trials} trials; congestion \
             defection falls {:.2} → {:.2} as social pressure rises 0 → 1.5; fictitious play \
             reaches the matching-pennies mix within {:.3}.",
            defection[0], defection[3], fp_error,
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
    fn vickrey_is_truthful_everywhere_we_look() {
        assert_eq!(vickrey_violations(500, 3), 0);
    }

    #[test]
    fn congestion_compliance_tips_with_pressure() {
        assert!(compliance_at(0.0) > 0.9);
        assert!(compliance_at(1.5) < 0.05);
    }

    #[test]
    fn fictitious_play_converges() {
        assert!(matching_pennies_error(20_000) < 0.02);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
