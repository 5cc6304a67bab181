//! The engine replay the experiments share.
//!
//! Each experiment plays its cases (regimes, designs, rates, ...) as
//! causal chains of engine events on one clock. [`replay`] fires case
//! `i`'s root event at `i` ms, runs the engine dry and hands back each
//! chain's outcome in case order. [`pace`] is the seeded lag between two
//! hops of a chain, traced so `explain` can walk it and `diff` can bisect
//! it. The order of the span, trace, pace and schedule calls inside a chain
//! is part of every golden digest.

use std::rc::Rc;
use tussle_sim::{Ctx, Engine, SimTime};

/// A replay's world: one outcome slot per case.
pub(crate) struct Settled<O> {
    slots: Vec<Option<O>>,
}

impl<O> Settled<O> {
    /// Record case `i`'s outcome; a chain calls this once, when it settles.
    pub(crate) fn put(&mut self, i: usize, outcome: O) {
        self.slots[i] = Some(outcome);
    }
}

/// Replay `cases` on an engine seeded with `seed`. Case `i`'s `root` runs
/// at `i` ms with the case index and value; the chains it starts run to
/// completion. Returns the outcomes in case order, whatever order the
/// chains settled in. Panics if a chain never [`Settled::put`] its outcome.
pub(crate) fn replay<C: 'static, O: 'static>(
    seed: u64,
    cases: impl IntoIterator<Item = C>,
    root: impl Fn(&mut Settled<O>, &mut Ctx<Settled<O>>, usize, C) + 'static,
) -> Vec<O> {
    let root = Rc::new(root);
    let mut eng = Engine::new(Settled { slots: Vec::new() }, seed);
    for (i, case) in cases.into_iter().enumerate() {
        eng.world.slots.push(None);
        let root = Rc::clone(&root);
        eng.schedule_at(SimTime::from_millis(i as u64), move |w, ctx| root(w, ctx, i, case));
    }
    eng.run_to_completion();
    let slots = eng.world.slots.into_iter().enumerate();
    slots.map(|(i, o)| o.unwrap_or_else(|| panic!("case {i}'s chain never settled"))).collect()
}

/// The seeded lag between two hops of a chain: one rng draw, 100 to
/// 5,000 µs. [`pace`] draws and traces it; call this directly only where
/// the lag goes untraced.
pub(crate) fn lag<W>(ctx: &mut Ctx<W>) -> SimTime {
    SimTime::from_micros(ctx.rng.range(100..5_000u64))
}

/// Draw the next hop's [`lag`] and trace it under `topic`, with `lag_us`
/// after the caller's `fields`. Returns the lag to schedule the hop with.
pub(crate) fn pace<W>(
    ctx: &mut Ctx<W>,
    topic: &str,
    actor: &str,
    fields: &[(&str, &str)],
    message: impl Into<String>,
) -> SimTime {
    let lag = lag(ctx);
    let lag_us = lag.as_micros().to_string();
    let mut all: Vec<(&str, &str)> = fields.to_vec();
    all.push(("lag_us", &lag_us));
    ctx.trace_fields(topic, Some(actor), &all, message);
    lag
}

#[cfg(test)]
mod tests {
    use super::*;
    use tussle_sim::obs::{self, ObsMode};

    /// One hop of a chain that settles after `left` more 2 ms hops,
    /// recording when it settled.
    fn hop(
        w: &mut Settled<(usize, u64)>,
        ctx: &mut Ctx<Settled<(usize, u64)>>,
        i: usize,
        left: u32,
    ) {
        if left == 0 {
            w.put(i, (i, ctx.now().as_micros()));
        } else {
            ctx.schedule_in(SimTime::from_millis(2), move |w2, ctx2| hop(w2, ctx2, i, left - 1));
        }
    }

    #[test]
    fn replay_returns_case_order_when_chains_settle_out_of_order() {
        // Case 0 takes three hops and settles at 6 ms; case 1 settles at
        // once, at its 1 ms root.
        let out = replay(1, [3u32, 0], hop);
        assert_eq!(out, vec![(0, 6_000), (1, 1_000)]);
    }

    #[test]
    #[should_panic(expected = "case 1's chain never settled")]
    fn replay_panics_on_a_chain_that_never_settles() {
        replay(1, [0u32, 1], |w: &mut Settled<u32>, _ctx, i, c| {
            if c == 0 {
                w.put(i, c);
            }
        });
    }

    #[test]
    fn pace_draws_once_and_traces_lag_last() {
        let out = replay(7, [()], |w, ctx, i, ()| {
            let guard = obs::begin(ObsMode::Cost);
            let before = ctx.rng.word_pos();
            let lag = pace(ctx, "t.pace", "user", &[("a", "1"), ("b", "2")], "next hop");
            let after = ctx.rng.word_pos();
            let draws = guard.finish().rng_draws;
            let entry = ctx.trace.entries().last().expect("pace traced").clone();
            w.put(i, (lag, after - before, draws, entry));
        });
        let (lag, words, draws, entry) = &out[0];
        assert!((100..5_000).contains(&lag.as_micros()), "lag {lag:?}");
        assert_eq!((*draws, *words), (1, 2), "one 64-bit draw");
        assert_eq!((entry.topic.as_str(), entry.stakeholder.as_deref()), ("t.pace", Some("user")));
        let keys: Vec<&str> = entry.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "lag_us"]);
        assert_eq!(entry.fields[2].1, lag.as_micros().to_string());
    }
}
