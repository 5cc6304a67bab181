//! Property tests for actor-network dynamics.

use proptest::prelude::*;
use tussle_actors::{ActorId, ActorKind, ActorNetwork};

/// The map-based actor network the flat edge list replaced, kept verbatim
/// as a reference model: an alignment `BTreeMap` keyed by `(low, high)`
/// and a stance `Vec` per actor.
mod reference {
    use std::collections::BTreeMap;
    use tussle_actors::{ActorId, ActorKind};

    pub struct Actor {
        pub kind: ActorKind,
        pub stances: Vec<f64>,
        pub active: bool,
    }

    pub struct MapNetwork {
        pub actors: Vec<Actor>,
        pub alignment: BTreeMap<(ActorId, ActorId), f64>,
        pub issue_count: usize,
    }

    impl MapNetwork {
        pub fn new(issue_count: usize) -> Self {
            MapNetwork { actors: Vec::new(), alignment: BTreeMap::new(), issue_count }
        }

        pub fn add_actor(&mut self, kind: ActorKind, stances: Vec<f64>) -> ActorId {
            let id = ActorId(self.actors.len() as u32);
            let mut s: Vec<f64> = stances.into_iter().map(|v| v.clamp(-1.0, 1.0)).collect();
            s.resize(self.issue_count, 0.0);
            self.actors.push(Actor { kind, stances: s, active: true });
            id
        }

        pub fn remove_actor(&mut self, id: ActorId) {
            if let Some(a) = self.actors.get_mut(id.index()) {
                a.active = false;
            }
            self.alignment.retain(|(x, y), _| *x != id && *y != id);
        }

        fn key(a: ActorId, b: ActorId) -> (ActorId, ActorId) {
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        }

        pub fn align(&mut self, a: ActorId, b: ActorId, strength: f64) {
            if a == b {
                return;
            }
            self.alignment.insert(Self::key(a, b), strength.clamp(0.0, 1.0));
        }

        pub fn alignment(&self, a: ActorId, b: ActorId) -> f64 {
            self.alignment.get(&Self::key(a, b)).copied().unwrap_or(0.0)
        }

        pub fn conflict(&self, a: ActorId, b: ActorId) -> f64 {
            let sa = &self.actors[a.index()].stances;
            let sb = &self.actors[b.index()].stances;
            if sa.is_empty() {
                return 0.0;
            }
            let total: f64 = sa.iter().zip(sb).map(|(x, y)| (x - y).abs()).sum();
            (total / sa.len() as f64) / 2.0
        }

        pub fn durability(&self) -> f64 {
            let mut weight_sum = 0.0;
            let mut value_sum = 0.0;
            for ((a, b), s) in &self.alignment {
                let aa = &self.actors[a.index()];
                let bb = &self.actors[b.index()];
                if !aa.active || !bb.active {
                    continue;
                }
                let w = if aa.kind == ActorKind::Technology || bb.kind == ActorKind::Technology {
                    2.0
                } else {
                    1.0
                };
                weight_sum += w;
                value_sum += w * s;
            }
            if weight_sum == 0.0 {
                0.0
            } else {
                value_sum / weight_sum
            }
        }

        pub fn tussle_energy(&self) -> f64 {
            self.alignment
                .iter()
                .filter(|((a, b), _)| {
                    self.actors[a.index()].active && self.actors[b.index()].active
                })
                .map(|((a, b), s)| s * self.conflict(*a, *b))
                .sum()
        }

        pub fn relax(&mut self, rate: f64) {
            let pairs: Vec<(ActorId, ActorId, f64)> =
                self.alignment.iter().map(|((a, b), s)| (*a, *b, *s)).collect();
            for (a, b, s) in pairs {
                if !self.actors[a.index()].active || !self.actors[b.index()].active {
                    continue;
                }
                for i in 0..self.issue_count {
                    let xa = self.actors[a.index()].stances[i];
                    let xb = self.actors[b.index()].stances[i];
                    let pull = rate * s * (xb - xa) / 2.0;
                    self.actors[a.index()].stances[i] = (xa + pull).clamp(-1.0, 1.0);
                    self.actors[b.index()].stances[i] = (xb - pull).clamp(-1.0, 1.0);
                }
                let e = self.alignment.get_mut(&Self::key(a, b)).expect("pair existed");
                *e = (*e + rate * 0.1).min(1.0);
            }
        }
    }
}

/// One mutation of an actor network. Actor indices are taken modulo the
/// actors present, so every op applies whatever came before it.
#[derive(Debug, Clone)]
enum Op {
    Add(usize, Vec<f64>),
    Align(usize, usize, f64),
    /// Re-align the `n`th existing pair, optionally with its ends swapped.
    Realign(usize, bool, f64),
    Remove(usize),
    Relax(f64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, proptest::collection::vec(-2.0f64..2.0, 0..6)).prop_map(|(k, s)| Op::Add(k, s)),
        (0usize..64, 0usize..64, -0.5f64..1.5).prop_map(|(a, b, w)| Op::Align(a, b, w)),
        (0usize..64, 0usize..2, -0.5f64..1.5).prop_map(|(n, r, w)| Op::Realign(n, r == 1, w)),
        (0usize..64).prop_map(Op::Remove),
        (0.0f64..3.0).prop_map(Op::Relax),
    ]
}

/// Bit-for-bit agreement of every observable between the two networks.
fn assert_same(net: &ActorNetwork, model: &reference::MapNetwork) {
    assert_eq!(net.tussle_energy().to_bits(), model.tussle_energy().to_bits(), "energy");
    assert_eq!(net.durability().to_bits(), model.durability().to_bits(), "durability");
    let n = model.actors.len() as u32;
    for a in (0..n).map(ActorId) {
        assert_eq!(net.actor(a).active, model.actors[a.index()].active, "active {a:?}");
        let (got, want) = (net.stances(a), &model.actors[a.index()].stances);
        assert_eq!(got.len(), want.len(), "stance count {a:?}");
        for (x, y) in got.iter().zip(want) {
            assert_eq!(x.to_bits(), y.to_bits(), "stance of {a:?}");
        }
        for b in (0..n).map(ActorId) {
            assert_eq!(
                net.alignment(a, b).to_bits(),
                model.alignment(a, b).to_bits(),
                "alignment {a:?}-{b:?}"
            );
            assert_eq!(
                net.conflict(a, b).to_bits(),
                model.conflict(a, b).to_bits(),
                "conflict {a:?}-{b:?}"
            );
        }
    }
}

fn arb_kind(i: usize) -> ActorKind {
    match i % 3 {
        0 => ActorKind::Human,
        1 => ActorKind::Technology,
        _ => ActorKind::Institution,
    }
}

proptest! {
    /// Durability and alignment stay in [0, 1]; tussle energy is
    /// nonnegative and bounded by the number of aligned pairs.
    #[test]
    fn metrics_are_bounded(
        n in 2usize..8,
        stances in proptest::collection::vec(-2.0f64..2.0, 8 * 2),
        aligns in proptest::collection::vec((0usize..8, 0usize..8, -0.5f64..1.5), 0..20),
    ) {
        let mut net = ActorNetwork::new(2);
        for i in 0..n {
            net.add_actor(arb_kind(i), &format!("a{i}"), vec![stances[i * 2], stances[i * 2 + 1]]);
        }
        let mut pairs = 0usize;
        for (a, b, w) in &aligns {
            let (a, b) = (a % n, b % n);
            if a != b {
                net.align(
                    tussle_actors::ActorId(a as u32),
                    tussle_actors::ActorId(b as u32),
                    *w,
                );
                pairs += 1;
            }
        }
        let d = net.durability();
        prop_assert!((0.0..=1.0).contains(&d), "durability {d}");
        let e = net.tussle_energy();
        prop_assert!(e >= 0.0);
        prop_assert!(e <= pairs as f64 + 1e-9, "energy {e} over {pairs} pairs");
    }

    /// Relaxation never increases tussle energy and never decreases
    /// durability; stances stay clamped.
    #[test]
    fn relaxation_is_monotone(
        stances in proptest::collection::vec(-1.0f64..1.0, 6),
        steps in 1usize..50,
    ) {
        let mut net = ActorNetwork::new(1);
        for (i, s) in stances.iter().enumerate() {
            net.add_actor(arb_kind(i), &format!("a{i}"), vec![*s]);
        }
        for i in 0..stances.len() {
            for j in (i + 1)..stances.len() {
                net.align(tussle_actors::ActorId(i as u32), tussle_actors::ActorId(j as u32), 0.5);
            }
        }
        let mut prev_e = net.tussle_energy();
        let mut prev_d = net.durability();
        for _ in 0..steps {
            net.relax(0.1);
            let e = net.tussle_energy();
            let d = net.durability();
            prop_assert!(e <= prev_e + 1e-9, "energy rose {prev_e} -> {e}");
            prop_assert!(d >= prev_d - 1e-9, "durability fell {prev_d} -> {d}");
            prev_e = e;
            prev_d = d;
            for a in net.active_actors() {
                for s in net.stances(a.id) {
                    prop_assert!((-1.0..=1.0).contains(s));
                }
            }
        }
    }

    /// Conflict is a symmetric semi-metric over stances.
    #[test]
    fn conflict_is_symmetric(
        sa in proptest::collection::vec(-1.0f64..1.0, 3),
        sb in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let mut net = ActorNetwork::new(3);
        let a = net.add_actor(ActorKind::Human, "a", sa);
        let b = net.add_actor(ActorKind::Human, "b", sb);
        let cab = net.conflict(a, b);
        let cba = net.conflict(b, a);
        prop_assert!((cab - cba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&cab));
        prop_assert_eq!(net.conflict(a, a), 0.0);
    }

    /// The flat edge list and dense stance table agree bit for bit with
    /// the map-based reference on every observable after every op.
    #[test]
    fn flat_storage_matches_map_reference(
        issue_count in 0usize..4,
        ops in proptest::collection::vec(arb_op(), 0..80),
    ) {
        let mut net = ActorNetwork::new(issue_count);
        let mut model = reference::MapNetwork::new(issue_count);
        for op in ops {
            let n = model.actors.len();
            match op {
                Op::Add(k, stances) => {
                    let a = net.add_actor(arb_kind(k), "a", stances.clone());
                    let b = model.add_actor(arb_kind(k), stances);
                    prop_assert_eq!(a, b);
                }
                Op::Align(a, b, w) if n > 0 => {
                    let (a, b) = (ActorId((a % n) as u32), ActorId((b % n) as u32));
                    net.align(a, b, w);
                    model.align(a, b, w);
                }
                Op::Realign(i, reversed, w) if !model.alignment.is_empty() => {
                    let (lo, hi) = *model.alignment.keys().nth(i % model.alignment.len()).unwrap();
                    let (a, b) = if reversed { (hi, lo) } else { (lo, hi) };
                    net.align(a, b, w);
                    model.align(a, b, w);
                }
                Op::Remove(a) if n > 0 => {
                    let a = ActorId((a % n) as u32);
                    net.remove_actor(a);
                    model.remove_actor(a);
                }
                Op::Relax(rate) => {
                    net.relax(rate);
                    model.relax(rate);
                }
                _ => {}
            }
            assert_same(&net, &model);
        }
    }
}
