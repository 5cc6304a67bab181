//! Actors, alignment, durability, tussle energy.

use serde::{Deserialize, Serialize};

/// Index of an actor in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Usable as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of actor this is. The actor-network view "gives equal
/// attention" to humans and nonhumans; durability, though, is anchored by
/// technology (§II.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActorKind {
    /// People and groups of people.
    Human,
    /// Protocols, devices, deployed code — the durable anchors.
    Technology,
    /// Firms, regulators, standards bodies.
    Institution,
}

/// An actor. Its stances live in the network's dense stance table; read
/// them with [`ActorNetwork::stances`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Actor {
    /// Identifier.
    pub id: ActorId,
    /// Kind.
    pub kind: ActorKind,
    /// Display name.
    pub name: String,
    /// Whether the actor is still present; only
    /// [`ActorNetwork::remove_actor`] clears it.
    active: bool,
}

impl Actor {
    /// Whether the actor is still present (not removed).
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// The actor network: actors plus pairwise alignment in `[0, 1]`.
///
/// Storage is two flat arrays. `stances` holds every actor's stances
/// (-1.0 .. 1.0 per issue) back to back, `issue_count` per actor, indexed
/// by [`ActorId`]. `edges` holds one `(low, high, strength)` entry per
/// aligned pair, sorted by `(low, high)`. That order is part of the
/// golden contract: [`relax`](Self::relax) updates stances in place one
/// edge after another, so a different order gives different floats.
/// Both ends of every stored edge are active: `remove_actor` prunes a
/// removed actor's edges and `align` ignores pairs with a removed end.
/// `live` lists the active actors' ids in ascending order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActorNetwork {
    actors: Vec<Actor>,
    stances: Vec<f64>,
    edges: Vec<(ActorId, ActorId, f64)>,
    live: Vec<ActorId>,
    issue_count: usize,
}

impl ActorNetwork {
    /// A network with the given number of issue axes.
    pub fn new(issue_count: usize) -> Self {
        ActorNetwork {
            actors: Vec::new(),
            stances: Vec::new(),
            edges: Vec::new(),
            live: Vec::new(),
            issue_count,
        }
    }

    /// Number of issue axes every actor has a stance on.
    pub fn issue_count(&self) -> usize {
        self.issue_count
    }

    /// Add an actor; stances are clamped to `[-1, 1]` and padded/truncated
    /// to the issue count.
    pub fn add_actor(&mut self, kind: ActorKind, name: &str, stances: Vec<f64>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        let given = stances.len().min(self.issue_count);
        self.stances.extend(stances[..given].iter().map(|v| v.clamp(-1.0, 1.0)));
        self.stances.resize(self.stances.len() + self.issue_count - given, 0.0);
        self.actors.push(Actor { id, kind, name: name.to_owned(), active: true });
        self.live.push(id);
        id
    }

    /// Remove (deactivate) an actor and its alignments.
    pub fn remove_actor(&mut self, id: ActorId) {
        if let Some(a) = self.actors.get_mut(id.index()) {
            a.active = false;
        }
        if let Ok(i) = self.live.binary_search(&id) {
            self.live.remove(i);
        }
        self.edges.retain(|(x, y, _)| *x != id && *y != id);
    }

    /// Actor accessor.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.index()]
    }

    /// An actor's stances, one per issue axis.
    pub fn stances(&self, id: ActorId) -> &[f64] {
        let start = id.index() * self.issue_count;
        &self.stances[start..start + self.issue_count]
    }

    /// Active actors.
    pub fn active_actors(&self) -> impl Iterator<Item = &Actor> {
        self.live.iter().map(|id| &self.actors[id.index()])
    }

    /// Ids of the active actors, ascending.
    pub fn active_ids(&self) -> &[ActorId] {
        &self.live
    }

    /// Number of active actors.
    pub fn active_count(&self) -> usize {
        self.live.len()
    }

    fn key(a: ActorId, b: ActorId) -> (ActorId, ActorId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Where the edge keyed `(low, high)` sits in the sorted edge list, or
    /// where it would be inserted.
    fn find(&self, key: (ActorId, ActorId)) -> Result<usize, usize> {
        self.edges.binary_search_by_key(&key, |(x, y, _)| (*x, *y))
    }

    /// Set the alignment strength between two actors. A pair with a
    /// removed end is ignored: removed actors hold no alignments.
    pub fn align(&mut self, a: ActorId, b: ActorId, strength: f64) {
        if a == b || !self.actors[a.index()].active || !self.actors[b.index()].active {
            return;
        }
        let strength = strength.clamp(0.0, 1.0);
        let (lo, hi) = Self::key(a, b);
        match self.find((lo, hi)) {
            Ok(i) => self.edges[i].2 = strength,
            Err(i) => self.edges.insert(i, (lo, hi, strength)),
        }
    }

    /// Current alignment between two actors (0 when none recorded).
    pub fn alignment(&self, a: ActorId, b: ActorId) -> f64 {
        self.find(Self::key(a, b)).map_or(0.0, |i| self.edges[i].2)
    }

    /// Interest conflict between two actors: half the mean absolute stance
    /// gap, in `[0, 1]`.
    pub fn conflict(&self, a: ActorId, b: ActorId) -> f64 {
        if self.issue_count == 0 {
            return 0.0;
        }
        let (sa, sb) = (self.stances(a), self.stances(b));
        let total: f64 = sa.iter().zip(sb).map(|(x, y)| (x - y).abs()).sum();
        (total / self.issue_count as f64) / 2.0
    }

    /// Durability (Latour): mean alignment over aligned pairs, weighted ×2
    /// when either endpoint is Technology — technology anchors the network.
    /// Zero when nothing is aligned.
    pub fn durability(&self) -> f64 {
        let tech = |id: ActorId| self.actors[id.index()].kind == ActorKind::Technology;
        let mut weight_sum = 0.0;
        let mut value_sum = 0.0;
        for &(a, b, s) in &self.edges {
            let w = if tech(a) || tech(b) { 2.0 } else { 1.0 };
            weight_sum += w;
            value_sum += w * s;
        }
        if weight_sum == 0.0 {
            0.0
        } else {
            value_sum / weight_sum
        }
    }

    /// Tussle energy: total unresolved conflict over *aligned* pairs —
    /// actors who must work together but want different things.
    pub fn tussle_energy(&self) -> f64 {
        self.edges.iter().map(|(a, b, s)| s * self.conflict(*a, *b)).sum()
    }

    /// One relaxation step: aligned actors pull each other's stances
    /// together at `rate` (tussles get resolved; the network hardens).
    /// Edges are visited in `(low, high)` order and each updates the
    /// stance table in place.
    pub fn relax(&mut self, rate: f64) {
        let k = self.issue_count;
        for (a, b, s) in self.edges.iter_mut() {
            // a < b: the low actor's row sits wholly before the high one's
            let (head, tail) = self.stances.split_at_mut(b.index() * k);
            let sa = &mut head[a.index() * k..a.index() * k + k];
            let sb = &mut tail[..k];
            for (xa, xb) in sa.iter_mut().zip(sb.iter_mut()) {
                let pull = rate * *s * (*xb - *xa) / 2.0;
                *xa = (*xa + pull).clamp(-1.0, 1.0);
                *xb = (*xb - pull).clamp(-1.0, 1.0);
            }
            // working together also strengthens the tie
            *s = (*s + rate * 0.1).min(1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (ActorNetwork, ActorId, ActorId, ActorId) {
        let mut n = ActorNetwork::new(2);
        let user = n.add_actor(ActorKind::Human, "users", vec![1.0, 0.0]);
        let isp = n.add_actor(ActorKind::Institution, "isp", vec![-1.0, 0.0]);
        let ip = n.add_actor(ActorKind::Technology, "ip-protocol", vec![0.0, 0.0]);
        (n, user, isp, ip)
    }

    #[test]
    fn stances_clamped_and_padded() {
        let mut n = ActorNetwork::new(3);
        let a = n.add_actor(ActorKind::Human, "a", vec![5.0]);
        assert_eq!(n.stances(a), [1.0, 0.0, 0.0]);
    }

    #[test]
    fn conflict_measures_stance_gap() {
        let (n, user, isp, ip) = net();
        assert!((n.conflict(user, isp) - 0.5).abs() < 1e-12);
        assert!((n.conflict(user, ip) - 0.25).abs() < 1e-12);
        assert_eq!(n.conflict(user, user), 0.0);
    }

    #[test]
    fn durability_weights_technology_anchors() {
        let (mut n, user, isp, ip) = net();
        n.align(user, isp, 0.2);
        n.align(user, ip, 0.8);
        // weighted mean: (1*0.2 + 2*0.8) / 3 = 0.6
        assert!((n.durability() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_network_has_zero_metrics() {
        let n = ActorNetwork::new(2);
        assert_eq!(n.durability(), 0.0);
        assert_eq!(n.tussle_energy(), 0.0);
    }

    #[test]
    fn tussle_energy_counts_aligned_conflicts() {
        let (mut n, user, isp, _) = net();
        assert_eq!(n.tussle_energy(), 0.0, "no alignment, no tussle");
        n.align(user, isp, 1.0);
        assert!((n.tussle_energy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relaxation_resolves_tussles_and_hardens_ties() {
        let (mut n, user, isp, _) = net();
        n.align(user, isp, 0.5);
        let e0 = n.tussle_energy();
        let d0 = n.durability();
        for _ in 0..200 {
            n.relax(0.1);
        }
        assert!(n.tussle_energy() < e0 * 0.1, "tussle should drain");
        assert!(n.durability() > d0, "alignment should strengthen");
    }

    #[test]
    fn removed_actors_drop_out() {
        let (mut n, user, isp, ip) = net();
        n.align(user, isp, 0.5);
        n.align(user, ip, 0.5);
        n.remove_actor(isp);
        assert_eq!(n.active_count(), 2);
        assert_eq!(n.alignment(user, isp), 0.0);
        assert!(n.durability() > 0.0, "the tech tie survives");
    }

    #[test]
    fn aligning_a_removed_actor_is_ignored() {
        let (mut n, user, isp, ip) = net();
        n.align(user, ip, 0.5);
        n.remove_actor(isp);
        n.align(user, isp, 0.9);
        n.align(isp, ip, 0.9);
        assert_eq!(n.alignment(user, isp), 0.0);
        assert_eq!(n.alignment(isp, ip), 0.0);
        assert!(!n.actor(isp).is_active());
        // only the live tie counts: weight 2 (technology) × 0.5
        assert!((n.durability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_alignment_is_ignored() {
        let (mut n, user, ..) = net();
        n.align(user, user, 1.0);
        assert_eq!(n.alignment(user, user), 0.0);
    }
}
