//! Entrant churn: what keeps the network changeable.
//!
//! §II.C: "the open architecture of the Internet allows the continuous
//! entry of new players into the actor network. The entrance of new actors,
//! with fresh perspectives and values, creates continuous churn ... the new
//! applications bring new actors to the actor network, which keeps the
//! actor network from becoming frozen, which in turn permits change to
//! occur."

use crate::network::{ActorKind, ActorNetwork};
use serde::{Deserialize, Serialize};
use tussle_sim::SimRng;

/// A Poisson-ish entrant process over an actor network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnProcess {
    /// Expected entrants per step (0 = the door is closed).
    pub arrival_rate: f64,
    /// How strongly each entrant aligns with existing actors on arrival.
    pub entry_alignment: f64,
    /// How fast aligned actors resolve their differences per step.
    pub relaxation_rate: f64,
    entrants: u64,
}

impl ChurnProcess {
    /// A process with the given arrival rate.
    pub fn new(arrival_rate: f64) -> Self {
        ChurnProcess {
            arrival_rate: arrival_rate.max(0.0),
            entry_alignment: 0.4,
            relaxation_rate: 0.05,
            entrants: 0,
        }
    }

    /// Total entrants so far.
    pub fn entrants(&self) -> u64 {
        self.entrants
    }

    /// One step: maybe admit entrants (with fresh, randomized stances,
    /// aligned to a sample of incumbents), then relax the network.
    /// Returns the number of entrants admitted this step.
    pub fn step(&mut self, net: &mut ActorNetwork, rng: &mut SimRng) -> usize {
        let mut admitted = 0;
        // Bernoulli approximation of Poisson for rates < 1; loop for more.
        let mut budget = self.arrival_rate;
        while budget > 0.0 {
            let p = budget.min(1.0);
            if rng.chance(p) {
                self.admit_one(net, rng);
                admitted += 1;
            }
            budget -= 1.0;
        }
        net.relax(self.relaxation_rate);
        admitted
    }

    fn admit_one(&mut self, net: &mut ActorNetwork, rng: &mut SimRng) {
        self.entrants += 1;
        let stances: Vec<f64> = (0..net.issue_count()).map(|_| rng.range(-1.0..1.0f64)).collect();
        let kind = if rng.chance(0.5) { ActorKind::Human } else { ActorKind::Technology };
        let name = format!("entrant-{}", self.entrants);
        let id = net.add_actor(kind, &name, stances);
        // align with up to three incumbents — joining the network means
        // committing to parts of it
        let incumbents: Vec<_> = net.active_actors().map(|a| a.id).filter(|i| *i != id).collect();
        for _ in 0..3 {
            if let Some(other) = rng.pick(&incumbents).copied() {
                net.align(id, other, self.entry_alignment);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ActorNetwork;

    fn seeded_net() -> ActorNetwork {
        let mut n = ActorNetwork::new(2);
        let a = n.add_actor(ActorKind::Human, "users", vec![0.5, 0.0]);
        let b = n.add_actor(ActorKind::Technology, "ip", vec![0.0, 0.0]);
        n.align(a, b, 0.5);
        n
    }

    #[test]
    fn zero_rate_admits_nobody() {
        let mut net = seeded_net();
        let mut churn = ChurnProcess::new(0.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(churn.step(&mut net, &mut rng), 0);
        }
        assert_eq!(churn.entrants(), 0);
        assert_eq!(net.active_count(), 2);
    }

    #[test]
    fn arrivals_track_rate() {
        let mut net = seeded_net();
        let mut churn = ChurnProcess::new(0.5);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..400 {
            churn.step(&mut net, &mut rng);
        }
        let e = churn.entrants();
        assert!((120..280).contains(&e), "expected ~200 entrants, got {e}");
        assert_eq!(net.active_count(), 2 + e as usize);
    }

    #[test]
    fn rates_above_one_admit_multiple_per_step() {
        let mut net = seeded_net();
        let mut churn = ChurnProcess::new(3.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut total = 0;
        for _ in 0..50 {
            total += churn.step(&mut net, &mut rng);
        }
        assert!(total > 100, "rate 3 over 50 steps should admit > 100, got {total}");
    }

    #[test]
    fn churn_sustains_tussle_energy() {
        // with entrants: energy stays up; without: it drains
        let mut rng = SimRng::seed_from_u64(4);
        let mut open_net = seeded_net();
        let mut open = ChurnProcess::new(1.0);
        for _ in 0..300 {
            open.step(&mut open_net, &mut rng);
        }

        let mut closed_net = seeded_net();
        let mut closed = ChurnProcess::new(0.0);
        for _ in 0..300 {
            closed.step(&mut closed_net, &mut rng);
        }
        assert!(
            open_net.tussle_energy() > closed_net.tussle_energy() * 2.0,
            "open {} vs closed {}",
            open_net.tussle_energy(),
            closed_net.tussle_energy()
        );
    }

    #[test]
    fn negative_rates_are_clamped() {
        let churn = ChurnProcess::new(-5.0);
        assert_eq!(churn.arrival_rate, 0.0);
    }
}
