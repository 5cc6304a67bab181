//! `packets`: one op is a batch of 1,000 packets on the ~1k-node scale
//! topology — 500 FIB-routed, then 500 loose-source-routed — preceded on
//! every fourth batch by a topology write. The writes rotate through a link
//! flap (down, up), a firewall (installed, cleared) and a node crash
//! (crashed, restored), so the network returns to its first state every
//! `PERIOD` batches. Every batch outcome must equal that of a cold-cache
//! reference network that replays the same writes and packets and calls
//! `Network::invalidate_routes()` before every packet.

use crate::measure::{fnv, timed, CountLedger, CountMismatch, Span, Tracer};
use crate::Workload;
use std::collections::BTreeMap;
use std::time::Duration;
use tussle_experiments::{Routing, ScaleWorkload};
use tussle_net::firewall::Firewall;
use tussle_net::packet::{ports, Packet};
use tussle_net::{DropReason, LinkId, Network, NodeId};
use tussle_sim::SimRng;

/// Nodes and core degree of the scale topology.
const NODES: usize = 1000;
const DEGREE: usize = 3;
/// Packets of each routing style per batch.
const HALF: usize = 500;
/// Distinct packet batches; batch `k` sends batch `k % BATCHES`.
const BATCHES: usize = 4;
/// A write comes before every `WRITE_EVERY`-th batch.
const WRITE_EVERY: usize = 4;
/// Writes in one cycle: flap down, flap up, firewall on, firewall off,
/// crash, restore.
const WRITES: usize = 6;
/// Batches after which network state and batch contents both repeat.
pub const PERIOD: usize = WRITE_EVERY * WRITES;

/// Drop reasons reported on their own; the rest count as `other`.
const NAMED_DROPS: [DropReason; 3] =
    [DropReason::FirewallDenied, DropReason::NoRoute, DropReason::LinkDown];

/// What one batch did, packet by packet folded into `digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Packets delivered.
    pub delivered: u32,
    /// Links traversed.
    pub hops: u32,
    /// Summed one-way latency, in µs.
    pub latency_us: u64,
    /// Drops by reason: the `NAMED_DROPS` in order, then all others.
    pub drops: [u32; 4],
    /// Fold of every packet's (delivered, hops, latency, drop node, drop reason).
    pub digest: u64,
}

/// The write targets, drawn from the seed.
#[derive(Debug, Clone, Copy)]
struct Targets {
    link: LinkId,
    firewall: NodeId,
    crash: NodeId,
}

/// Apply write `w` of the cycle.
fn write(net: &mut Network, t: Targets, w: usize) {
    match w % WRITES {
        0 => net.set_link_up(t.link, false),
        1 => net.set_link_up(t.link, true),
        2 => {
            net.set_firewall(t.firewall, Firewall::port_allowlist(vec![ports::HTTPS], "perfbench"))
        }
        3 => net.clear_firewall(t.firewall),
        4 => net.crash_node(t.crash),
        _ => net.restore_node(t.crash),
    }
}

/// Send `packets`, folding each outcome into `out`; `cold` invalidates the
/// route cache before every packet.
fn send_all(
    net: &mut Network,
    packets: &[(NodeId, Packet)],
    rng: &mut SimRng,
    cold: bool,
    out: &mut BatchOutcome,
) {
    for (src, pkt) in packets {
        if cold {
            net.invalidate_routes();
        }
        let rep = net.send(*src, pkt.clone(), rng);
        out.delivered += u32::from(rep.delivered);
        out.hops += rep.hops() as u32;
        out.latency_us += rep.latency.as_micros();
        let (node, reason) = match rep.drop {
            Some((node, reason)) => (u64::from(node.0), Some(reason)),
            None => (u64::MAX, None),
        };
        if let Some(reason) = reason {
            let slot = NAMED_DROPS.iter().position(|r| *r == reason).unwrap_or(3);
            out.drops[slot] += 1;
        }
        let record = [
            u64::from(rep.delivered),
            rep.hops() as u64,
            rep.latency.as_micros(),
            node,
            reason.map_or(u64::MAX, |r| r as u64),
        ];
        let bytes: Vec<u8> = record.iter().flat_map(|v| v.to_le_bytes()).collect();
        out.digest = fnv(&[out.digest.to_le_bytes().as_slice(), &bytes].concat());
    }
}

/// One network with its packets and write targets.
struct World {
    net: Network,
    fib: Vec<(NodeId, Packet)>,
    src: Vec<(NodeId, Packet)>,
    targets: Targets,
    /// Writes applied so far.
    writes: usize,
}

impl World {
    fn build(seed: u64) -> World {
        let fib = ScaleWorkload::build(seed, NODES, DEGREE, HALF * BATCHES, Routing::Fib);
        let src = ScaleWorkload::build(seed, NODES, DEGREE, HALF * BATCHES, Routing::SourceRouted);
        let topo = fib.topo;
        let mut rng = SimRng::seed_from_u64(seed).fork("perfbench-writes");
        // Core-ring links are created first, one per core router.
        let ring = topo.core.len() as u32;
        let targets = Targets {
            link: LinkId(rng.range(0..ring)),
            firewall: topo.edges[rng.range(0..topo.edges.len() as u32) as usize],
            crash: topo.core[rng.range(0..ring) as usize],
        };
        World { net: topo.net, fib: fib.packets, src: src.packets, targets, writes: 0 }
    }

    /// Apply the writes left in the current cycle, returning the network to
    /// its first state (a no-op at a cycle boundary).
    fn finish_cycle(&mut self) {
        while !self.writes.is_multiple_of(WRITES) {
            write(&mut self.net, self.targets, self.writes);
            self.writes += 1;
        }
    }

    /// Batch `k`: its write (if due) and its packets. Spans separate the
    /// write, the FIB half and the source-routed half.
    fn batch(&mut self, seed: u64, k: usize, cold: bool, tr: &mut Tracer) -> BatchOutcome {
        if k.is_multiple_of(WRITE_EVERY) {
            let (net, t, w) = (&mut self.net, self.targets, k / WRITE_EVERY);
            tr.span("net.write", |_| write(net, t, w));
            self.writes = w + 1;
        }
        let b = k % BATCHES;
        let mut rng = SimRng::seed_from_u64(seed ^ (k % PERIOD) as u64);
        let mut out = BatchOutcome::default();
        let fib = &self.fib[b * HALF..(b + 1) * HALF];
        let src = &self.src[b * HALF..(b + 1) * HALF];
        let net = &mut self.net;
        tr.span("net.send_fib", |_| send_all(net, fib, &mut rng, cold, &mut out));
        tr.span("net.send_srcroute", |_| send_all(net, src, &mut rng, cold, &mut out));
        out
    }
}

/// The packets workload's state.
pub struct Packets {
    seed: u64,
    world: World,
    /// The cold-cache reference, one outcome per phase of the period.
    reference: Vec<BatchOutcome>,
    /// The first outcome of each phase (deterministic counts).
    ledger: CountLedger<usize, BatchOutcome>,
}

impl Workload for Packets {
    const INPUTS: usize = PERIOD;

    fn setup(seed: u64) -> Self {
        let mut cold = World::build(seed);
        let mut off = Tracer::new(false);
        let reference = (0..PERIOD).map(|k| cold.batch(seed, k, true, &mut off)).collect();
        Packets { seed, world: World::build(seed), reference, ledger: CountLedger::default() }
    }

    fn warm_up(&mut self) -> Result<(), CountMismatch> {
        // One full period, leaving the network in its first state with a
        // warm route cache.
        let mut off = Tracer::new(false);
        for k in 0..PERIOD {
            self.op(k, &mut off)?;
        }
        Ok(())
    }

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(Duration, bool), CountMismatch> {
        let seed = self.seed;
        let world = &mut self.world;
        if k.is_multiple_of(PERIOD) {
            // A rerun from op 0 starts from the first state, like the run did.
            world.finish_cycle();
        }
        let (out, t) = timed(|| tr.span("packets.batch", |tr| world.batch(seed, k, false, tr)));
        self.ledger.observe(k % PERIOD, out)?;
        let ok = out == self.reference[k % PERIOD];
        if !ok {
            eprintln!("check failed, batch {k}: outcome differs from the cold-cache reference");
        }
        Ok((t, ok))
    }

    fn per_layer(
        &mut self,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<BTreeMap<&'static str, f64>, CountMismatch> {
        let spans: Vec<&Span> = tr.spans().iter().filter(|s| s.op < n).collect();
        // Per phase of the write cycle, the batch right after a write pays
        // the cache invalidation; the other three run warm.
        let post_write = |s: &&Span| s.op.is_multiple_of(WRITE_EVERY);
        let mean_ns = |name: &str, post: bool, per: f64| {
            let picked: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == name && post_write(s) == post)
                .map(|s| s.dur_ns())
                .collect();
            picked.iter().sum::<u64>() as f64 / picked.len().max(1) as f64 / per
        };
        let mut m = BTreeMap::new();
        m.insert("net.fib_send_ns", mean_ns("net.send_fib", false, HALF as f64));
        m.insert("net.srcroute_send_ns", mean_ns("net.send_srcroute", false, HALF as f64));
        m.insert(
            "net.post_write_send_ns",
            (mean_ns("net.send_fib", true, HALF as f64)
                + mean_ns("net.send_srcroute", true, HALF as f64))
                / 2.0,
        );
        m.insert("net.write_us", mean_ns("net.write", true, 1e3));

        // Counts over one period of the reference, which every period repeats.
        let packets = (PERIOD * 2 * HALF) as f64;
        let sum = |f: &dyn Fn(&BatchOutcome) -> u64| self.reference.iter().map(f).sum::<u64>();
        let hops = sum(&|o| u64::from(o.hops));
        m.insert("net.hops_per_packet", hops as f64 / packets);
        m.insert("net.delivered_ratio", sum(&|o| u64::from(o.delivered)) as f64 / packets);
        for (i, name) in [
            "net.drops.FirewallDenied",
            "net.drops.NoRoute",
            "net.drops.LinkDown",
            "net.drops.other",
        ]
        .into_iter()
        .enumerate()
        {
            m.insert(name, sum(&|o| u64::from(o.drops[i])) as f64);
        }
        let send_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "net.send_fib" || s.name == "net.send_srcroute")
            .map(|s| s.dur_ns())
            .sum();
        let traced_hops: u64 = (0..n).map(|k| u64::from(self.reference[k % PERIOD].hops)).sum();
        m.insert("net.ns_per_hop", send_ns as f64 / traced_hops.max(1) as f64);
        Ok(m)
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "op = {} packets ({HALF} FIB + {HALF} source-routed) on a {NODES}-node topology; a write before every {WRITE_EVERY}th batch; state repeats every {PERIOD} batches",
            2 * HALF
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Tally;

    fn ratio(verdicts: &[bool]) -> f64 {
        let mut t = Tally::default();
        verdicts.iter().for_each(|&ok| t.record(ok));
        t.failed_ratio()
    }

    /// Batch `k` of a warmed-up workload, as the timed loop would see it.
    fn batch(w: &mut Packets, k: usize) -> BatchOutcome {
        w.world.batch(w.seed, k, false, &mut Tracer::new(false))
    }

    #[test]
    fn every_batch_matches_the_cold_reference() {
        let mut w = Packets::setup(3);
        w.warm_up().unwrap();
        let mut off = Tracer::new(false);
        for k in 0..2 * PERIOD {
            assert!(w.op(k, &mut off).unwrap().1, "batch {k}");
        }
        // The writes bite: some packets are dropped for each named reason.
        let drops: Vec<u32> =
            (0..3).map(|i| w.reference.iter().map(|o| o.drops[i]).sum()).collect();
        assert!(drops.iter().all(|&d| d > 0), "drops by reason {drops:?}");
    }

    #[test]
    fn a_perturbed_packet_outcome_fails_the_batch() {
        let mut w = Packets::setup(3);
        w.warm_up().unwrap();
        for k in 0..5 {
            batch(&mut w, k);
        }
        let mut out = batch(&mut w, 5);
        assert_eq!(out, w.reference[5]);
        out.digest ^= 1;
        assert!(ratio(&[true, out == w.reference[5]]) > 0.0);
    }

    #[test]
    fn a_changed_drop_reason_fails_the_batch() {
        let mut w = Packets::setup(3);
        w.warm_up().unwrap();
        let mut out = batch(&mut w, 0);
        assert!(out.drops[2] > 0, "the link flap drops packets");
        out.drops[2] -= 1;
        out.drops[0] += 1;
        assert!(ratio(&[true, out == w.reference[0]]) > 0.0);
    }

    #[test]
    fn changed_counts_for_the_same_phase_stop_the_benchmark() {
        let mut w = Packets::setup(3);
        w.warm_up().unwrap();
        w.ledger = CountLedger::default();
        w.ledger.observe(0, BatchOutcome::default()).unwrap();
        assert!(w.op(PERIOD, &mut Tracer::new(false)).is_err());
    }
}
