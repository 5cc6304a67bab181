//! E17 — Routing in an uncooperative network (§II.B).
//!
//! Paper claim: "A second response is to preserve the notion there is 'one
//! right answer,' but build technical systems that are more resistant to
//! those that perceive the answer differently. ... Perlman considers
//! network routing in the presence of byzantine failures. ... Savage
//! applies the same strategy to ... IP traceback. ... current solutions
//! ... are dependent on a model of cooperation that no longer exists
//! universally in the network."
//!
//! Measured, on one link-state domain:
//! 1. **cooperative baseline** — everyone honest, full delivery;
//! 2. **blackhole attack** — a byzantine router advertises irresistibly
//!    cheap adjacencies (modeled as real control-plane links) and silently
//!    drops everything it attracts: delivery collapses *because* shortest-
//!    path routing trusts advertisements;
//! 3. **resistant response** — the operators aggregate blame reports,
//!    identify the common drop point, exclude it from the routing domain
//!    and recompute: delivery restored (Perlman's move);
//! 4. **traceback** — in parallel, a source-spoofed flood against a victim
//!    is traced to its ingress router via probabilistic marking (Savage's
//!    move), even though the source addresses are lies.

use crate::chain::{pace, replay, Settled};
use std::collections::BTreeMap;
use tussle_core::{ExperimentReport, Table};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::firewall::Firewall;
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::traceback::TracebackCollector;
use tussle_net::{Network, NodeId};
use tussle_routing::LinkStateProtocol;
use tussle_sim::{Ctx, SimRng, SimTime};

/// Outcome of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// Fraction of probe traffic delivered.
    pub delivery: f64,
    /// The node blame reports most often accuse, if any failures occurred.
    pub prime_suspect: Option<NodeId>,
}

struct Domain {
    net: Network,
    routers: Vec<NodeId>,
    src_host: NodeId,
    dst_host: NodeId,
    src_addr: Address,
    dst_addr: Address,
    dst_prefix: Prefix,
    liar: NodeId,
}

/// A ring of 6 routers with hosts hanging off opposite sides; the liar
/// sits well off the honest shortest path.
fn domain() -> Domain {
    let mut net = Network::new();
    let routers: Vec<NodeId> = (0..6).map(|i| net.add_router(Asn(i))).collect();
    for i in 0..6 {
        let a = routers[i];
        let b = routers[(i + 1) % 6];
        net.connect(a, b, SimTime::from_millis(5), 1_000_000_000);
    }
    let src_host = net.add_host(Asn(0));
    let dst_host = net.add_host(Asn(3));
    net.connect(src_host, routers[0], SimTime::from_millis(1), 1_000_000_000);
    net.connect(dst_host, routers[3], SimTime::from_millis(1), 1_000_000_000);
    let src_addr =
        Address::in_prefix(Prefix::new(0x0a000000, 16), 1, AddressOrigin::ProviderAssigned(Asn(0)));
    let dst_addr =
        Address::in_prefix(Prefix::new(0x0b000000, 16), 1, AddressOrigin::ProviderAssigned(Asn(3)));
    net.node_mut(src_host).bind(src_addr);
    net.node_mut(dst_host).bind(dst_addr);
    // traceback marking is on everywhere (it is cheap and unilateral)
    for r in &routers {
        net.node_mut(*r).marks_packets = true;
    }
    Domain {
        net,
        liar: routers[4],
        routers,
        src_host,
        dst_host,
        src_addr,
        dst_addr,
        dst_prefix: Prefix::new(0x0b000000, 16),
    }
}

fn install_routes(d: &mut Domain, members: Vec<NodeId>) {
    for r in &d.routers {
        d.net.fib_mut(*r).clear();
    }
    d.net.fib_mut(d.src_host).clear();
    let mut all = members;
    all.push(d.src_host);
    all.push(d.dst_host);
    let ls = LinkStateProtocol::new(all);
    ls.install_routes(&mut d.net, &[(d.dst_prefix, d.dst_host)]);
}

fn probe(d: &mut Domain, n: usize, rng: &mut SimRng) -> (f64, BTreeMap<NodeId, usize>) {
    let mut delivered = 0usize;
    let mut blames: BTreeMap<NodeId, usize> = BTreeMap::new();
    for _ in 0..n {
        let pkt = Packet::new(d.src_addr, d.dst_addr, Protocol::Tcp, 1, ports::HTTP);
        let rep = d.net.send(d.src_host, pkt, rng);
        if rep.delivered {
            delivered += 1;
        } else if let Some(b) = tussle_net::diagnostics::blame(&d.net, &rep) {
            if let Some(node) = b.responsible_node {
                *blames.entry(node).or_insert(0) += 1;
            }
        }
    }
    (delivered as f64 / n as f64, blames)
}

/// Phase 1: the cooperative baseline.
pub fn phase_baseline(seed: u64) -> PhaseOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e17");
    let mut d = domain();
    let members = d.routers.clone();
    install_routes(&mut d, members);
    let (delivery, blames) = probe(&mut d, 100, &mut rng);
    PhaseOutcome { delivery, prime_suspect: top_suspect(&blames) }
}

/// Phase 2: the blackhole attack.
pub fn phase_attack(seed: u64) -> PhaseOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e17");
    let mut d = domain();
    inject_blackhole(&mut d);
    let members = d.routers.clone();
    install_routes(&mut d, members);
    let (delivery, blames) = probe(&mut d, 100, &mut rng);
    PhaseOutcome { delivery, prime_suspect: top_suspect(&blames) }
}

/// Phase 3: detect from blame reports, exclude, recompute.
pub fn phase_resistant(seed: u64) -> PhaseOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e17");
    let mut d = domain();
    inject_blackhole(&mut d);
    let members = d.routers.clone();
    install_routes(&mut d, members);
    let (_, blames) = probe(&mut d, 100, &mut rng);
    let suspect = top_suspect(&blames).expect("the attack produces failures");
    // Perlman's move: stop believing the suspect; route without it.
    let survivors: Vec<NodeId> = d.routers.iter().copied().filter(|r| *r != suspect).collect();
    install_routes(&mut d, survivors);
    let (delivery, blames) = probe(&mut d, 100, &mut rng);
    PhaseOutcome { delivery, prime_suspect: top_suspect(&blames).or(Some(suspect)) }
}

/// The byzantine move: the liar grows fake "1µs" adjacencies to every
/// router (what a poisoned link-state advertisement claims), and a
/// deny-all forwarding plane.
fn inject_blackhole(d: &mut Domain) {
    for r in d.routers.clone() {
        if r != d.liar && d.net.link_between(d.liar, r).is_none() {
            d.net.connect(d.liar, r, SimTime::from_micros(1), 1_000_000_000);
        }
    }
    // even its real links become irresistibly cheap
    for lid in d.net.links_of(d.liar).to_vec() {
        d.net.link_mut(lid).latency = SimTime::from_micros(1);
    }
    let mut fw = Firewall::port_allowlist(vec![], "byzantine router");
    fw.reveals_presence = true; // drops are attributable (the worst case for the liar)
    d.net.set_firewall(d.liar, fw);
}

fn top_suspect(blames: &BTreeMap<NodeId, usize>) -> Option<NodeId> {
    blames.iter().max_by_key(|(_, n)| **n).map(|(node, _)| *node)
}

/// Phase 4: trace a spoofed flood back to its ingress.
pub fn phase_traceback(seed: u64) -> (Option<NodeId>, NodeId) {
    let mut rng = SimRng::seed_from_u64(seed).fork("e17-flood");
    let mut d = domain();
    let members = d.routers.clone();
    install_routes(&mut d, members);
    // the attacker floods from src_host with spoofed sources
    let spoofed =
        Address::in_prefix(Prefix::new(0xdead0000, 16), 7, AddressOrigin::ProviderIndependent);
    let mut collector = TracebackCollector::new();
    for _ in 0..3_000 {
        let pkt = Packet::new(spoofed, d.dst_addr, Protocol::Udp, 666, ports::HTTP);
        let rep = d.net.send(d.src_host, pkt, &mut rng);
        if rep.delivered {
            collector.observe(&rep.mark);
        }
    }
    // ground truth: the attacker's ingress router is routers[0]
    (collector.nearest_to_attacker(30), d.routers[0])
}

/// E17's replay world. Its one chain settles the three probe phases in
/// order, then the traceback's `(traced, true ingress)`.
type Story = Settled<(Vec<PhaseOutcome>, (Option<NodeId>, NodeId))>;

/// One phase of the byzantine story as an engine event, chaining to the
/// next phase after a seeded operational lag. The phases are genuinely
/// causal: the attack answers the baseline, exclusion answers the attack,
/// and the traceback hunts the flood the attacker launches in retreat.
fn run_phase(w: &mut Story, ctx: &mut Ctx<Story>, seed: u64, mut phases: Vec<PhaseOutcome>) {
    let phase = phases.len();
    let (topic, actor) = match phase {
        0 => ("e17.baseline", "isp"),
        1 => ("e17.attack", "attacker"),
        2 => ("e17.exclude", "isp"),
        _ => ("e17.traceback", "isp"),
    };
    ctx.span_enter(topic, Some(actor), &[("phase", &phase.to_string())]);
    if phase < 3 {
        phases.push(match phase {
            0 => phase_baseline(seed),
            1 => phase_attack(seed),
            _ => phase_resistant(seed),
        });
        ctx.span_exit(&[]);
        let lag =
            pace(ctx, topic, actor, &[], format!("phase {phase} concludes; the response follows"));
        ctx.schedule_in(lag, move |w2, ctx2| run_phase(w2, ctx2, seed, phases));
    } else {
        let traceback = phase_traceback(seed);
        ctx.span_exit(&[]);
        ctx.trace("e17.settled", "the uncooperative-network story concludes");
        w.put(0, (phases, traceback));
    }
}

/// Run E17 and produce the report. The four phases run as one sequential
/// causal chain of engine events on the shared clock.
pub fn run(seed: u64) -> ExperimentReport {
    let (phases, (traced, ingress)) =
        replay(seed, [()], move |w, ctx, _, ()| run_phase(w, ctx, seed, Vec::new())).remove(0);
    let (base, attack, resist) = (&phases[0], &phases[1], &phases[2]);

    let mut table = Table::new(
        "One link-state domain, one byzantine router (100 probes per phase)",
        &["delivery", "prime suspect"],
    );
    for (label, o) in [
        ("cooperative baseline", base),
        ("blackhole attack", attack),
        ("after exclusion (Perlman)", resist),
    ] {
        table.push_row(
            label,
            &[
                format!("{:.2}", o.delivery),
                o.prime_suspect.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
            ],
        );
    }
    table.push_row(
        "spoofed flood traceback (Savage)",
        &[
            "n/a".into(),
            traced.map(|n| format!("{n} (ingress: {ingress})")).unwrap_or_else(|| "failed".into()),
        ],
    );

    let shape_holds = base.delivery > 0.99
        && attack.delivery < 0.01
        && attack.prime_suspect.is_some()
        && resist.delivery > 0.99
        && traced == Some(ingress);

    ExperimentReport {
        id: "E17".into(),
        section: "II.B".into(),
        paper_claim: "Shortest-path routing collapses when one byzantine router lies about its \
                      adjacencies and blackholes what it attracts; the 'more resistant' designs \
                      the paper cites work: fault attribution + exclusion restores delivery \
                      (Perlman), and probabilistic marking traces a source-spoofed flood to its \
                      ingress despite the lies (Savage)."
            .into(),
        summary: format!(
            "delivery {:.0}% → {:.0}% under attack (suspect {}) → {:.0}% after exclusion; \
             flood traced to {} (true ingress {}).",
            base.delivery * 100.0,
            attack.delivery * 100.0,
            attack.prime_suspect.map(|n| n.to_string()).unwrap_or_default(),
            resist.delivery * 100.0,
            traced.map(|n| n.to_string()).unwrap_or_else(|| "nothing".into()),
            ingress,
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
    fn baseline_is_healthy() {
        let o = phase_baseline(1);
        assert_eq!(o.delivery, 1.0);
        assert_eq!(o.prime_suspect, None);
    }

    #[test]
    fn the_blackhole_attracts_and_drops_everything() {
        let o = phase_attack(1);
        assert_eq!(o.delivery, 0.0);
        assert!(o.prime_suspect.is_some(), "blame converges on the liar");
    }

    #[test]
    fn exclusion_restores_delivery() {
        let o = phase_resistant(1);
        assert_eq!(o.delivery, 1.0);
    }

    #[test]
    fn traceback_finds_the_ingress_despite_spoofing() {
        let (traced, ingress) = phase_traceback(1);
        assert_eq!(traced, Some(ingress));
    }

    #[test]
    fn report_shape_holds_across_seeds() {
        for seed in [1, 9, 77] {
            let r = run(seed);
            assert!(r.shape_holds, "seed {seed}: {}", r.summary);
        }
    }
}
