//! E5 — Overlays as a tussle tool (§V.A.4).
//!
//! Paper claim: "researchers propose even more indirect ways of getting
//! around provider-selected routing, such as exploiting hosts as
//! intermediate forwarding agents. (This kind of overlay network is a tool
//! in the tussle, certainly.)" — and the flip side raised for evaluation:
//! "whether economic distortion is greater in one or the other", since the
//! relay's providers carry transit they never sold.
//!
//! Measured: reachability under link failure and under policy blocking,
//! with and without a RON-style overlay, plus the uncompensated transit
//! hops the overlay pushes through the relay's access network.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::firewall::{Firewall, FirewallAction, FirewallRule, MatchOn};
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::{Network, NodeId};
use tussle_routing::overlay::{Overlay, OverlayDelivery};
use tussle_sim::{Ctx, SimRng, SimTime};

/// What stresses the direct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stress {
    /// Nothing: the healthy baseline.
    None,
    /// The direct inter-AS link fails.
    LinkFailure,
    /// The destination's provider blocklists the source prefix.
    PolicyBlock,
}

impl Stress {
    fn label(self) -> &'static str {
        match self {
            Stress::None => "healthy",
            Stress::LinkFailure => "link failure",
            Stress::PolicyBlock => "policy block",
        }
    }
}

/// Outcome of one condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayOutcome {
    /// Delivery rate without the overlay.
    pub direct_rate: f64,
    /// Delivery rate with the overlay.
    pub overlay_rate: f64,
    /// Mean router hops consumed per delivered overlay packet (resource
    /// footprint).
    pub overlay_hops: f64,
    /// Hops carried by the relay's AS with no business relationship to the
    /// sender — the economic-distortion count.
    pub uncompensated_hops: u64,
}

struct World {
    net: Network,
    src: NodeId,
    overlay: Overlay,
    pkt: Packet,
    relay_as_nodes: Vec<NodeId>,
    direct_link: usize,
    dst_router: NodeId,
}

fn world() -> World {
    let mut net = Network::new();
    let src = net.add_host(Asn(1));
    let ra = net.add_router(Asn(1));
    let rb = net.add_router(Asn(2)); // destination's provider
    let dst = net.add_host(Asn(2));
    let rc = net.add_router(Asn(3)); // relay's provider
    let relay = net.add_host(Asn(3));
    net.connect(src, ra, SimTime::from_millis(2), 1_000_000_000);
    let direct = net.connect(ra, rb, SimTime::from_millis(10), 1_000_000_000);
    net.connect(rb, dst, SimTime::from_millis(2), 1_000_000_000);
    net.connect(ra, rc, SimTime::from_millis(10), 1_000_000_000);
    net.connect(rc, relay, SimTime::from_millis(2), 1_000_000_000);
    net.connect(rc, rb, SimTime::from_millis(10), 1_000_000_000);

    let src_addr =
        Address::in_prefix(Prefix::new(0x0a010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(1)));
    let dst_addr =
        Address::in_prefix(Prefix::new(0x0b010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(2)));
    let relay_addr =
        Address::in_prefix(Prefix::new(0x0c010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(3)));
    net.node_mut(src).bind(src_addr);
    net.node_mut(dst).bind(dst_addr);
    net.node_mut(relay).bind(relay_addr);

    let dp = Prefix::new(0x0b010000, 16);
    let rp = Prefix::new(0x0c010000, 16);
    net.fib_mut(src).install(Prefix::DEFAULT, ra, 0);
    net.fib_mut(ra).install(dp, rb, 0);
    net.fib_mut(ra).install(rp, rc, 0);
    net.fib_mut(rb).install(dp, dst, 0);
    net.fib_mut(rc).install(rp, relay, 0);
    net.fib_mut(rc).install(dp, rb, 0);
    net.fib_mut(relay).install(Prefix::DEFAULT, rc, 0);
    // BGP policy: ra does NOT route to dst via rc (valley-free would forbid
    // transiting the relay's stub AS)... but rc itself can reach rb.

    let overlay = Overlay::new(vec![(relay, relay_addr)]);
    let pkt = Packet::new(src_addr, dst_addr, Protocol::Tcp, 1, ports::HTTP);
    World {
        net,
        src,
        overlay,
        pkt,
        relay_as_nodes: vec![rc, relay],
        direct_link: direct.index(),
        dst_router: rb,
    }
}

/// Build a condition's world with its stress applied.
fn stressed_world(stress: Stress) -> World {
    let mut w = world();
    match stress {
        Stress::None => {}
        Stress::LinkFailure => {
            let id = w.net.links()[w.direct_link].id;
            w.net.link_mut(id).up = false;
        }
        Stress::PolicyBlock => {
            let mut fw = Firewall::transparent();
            fw.push(FirewallRule {
                matcher: MatchOn::SrcInPrefix(Prefix::new(0x0a010000, 16)),
                action: FirewallAction::Deny,
                installed_by: "AS2 policy".into(),
            });
            w.net.set_firewall(w.dst_router, fw);
        }
    }
    w
}

/// One condition's probe tallies, threaded through its event chain.
struct Tally {
    w: World,
    sent: usize,
    direct_ok: usize,
    overlay_ok: usize,
    overlay_hops_total: usize,
    uncompensated: u64,
}

impl Tally {
    fn new(w: World) -> Self {
        Tally { w, sent: 0, direct_ok: 0, overlay_ok: 0, overlay_hops_total: 0, uncompensated: 0 }
    }
}

/// Send `n` direct+overlay probe pairs, mutating the tallies.
fn probe_batch(t: &mut Tally, n: usize, rng: &mut SimRng) {
    for _ in 0..n {
        // direct attempt
        if t.w.net.send(t.w.src, t.w.pkt.clone(), rng).delivered {
            t.direct_ok += 1;
        }
        // overlay attempt
        let d = t.w.overlay.send(&mut t.w.net, t.w.src, t.w.pkt.clone(), rng);
        if d.delivered() {
            t.overlay_ok += 1;
            t.overlay_hops_total += d.hops();
            if let OverlayDelivery::Relayed { first_leg, second_leg, .. } = &d {
                for leg in [first_leg, second_leg] {
                    t.uncompensated +=
                        leg.path.iter().filter(|nid| t.w.relay_as_nodes.contains(nid)).count()
                            as u64;
                }
            }
        }
    }
    t.sent += n;
}

fn outcome_of(t: &Tally) -> OverlayOutcome {
    OverlayOutcome {
        direct_rate: t.direct_ok as f64 / t.sent as f64,
        overlay_rate: t.overlay_ok as f64 / t.sent as f64,
        overlay_hops: if t.overlay_ok > 0 {
            t.overlay_hops_total as f64 / t.overlay_ok as f64
        } else {
            0.0
        },
        uncompensated_hops: t.uncompensated,
    }
}

/// Run one stress condition over `n` packets (the pure loop the unit tests
/// drive; [`run`] replays it as paced engine-event bursts).
pub fn run_condition(stress: Stress, n: usize, seed: u64) -> OverlayOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e05");
    let mut t = Tally::new(stressed_world(stress));
    probe_batch(&mut t, n, &mut rng);
    outcome_of(&t)
}

/// E5's replay world: each condition's settled probe outcome.
type Probes = Settled<OverlayOutcome>;

/// Probe pairs per burst event in the engine replay.
const BURST: usize = 20;
/// Total probe pairs per condition.
const N_PROBES: usize = 100;

/// One paced probe burst as an engine event, chaining to the next burst.
fn run_burst(w: &mut Probes, ctx: &mut Ctx<Probes>, i: usize, stress: Stress, mut t: Tally) {
    ctx.span_enter(
        "e5.burst",
        Some("user"),
        &[("stress", stress.label()), ("sent", &t.sent.to_string())],
    );
    let n = BURST.min(N_PROBES - t.sent);
    probe_batch(&mut t, n, ctx.rng);
    if t.sent < N_PROBES {
        let lag = pace(
            ctx,
            "e5.pacing",
            "user",
            &[],
            format!("{} probes sent; next burst follows", t.sent),
        );
        ctx.span_exit(&[("overlay_ok", &t.overlay_ok.to_string())]);
        ctx.schedule_in(lag, move |w2, ctx2| run_burst(w2, ctx2, i, stress, t));
    } else {
        let o = outcome_of(&t);
        ctx.trace_fields(
            "e5.settled",
            Some("isp"),
            &[("uncompensated_hops", &o.uncompensated_hops.to_string())],
            format!("{} condition settles", stress.label()),
        );
        ctx.span_exit(&[("overlay_ok", &t.overlay_ok.to_string())]);
        w.put(i, o);
    }
}

/// Run E5 and produce the report. Each condition's probes run as a causal
/// chain of burst events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let conditions = [Stress::None, Stress::LinkFailure, Stress::PolicyBlock];
    let outcomes = replay(seed, conditions, |w, ctx, i, stress| {
        ctx.span_enter("e5.stress", Some("provider"), &[("stress", stress.label())]);
        let t = Tally::new(stressed_world(stress));
        ctx.span_exit(&[]);
        run_burst(w, ctx, i, stress, t);
    });

    let mut table = Table::new(
        "Overlay resilience and its economic footprint (100 flows per condition)",
        &["direct delivery", "overlay delivery", "mean hops", "uncompensated relay-AS hops"],
    );
    for (s, o) in conditions.into_iter().zip(&outcomes) {
        table.push_row(
            s.label(),
            &[
                format!("{:.2}", o.direct_rate),
                format!("{:.2}", o.overlay_rate),
                format!("{:.1}", o.overlay_hops),
                o.uncompensated_hops.to_string(),
            ],
        );
    }
    let (healthy, fail, block) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    let shape_holds = healthy.direct_rate > 0.99
        && healthy.uncompensated_hops == 0
        && fail.direct_rate < 0.01
        && fail.overlay_rate > 0.99
        && block.direct_rate < 0.01
        && block.overlay_rate > 0.99
        && fail.uncompensated_hops > 0
        && fail.overlay_hops > healthy.overlay_hops;

    ExperimentReport {
        id: "E5".into(),
        section: "V.A.4".into(),
        paper_claim: "Host-relay overlays recover reachability that provider routing or policy \
                      denies — at the cost of transit the relay's providers never agreed to \
                      carry (economic distortion)."
            .into(),
        summary: format!(
            "under link failure the overlay restores delivery from {:.0}% to {:.0}% while \
             pushing {} uncompensated hops through the relay's AS; under policy blocking \
             likewise ({:.0}% → {:.0}%).",
            fail.direct_rate * 100.0,
            fail.overlay_rate * 100.0,
            fail.uncompensated_hops,
            block.direct_rate * 100.0,
            block.overlay_rate * 100.0,
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
    fn healthy_network_needs_no_overlay() {
        let o = run_condition(Stress::None, 20, 1);
        assert!(o.direct_rate > 0.99);
        assert_eq!(o.uncompensated_hops, 0);
    }

    #[test]
    fn overlay_survives_link_failure() {
        let o = run_condition(Stress::LinkFailure, 20, 1);
        assert!(o.direct_rate < 0.01);
        assert!(o.overlay_rate > 0.99);
        assert!(o.uncompensated_hops > 0);
    }

    #[test]
    fn overlay_evades_policy_blocks() {
        let o = run_condition(Stress::PolicyBlock, 20, 1);
        assert!(o.direct_rate < 0.01);
        assert!(o.overlay_rate > 0.99);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
