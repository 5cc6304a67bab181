//! E6 — Firewalls: protection vs. innovation (§V.B).
//!
//! Paper claim: "Firewalls change the Internet from a system with
//! transparent packet carriage between all points ... to a 'that which is
//! not permitted is forbidden' network. ... Internet purists have been
//! bemoaning the fact that firewalls inhibit innovation and the
//! introduction of new applications ... but firewalls have not gone away."
//! The proposed alternative: "Firewalls that provide trust-mediated
//! transparency must be designed so that they apply constraints based on
//! who is communicating, as well as (or instead of) what protocols are
//! being run."
//!
//! Measured: a traffic mix of known-good applications, attacks and novel
//! applications from trusted parties, pushed through three border designs.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::firewall::Firewall;
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::{Network, NodeId};
use tussle_sim::{Ctx, SimRng, SimTime};

/// The three border designs compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BorderDesign {
    /// No firewall: pure transparency.
    Transparent,
    /// Port allowlist, default deny.
    PortAllowlist,
    /// Identity allow set, default deny, no port constraint.
    TrustMediated,
}

impl BorderDesign {
    fn label(self) -> &'static str {
        match self {
            BorderDesign::Transparent => "transparent",
            BorderDesign::PortAllowlist => "port allowlist",
            BorderDesign::TrustMediated => "trust-mediated",
        }
    }
}

/// Aggregate outcome for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct FirewallOutcome {
    /// Fraction of attack flows blocked.
    pub attacks_blocked: f64,
    /// Fraction of known-application flows delivered.
    pub known_apps_ok: f64,
    /// Fraction of NOVEL application flows (from trusted parties)
    /// delivered — the innovation metric.
    pub novel_apps_ok: f64,
}

const TRUSTED: [u64; 3] = [11, 12, 13];

fn world(design: BorderDesign) -> (Network, NodeId, Address, Address) {
    let mut net = Network::new();
    let outside = net.add_host(Asn(1));
    let border = net.add_router(Asn(2));
    let inside = net.add_host(Asn(2));
    net.connect(outside, border, SimTime::from_millis(5), 1_000_000_000);
    net.connect(border, inside, SimTime::from_millis(1), 1_000_000_000);
    let src =
        Address::in_prefix(Prefix::new(0x0a010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(1)));
    let dst =
        Address::in_prefix(Prefix::new(0x0b010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(2)));
    net.node_mut(outside).bind(src);
    net.node_mut(inside).bind(dst);
    net.fib_mut(outside).install(Prefix::DEFAULT, border, 0);
    net.fib_mut(border).install(Prefix::new(0x0b010000, 16), inside, 0);
    match design {
        BorderDesign::Transparent => {}
        BorderDesign::PortAllowlist => {
            net.set_firewall(
                border,
                Firewall::port_allowlist(vec![ports::HTTP, ports::SMTP], "admin"),
            );
        }
        BorderDesign::TrustMediated => {
            net.set_firewall(border, Firewall::trust_mediated(TRUSTED.to_vec(), "end-user"));
        }
    }
    (net, outside, src, dst)
}

/// One design's workload tallies, threaded through its event chain.
struct DesignTally {
    net: Network,
    outside: NodeId,
    src: Address,
    dst: Address,
    sent: usize,
    known_ok: usize,
    attacks_through: usize,
    novel_ok: usize,
}

impl DesignTally {
    fn new(design: BorderDesign) -> Self {
        let (net, outside, src, dst) = world(design);
        DesignTally {
            net,
            outside,
            src,
            dst,
            sent: 0,
            known_ok: 0,
            attacks_through: 0,
            novel_ok: 0,
        }
    }
}

/// Push `n` known/attack/novel flow triples through the border.
fn flow_batch(t: &mut DesignTally, n: usize, rng: &mut SimRng) {
    for i in t.sent..t.sent + n {
        // known application from a trusted party
        let known = Packet::new(t.src, t.dst, Protocol::Tcp, 1000, ports::HTTP)
            .with_identity(TRUSTED[i % TRUSTED.len()]);
        if t.net.send(t.outside, known, rng).delivered {
            t.known_ok += 1;
        }
        // attack: anonymous, probing a port the attacker picks (sometimes a
        // well-known one — port filters cannot tell exploit from use)
        let attack_port = if rng.chance(0.5) { ports::HTTP } else { rng.range(1024..u16::MAX) };
        let attack = Packet::new(t.src, t.dst, Protocol::Tcp, 666, attack_port);
        if t.net.send(t.outside, attack, rng).delivered {
            t.attacks_through += 1;
        }
        // novel application from a trusted party on an unheard-of port
        let novel = Packet::new(t.src, t.dst, Protocol::Udp, 2000, ports::NOVEL)
            .with_identity(TRUSTED[i % TRUSTED.len()]);
        if t.net.send(t.outside, novel, rng).delivered {
            t.novel_ok += 1;
        }
    }
    t.sent += n;
}

fn outcome_of(t: &DesignTally) -> FirewallOutcome {
    FirewallOutcome {
        attacks_blocked: 1.0 - t.attacks_through as f64 / t.sent as f64,
        known_apps_ok: t.known_ok as f64 / t.sent as f64,
        novel_apps_ok: t.novel_ok as f64 / t.sent as f64,
    }
}

/// Run one design over a mixed workload (the pure loop the unit tests
/// drive; [`run`] replays it as paced engine-event bursts).
pub fn run_design(design: BorderDesign, n_each: usize, seed: u64) -> FirewallOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e06");
    let mut t = DesignTally::new(design);
    flow_batch(&mut t, n_each, &mut rng);
    outcome_of(&t)
}

/// Flow triples per burst event in the engine replay.
const BURST: usize = 40;
/// Total flow triples per design.
const N_EACH: usize = 200;

/// One paced traffic burst as an engine event, chaining to the next burst.
fn run_burst(
    w: &mut Settled<FirewallOutcome>,
    ctx: &mut Ctx<Settled<FirewallOutcome>>,
    i: usize,
    design: BorderDesign,
    mut t: DesignTally,
) {
    ctx.span_enter(
        "e6.burst",
        Some("provider"),
        &[("design", design.label()), ("sent", &t.sent.to_string())],
    );
    let n = BURST.min(N_EACH - t.sent);
    flow_batch(&mut t, n, ctx.rng);
    if t.sent < N_EACH {
        let lag = pace(
            ctx,
            "e6.pacing",
            "provider",
            &[],
            format!("{} flow triples pushed; next burst follows", t.sent),
        );
        ctx.span_exit(&[("attacks_through", &t.attacks_through.to_string())]);
        ctx.schedule_in(lag, move |w2, ctx2| run_burst(w2, ctx2, i, design, t));
    } else {
        let o = outcome_of(&t);
        ctx.trace_fields(
            "e6.settled",
            Some("user"),
            &[("novel_apps_ok", &format!("{:.2}", o.novel_apps_ok))],
            format!("{} border settles", design.label()),
        );
        ctx.span_exit(&[("attacks_through", &t.attacks_through.to_string())]);
        w.put(i, o);
    }
}

/// Run E6 and produce the report. Each border design's workload runs as a
/// causal chain of burst events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let designs =
        [BorderDesign::Transparent, BorderDesign::PortAllowlist, BorderDesign::TrustMediated];
    let outcomes = replay(seed, designs, |w, ctx, i, design| {
        run_burst(w, ctx, i, design, DesignTally::new(design))
    });

    let mut table = Table::new(
        "Border designs against a mixed workload (200 flows of each class)",
        &["attacks blocked", "known apps delivered", "novel apps delivered"],
    );
    for (d, o) in designs.into_iter().zip(&outcomes) {
        table.push_row(
            d.label(),
            &[
                format!("{:.2}", o.attacks_blocked),
                format!("{:.2}", o.known_apps_ok),
                format!("{:.2}", o.novel_apps_ok),
            ],
        );
    }
    let (open, port, trust) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    // Shape: transparency = no protection, full innovation. Port filters =
    // partial protection (attacks on allowed ports still pass), zero
    // innovation. Trust mediation = full protection against anonymous
    // attacks AND full innovation for trusted parties.
    let shape_holds = open.attacks_blocked < 0.01
        && open.novel_apps_ok > 0.99
        && port.attacks_blocked > 0.3
        && port.attacks_blocked < 0.9
        && port.novel_apps_ok < 0.01
        && trust.attacks_blocked > 0.99
        && trust.novel_apps_ok > 0.99;

    ExperimentReport {
        id: "E6".into(),
        section: "V.B".into(),
        paper_claim: "Port-keyed default-deny firewalls buy partial protection at the price of \
                      killing novel applications; trust-mediated firewalls key on who is \
                      communicating and protect without foreclosing innovation."
            .into(),
        summary: format!(
            "attacks blocked / novel apps delivered: transparent {:.0}%/{:.0}%, port filter \
             {:.0}%/{:.0}%, trust-mediated {:.0}%/{:.0}%.",
            open.attacks_blocked * 100.0,
            open.novel_apps_ok * 100.0,
            port.attacks_blocked * 100.0,
            port.novel_apps_ok * 100.0,
            trust.attacks_blocked * 100.0,
            trust.novel_apps_ok * 100.0,
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
    fn transparency_trades_protection_for_innovation() {
        let o = run_design(BorderDesign::Transparent, 50, 1);
        assert_eq!(o.attacks_blocked, 0.0);
        assert_eq!(o.novel_apps_ok, 1.0);
    }

    #[test]
    fn port_filters_kill_novel_apps() {
        let o = run_design(BorderDesign::PortAllowlist, 50, 1);
        assert_eq!(o.novel_apps_ok, 0.0);
        assert_eq!(o.known_apps_ok, 1.0);
        assert!(o.attacks_blocked > 0.2 && o.attacks_blocked < 0.9, "{}", o.attacks_blocked);
    }

    #[test]
    fn trust_mediation_gets_both() {
        let o = run_design(BorderDesign::TrustMediated, 50, 1);
        assert_eq!(o.attacks_blocked, 1.0);
        assert_eq!(o.novel_apps_ok, 1.0);
        assert_eq!(o.known_apps_ok, 1.0);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
