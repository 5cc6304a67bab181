//! E4 — Provider routing vs. paid source routing (§V.A.4).
//!
//! Paper claim: "The Internet should support a mechanism for choice such as
//! source routing ... Today, service providers do not like loose source
//! routes, because ISPs do not receive any benefit when they carry traffic
//! directed by a source route. ... The design for provider-level source
//! routing must incorporate a recognition of the need for payment."
//!
//! Measured: a user whose BGP-selected path crosses a congested cheap
//! transit while a premium transit sits unused. Three regimes: provider
//! routing only; user source routes without paying (ISPs refuse); user
//! source routes with payment through the ledger (ISPs honor, premium path
//! used, transit earns revenue).

use crate::chain::{pace, replay, Settled};
use std::collections::BTreeMap;
use tussle_core::{ExperimentReport, Table};
use tussle_econ::{AccountId, Ledger, Money};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::packet::{ports, Packet, Protocol};
use tussle_net::{Network, NodeId};
use tussle_routing::sourceroute::{authorize_route, enumerate_paths};
use tussle_routing::AsGraph;
use tussle_sim::{Ctx, SimRng, SimTime};

/// The three §V.A.4 regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// BGP picks; the user has no say.
    ProviderRouting,
    /// The user source-routes but nobody pays the transit.
    SourceRoutingUnpaid,
    /// The user source-routes and compensates every on-path AS.
    SourceRoutingPaid,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::ProviderRouting => "provider routing (BGP)",
            Regime::SourceRoutingUnpaid => "source routing, unpaid",
            Regime::SourceRoutingPaid => "source routing, paid",
        }
    }
}

/// Result of one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// Fraction of packets delivered.
    pub delivery_rate: f64,
    /// Mean latency of delivered packets (ms).
    pub mean_latency_ms: f64,
    /// Revenue the premium transit collected.
    pub premium_transit_revenue: Money,
}

struct World {
    net: Network,
    src_host: NodeId,
    cheap_router: NodeId,
    premium_router: NodeId,
    src_addr: Address,
    dst_addr: Address,
}

/// Topology: src -- srcISP -- {cheap AS10 (slow), premium AS20 (fast)} -- dstISP -- dst.
fn world() -> World {
    let mut net = Network::new();
    let src = net.add_host(Asn(1));
    let src_isp = net.add_router(Asn(1));
    let cheap = net.add_router(Asn(10));
    let premium = net.add_router(Asn(20));
    let dst_isp = net.add_router(Asn(2));
    let dst = net.add_host(Asn(2));
    net.connect(src, src_isp, SimTime::from_millis(1), 1_000_000_000);
    net.connect(src_isp, cheap, SimTime::from_millis(40), 1_000_000_000);
    net.connect(src_isp, premium, SimTime::from_millis(5), 1_000_000_000);
    net.connect(cheap, dst_isp, SimTime::from_millis(40), 1_000_000_000);
    net.connect(premium, dst_isp, SimTime::from_millis(5), 1_000_000_000);
    net.connect(dst_isp, dst, SimTime::from_millis(1), 1_000_000_000);

    let src_addr =
        Address::in_prefix(Prefix::new(0x0a010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(1)));
    let dst_addr =
        Address::in_prefix(Prefix::new(0x0b010000, 16), 1, AddressOrigin::ProviderAssigned(Asn(2)));
    net.node_mut(src).bind(src_addr);
    net.node_mut(dst).bind(dst_addr);

    // BGP-equivalent FIBs: the provider prefers the CHEAP transit (it is
    // its customer route / lowest cost to itself — the user's latency is
    // not the provider's objective).
    let dp = Prefix::new(0x0b010000, 16);
    net.fib_mut(src).install(Prefix::DEFAULT, src_isp, 0);
    net.fib_mut(src_isp).install(dp, cheap, 0);
    net.fib_mut(cheap).install(dp, dst_isp, 0);
    net.fib_mut(premium).install(dp, dst_isp, 0);
    net.fib_mut(dst_isp).install(dp, dst, 0);

    // Transit ASes refuse source routes unless compensated.
    net.node_mut(cheap).honors_source_routes = false;
    net.node_mut(premium).honors_source_routes = false;
    // The user's own ISP forwards its customer's choices.
    net.node_mut(src_isp).honors_source_routes = true;

    World { net, src_host: src, cheap_router: cheap, premium_router: premium, src_addr, dst_addr }
}

/// The AS graph matching the topology, for path enumeration and pricing.
fn as_graph() -> AsGraph {
    let mut g = AsGraph::new();
    g.customer_of(Asn(1), Asn(10));
    g.customer_of(Asn(2), Asn(10));
    g.customer_of(Asn(1), Asn(20));
    g.customer_of(Asn(2), Asn(20));
    g
}

/// Everything one regime's flow needs, threaded through its event chain.
struct FlowState {
    w: World,
    ledger: Ledger,
    source_route: Vec<NodeId>,
    sent: usize,
    delivered: usize,
    latency_total_ms: f64,
}

/// Build a regime's world, choose (and if paid, pay for) its route.
fn flow_state(regime: Regime) -> FlowState {
    let mut w = world();
    let mut ledger = Ledger::new();
    let user = AccountId(1);
    let premium_acct = AccountId(20);
    ledger.open(user);
    ledger.open(premium_acct);
    ledger.mint(user, Money::from_dollars(1_000));

    // Premium transit asks $0.50 per flow for honoring a source route.
    let asking = BTreeMap::from([(Asn(20), 500_000u64), (Asn(10), 200_000u64)]);

    let source_route = match regime {
        Regime::ProviderRouting => Vec::new(),
        Regime::SourceRoutingUnpaid | Regime::SourceRoutingPaid => {
            // the user consults the route menu and picks the premium path
            let offers = enumerate_paths(&as_graph(), Asn(1), Asn(2), 4, &asking);
            let premium_offer =
                offers.iter().find(|o| o.path.contains(&Asn(20))).expect("premium path exists");
            if regime == Regime::SourceRoutingPaid {
                // pay once per flow batch; the transit flips to honoring
                ledger
                    .transfer(user, premium_acct, Money(premium_offer.price as i64), "transit AS20")
                    .expect("user is funded");
                let payments = BTreeMap::from([(Asn(20), premium_offer.price)]);
                authorize_route(&as_graph(), &premium_offer.path, &asking, &payments)
                    .expect("payment covers the ask");
                w.net.node_mut(w.premium_router).honors_source_routes = true;
            }
            vec![w.premium_router]
        }
    };
    let _ = w.cheap_router;
    FlowState { w, ledger, source_route, sent: 0, delivered: 0, latency_total_ms: 0.0 }
}

/// Send one batch of packets from `st`, mutating the delivery counters.
fn send_batch(st: &mut FlowState, n: usize, rng: &mut SimRng) {
    for _ in 0..n {
        let pkt = Packet::new(st.w.src_addr, st.w.dst_addr, Protocol::Udp, 9000, ports::VOIP)
            .with_source_route(st.source_route.clone());
        let rep = st.w.net.send(st.w.src_host, pkt, rng);
        if rep.delivered {
            st.delivered += 1;
            st.latency_total_ms += rep.latency.as_millis_f64();
        }
    }
    st.sent += n;
}

fn outcome_of(st: &FlowState) -> RoutingOutcome {
    RoutingOutcome {
        delivery_rate: st.delivered as f64 / st.sent as f64,
        mean_latency_ms: if st.delivered > 0 {
            st.latency_total_ms / st.delivered as f64
        } else {
            f64::NAN
        },
        premium_transit_revenue: st.ledger.total_received(AccountId(20)),
    }
}

/// Run one regime over `n_packets` (the pure loop the unit tests drive;
/// [`run`] replays the same flow as paced engine-event bursts).
pub fn run_regime(regime: Regime, n_packets: usize, seed: u64) -> RoutingOutcome {
    let mut rng = SimRng::seed_from_u64(seed).fork("e04");
    let mut st = flow_state(regime);
    send_batch(&mut st, n_packets, &mut rng);
    outcome_of(&st)
}

/// E4's replay world: each regime's settled flow outcome.
type Flows = Settled<RoutingOutcome>;

/// Flows per burst event in the engine replay.
const BURST: usize = 25;
/// Total flows per regime.
const N_FLOWS: usize = 200;

/// One paced burst of flows as an engine event; each burst schedules the
/// next after a seeded pacing lag, so a regime's 200 flows form one causal
/// chain whose forwarding draws come from the engine's rng stream.
fn run_burst(w: &mut Flows, ctx: &mut Ctx<Flows>, i: usize, regime: Regime, mut st: FlowState) {
    ctx.span_enter(
        "e4.burst",
        Some("user"),
        &[("regime", regime.label()), ("sent", &st.sent.to_string())],
    );
    let n = BURST.min(N_FLOWS - st.sent);
    send_batch(&mut st, n, ctx.rng);
    if st.sent < N_FLOWS {
        let lag = pace(
            ctx,
            "e4.pacing",
            "user",
            &[],
            format!("{} flows sent; next burst follows", st.sent),
        );
        ctx.span_exit(&[("delivered", &st.delivered.to_string())]);
        ctx.schedule_in(lag, move |w2, ctx2| run_burst(w2, ctx2, i, regime, st));
    } else {
        let o = outcome_of(&st);
        ctx.trace_fields(
            "e4.settled",
            Some("isp"),
            &[("delivery_rate", &format!("{:.2}", o.delivery_rate))],
            format!("{} settles", regime.label()),
        );
        ctx.span_exit(&[("delivered", &st.delivered.to_string())]);
        w.put(i, o);
    }
}

/// Run E4 and produce the report. Each regime's flows run as a causal
/// chain of burst events on the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let regimes = [Regime::ProviderRouting, Regime::SourceRoutingUnpaid, Regime::SourceRoutingPaid];
    let outcomes = replay(seed, regimes, |w, ctx, i, regime| {
        // Each regime's route choice (and payment) is a root injection.
        ctx.span_enter("e4.route_choice", Some("provider"), &[("regime", regime.label())]);
        let st = flow_state(regime);
        ctx.span_exit(&[("paid", &(regime == Regime::SourceRoutingPaid).to_string())]);
        run_burst(w, ctx, i, regime, st);
    });

    let mut table = Table::new(
        "Wide-area path control (200 VoIP flows; cheap transit 80ms, premium 10ms)",
        &["delivery rate", "mean latency (ms)", "premium transit revenue"],
    );
    for (r, o) in regimes.into_iter().zip(&outcomes) {
        table.push_row(
            r.label(),
            &[
                format!("{:.2}", o.delivery_rate),
                format!("{:.1}", o.mean_latency_ms),
                o.premium_transit_revenue.to_string(),
            ],
        );
    }
    let (bgp, unpaid, paid) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    let shape_holds = bgp.delivery_rate > 0.99
        && unpaid.delivery_rate < 0.01 // refused by the transit
        && paid.delivery_rate > 0.99
        && paid.mean_latency_ms < bgp.mean_latency_ms / 2.0
        && paid.premium_transit_revenue.is_positive();

    ExperimentReport {
        id: "E4".into(),
        section: "V.A.4".into(),
        paper_claim: "Provider-controlled routing denies users path choice; unpaid source routes \
                      are refused by transit ASes that see no benefit; source routing coupled to \
                      payment delivers the premium path AND compensates the carrier."
            .into(),
        summary: format!(
            "BGP delivers at {:.0}ms over the cheap transit; unpaid source routes deliver {:.0}% \
             of traffic; paid source routes deliver at {:.0}ms and pay the premium transit {}.",
            bgp.mean_latency_ms,
            unpaid.delivery_rate * 100.0,
            paid.mean_latency_ms,
            paid.premium_transit_revenue
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
    use tussle_sim::obs::{self, ObsMode};

    /// The route cache is invisible to every regime: the full flow, sent
    /// with and without it, delivers the same packets, consumes the same
    /// rng words and leaves the same cost digest.
    #[test]
    fn route_cache_is_invisible_to_every_regime() {
        let regimes =
            [Regime::ProviderRouting, Regime::SourceRoutingUnpaid, Regime::SourceRoutingPaid];
        for regime in regimes {
            let send = |cached: bool| {
                let mut st = flow_state(regime);
                st.w.net.set_route_caching(cached);
                let mut rng = SimRng::seed_from_u64(7).fork("e04");
                let guard = obs::begin(ObsMode::Cost);
                send_batch(&mut st, N_FLOWS, &mut rng);
                let digest = guard.finish().digest;
                let delivered = (st.sent, st.delivered, st.latency_total_ms.to_bits());
                (delivered, st.ledger.total_received(AccountId(20)), rng.word_pos(), digest)
            };
            assert_eq!(send(true), send(false), "{}", regime.label());
        }
    }

    #[test]
    fn bgp_takes_the_slow_path() {
        let o = run_regime(Regime::ProviderRouting, 50, 1);
        assert!(o.delivery_rate > 0.99);
        assert!(o.mean_latency_ms > 80.0, "cheap transit is slow: {}", o.mean_latency_ms);
        assert_eq!(o.premium_transit_revenue, Money::ZERO);
    }

    #[test]
    fn unpaid_source_routes_are_refused() {
        let o = run_regime(Regime::SourceRoutingUnpaid, 50, 1);
        assert_eq!(o.delivery_rate, 0.0);
    }

    #[test]
    fn paid_source_routes_take_the_fast_path_and_pay() {
        let o = run_regime(Regime::SourceRoutingPaid, 50, 1);
        assert!(o.delivery_rate > 0.99);
        assert!(o.mean_latency_ms < 20.0, "premium path: {}", o.mean_latency_ms);
        assert_eq!(o.premium_transit_revenue, Money(500_000));
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
