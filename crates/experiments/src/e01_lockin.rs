//! E1 — Provider lock-in from IP addressing (§V.A.1).
//!
//! Paper claim: "Either a customer is locked into his provider by the
//! provider-based addresses, or he obtains a separate block of addresses
//! that is not topologically significant and therefore adds to the size of
//! the forwarding tables in the core of the network. Mechanisms that favor
//! the consumer in this tussle include dynamic host numbering (DHCP) and
//! dynamic update of DNS entries."
//!
//! Measured: a duopoly access market where the switching cost is set by
//! the addressing mode (provider-assigned = painful manual renumbering;
//! PA + DHCP/dynamic-DNS = cheap renumbering; provider-independent = no
//! renumbering at all), and a core-router FIB whose size depends on
//! whether customer blocks aggregate.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_econ::{Consumer, Market, Money, Provider};
use tussle_net::addr::{Address, AddressOrigin, Asn, Prefix};
use tussle_net::Network;
use tussle_sim::{Ctx, SimTime};

/// The three addressing modes of the §V.A.1 tussle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressingMode {
    /// Provider-assigned, static configuration: switching means manual
    /// renumbering of every host, DNS entry and firewall rule.
    ProviderAssignedStatic,
    /// Provider-assigned with DHCP + dynamic DNS: renumbering is cheap.
    ProviderAssignedDynamic,
    /// Provider-independent: portable addresses, zero renumbering, but
    /// one core route per customer.
    ProviderIndependent,
}

impl AddressingMode {
    fn label(self) -> &'static str {
        match self {
            AddressingMode::ProviderAssignedStatic => "PA-static",
            AddressingMode::ProviderAssignedDynamic => "PA+DHCP+dynDNS",
            AddressingMode::ProviderIndependent => "PI",
        }
    }

    /// The one-time switching cost the mode implies.
    fn switching_cost(self) -> Money {
        match self {
            AddressingMode::ProviderAssignedStatic => Money::from_dollars(600),
            AddressingMode::ProviderAssignedDynamic => Money::from_dollars(40),
            AddressingMode::ProviderIndependent => Money::from_dollars(5),
        }
    }
}

/// Results for one addressing mode.
#[derive(Debug, Clone, PartialEq)]
pub struct LockinOutcome {
    /// Equilibrium markup over marginal cost.
    pub markup: f64,
    /// Equilibrium average headline price.
    pub avg_price: Money,
    /// Core FIB entries needed to route to all customers.
    pub core_fib_entries: usize,
}

/// Run one addressing mode: a duopoly over `n_consumers`, plus the core
/// routing table the mode implies.
pub fn run_mode(mode: AddressingMode, n_consumers: u64, months: usize) -> LockinOutcome {
    // --- market side -----------------------------------------------------
    let consumers: Vec<Consumer> = (0..n_consumers)
        .map(|id| Consumer {
            id,
            value: Money::from_dollars(100),
            usage_mb: 1000,
            runs_server: false,
            tunnels: false,
            switching_cost: mode.switching_cost(),
            provider: None,
        })
        .collect();
    let providers = vec![
        Provider::flat("isp-a", Money::from_dollars(60), Money::from_dollars(20)),
        Provider::flat("isp-b", Money::from_dollars(60), Money::from_dollars(20)),
    ];
    let mut market = Market::new(consumers, providers);
    let report = market.run(months);

    // --- routing side -----------------------------------------------------
    let core_fib_entries = core_fib_for(mode, n_consumers as usize);

    LockinOutcome { markup: report.avg_markup, avg_price: report.avg_headline, core_fib_entries }
}

/// Build the core topology for a mode and count the core router's FIB.
fn core_fib_for(mode: AddressingMode, n_customers: usize) -> usize {
    let mut net = Network::new();
    let core = net.add_router(Asn(0));
    let isp_a = net.add_router(Asn(1));
    let isp_b = net.add_router(Asn(2));
    net.connect(core, isp_a, SimTime::from_millis(5), 1_000_000_000);
    net.connect(core, isp_b, SimTime::from_millis(5), 1_000_000_000);

    let agg_a = Prefix::new(0x0a00_0000, 8);
    let agg_b = Prefix::new(0x0b00_0000, 8);

    match mode {
        AddressingMode::ProviderAssignedStatic | AddressingMode::ProviderAssignedDynamic => {
            // customers live inside their provider's aggregate: the core
            // needs exactly one route per provider.
            for (i, _) in (0..n_customers).enumerate() {
                let (asn, agg, via) =
                    if i % 2 == 0 { (Asn(1), agg_a, isp_a) } else { (Asn(2), agg_b, isp_b) };
                let block = agg.subprefix(24, i as u32);
                let host = net.add_host(asn);
                let addr = Address::in_prefix(block, 1, AddressOrigin::ProviderAssigned(asn));
                net.node_mut(host).bind(addr);
                let _ = via;
            }
            net.fib_mut(core).install(agg_a, isp_a, 0);
            net.fib_mut(core).install(agg_b, isp_b, 0);
        }
        AddressingMode::ProviderIndependent => {
            // every customer brings their own block: the core carries one
            // route per customer.
            for i in 0..n_customers {
                let asn = if i % 2 == 0 { Asn(1) } else { Asn(2) };
                let via = if i % 2 == 0 { isp_a } else { isp_b };
                let block = Prefix::new(0xc000_0000 | ((i as u32) << 8), 24);
                let host = net.add_host(asn);
                let addr = Address::in_prefix(block, 1, AddressOrigin::ProviderIndependent);
                net.node_mut(host).bind(addr);
                net.fib_mut(core).install(block, via, 0);
            }
        }
    }
    net.fib(core).len()
}

/// One addressing mode as a two-event causal chain: the market settles
/// first, then — after a seeded renumbering/roll-out lag — the core
/// routing table the mode implies is installed. The lag is the run's
/// seed-dependent texture (what `diff` bisects); the chain is what
/// `explain` walks.
fn deploy_mode(ctx: &mut Ctx<Settled<LockinOutcome>>, i: usize, mode: AddressingMode) {
    ctx.span_enter(
        "e1.market",
        Some("user"),
        &[("mode", mode.label()), ("switching_cost", &mode.switching_cost().to_string())],
    );
    let outcome = run_mode(mode, 30, 80);
    let lag = pace(
        ctx,
        "e1.settled",
        "user",
        &[("markup", &format!("{:.2}", outcome.markup))],
        format!("{} market settles; core routes install next", mode.label()),
    );
    ctx.span_exit(&[("markup", &format!("{:.2}", outcome.markup))]);
    ctx.schedule_in(lag, move |w2: &mut Settled<LockinOutcome>, ctx2| {
        ctx2.span_enter("e1.routing", Some("isp"), &[("mode", mode.label())]);
        ctx2.span_exit(&[("core_fib_entries", &outcome.core_fib_entries.to_string())]);
        w2.put(i, outcome);
    });
}

/// Run E1 and produce the report. The market/FIB logic is pure; the engine
/// replay gives each mode a causal event structure on the shared clock.
pub fn run(seed: u64) -> ExperimentReport {
    let modes = [
        AddressingMode::ProviderAssignedStatic,
        AddressingMode::ProviderAssignedDynamic,
        AddressingMode::ProviderIndependent,
    ];
    let outcomes = replay(seed, modes, |_, ctx, i, mode| deploy_mode(ctx, i, mode));

    let mut table = Table::new(
        "Lock-in and routing cost by addressing mode (duopoly, 30 consumers)",
        &["switching cost", "markup", "avg price", "core FIB entries"],
    );
    for (mode, o) in modes.into_iter().zip(&outcomes) {
        table.push_row(
            mode.label(),
            &[
                mode.switching_cost().to_string(),
                format!("{:.2}", o.markup),
                o.avg_price.to_string(),
                o.core_fib_entries.to_string(),
            ],
        );
    }

    let (pa, dhcp, pi) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    // The paper's shape: static PA sustains the highest markup; both
    // consumer-favouring mechanisms discipline price; PI pays for it in
    // core routing state.
    let shape_holds = pa.markup > dhcp.markup
        && pa.markup > pi.markup
        && pi.core_fib_entries > 10 * pa.core_fib_entries;

    ExperimentReport {
        id: "E1".into(),
        section: "V.A.1".into(),
        paper_claim: "Provider-based addresses lock customers in (sustaining a price markup); \
                      DHCP/dynamic-DNS or provider-independent addresses restore competition, \
                      but PI blocks inflate core forwarding tables."
            .into(),
        summary: format!(
            "markup: PA-static {:.2} vs PA+DHCP {:.2} vs PI {:.2}; core FIB: {} vs {} vs {} entries.",
            pa.markup, dhcp.markup, pi.markup,
            pa.core_fib_entries, dhcp.core_fib_entries, pi.core_fib_entries
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
    fn lockin_raises_markup() {
        let locked = run_mode(AddressingMode::ProviderAssignedStatic, 20, 60);
        let free = run_mode(AddressingMode::ProviderAssignedDynamic, 20, 60);
        assert!(locked.markup > free.markup, "locked {} vs free {}", locked.markup, free.markup);
    }

    #[test]
    fn pi_blocks_blow_up_the_core_fib() {
        let pa = run_mode(AddressingMode::ProviderAssignedStatic, 40, 1);
        let pi = run_mode(AddressingMode::ProviderIndependent, 40, 1);
        assert_eq!(pa.core_fib_entries, 2, "one aggregate per provider");
        assert_eq!(pi.core_fib_entries, 40, "one route per customer");
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
        assert_eq!(r.table.rows.len(), 3);
    }
}
