//! Property test for the retail market's pricing loop.

use proptest::prelude::*;
use tussle_econ::{Consumer, Market, MarketReport, Money, PricingScheme, Provider};

/// The clone-based pricing loop `Market::run` used before `profit_if`
/// evaluated candidates in place, kept verbatim as a reference model. It
/// drives a `Market` through its public fields only; `report` is shared.
mod reference {
    use tussle_econ::{Consumer, Market, MarketReport, Money, PricingScheme, Provider};

    fn gross_surplus(c: &Consumer, p: &Provider) -> Money {
        let perceived = c.value.scale(p.quality);
        perceived - p.scheme.bill(c.observed_usage())
    }

    fn net_surplus(m: &Market, c: &Consumer, p_idx: usize) -> Money {
        let gross = gross_surplus(c, &m.providers[p_idx]);
        if c.provider == Some(p_idx) {
            gross
        } else {
            gross - Money(c.switching_cost.micros() / m.amortization_months.max(1))
        }
    }

    fn best_choice(m: &Market, c: &Consumer) -> Option<usize> {
        let mut best: Option<(usize, Money)> = None;
        for idx in 0..m.providers.len() {
            let s = net_surplus(m, c, idx);
            if !s.is_positive() && !s.micros().eq(&0) {
                // negative surplus: skip
                continue;
            }
            if s.is_negative() {
                continue;
            }
            match best {
                Some((_, bs)) if bs >= s => {}
                _ => best = Some((idx, s)),
            }
        }
        best.map(|(i, _)| i)
    }

    fn choice_phase(m: &mut Market) -> usize {
        let mut switches = 0;
        for i in 0..m.consumers.len() {
            let c = m.consumers[i].clone();
            let pick = best_choice(m, &c);
            if pick != c.provider {
                switches += 1;
            }
            m.consumers[i].provider = pick;
        }
        switches
    }

    fn profit_if(m: &Market, p_idx: usize, candidate: &PricingScheme) -> Money {
        let mut profit = Money::ZERO;
        let mut trial = m.clone();
        trial.providers[p_idx].scheme = candidate.clone();
        for c in &m.consumers {
            if best_choice(&trial, c) == Some(p_idx) {
                let revenue = candidate.bill(c.observed_usage());
                profit += revenue - trial.providers[p_idx].marginal_cost;
            }
        }
        profit
    }

    fn pricing_phase(m: &mut Market) {
        let avg_switch_monthly = if m.consumers.is_empty() {
            Money::ZERO
        } else {
            Money(
                m.consumers.iter().map(|c| c.switching_cost.micros()).sum::<i64>()
                    / m.consumers.len() as i64
                    / m.amortization_months.max(1),
            )
        };
        for idx in 0..m.providers.len() {
            if !m.providers[idx].adjusts_price {
                continue;
            }
            let current = m.providers[idx].scheme.clone();
            let rival_floor = m
                .providers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, p)| p.scheme.headline())
                .min();
            let mut candidates =
                vec![adjust_scheme(&current, m.price_step), adjust_scheme(&current, -m.price_step)];
            if let Some(floor) = rival_floor {
                let here = current.headline();
                candidates.push(adjust_scheme(&current, floor - here - m.price_step));
                candidates.push(adjust_scheme(
                    &current,
                    floor - here - avg_switch_monthly - m.price_step,
                ));
            }
            let mut best = (profit_if(m, idx, &current), current.clone());
            for cand in candidates.into_iter().flatten() {
                let p = profit_if(m, idx, &cand);
                if p > best.0 {
                    best = (p, cand);
                }
            }
            m.providers[idx].scheme = best.1;
        }
    }

    fn adjust_scheme(scheme: &PricingScheme, delta: Money) -> Option<PricingScheme> {
        fn bump(m: Money, d: Money) -> Money {
            (m + d).max(Money::ZERO)
        }
        let out = match scheme {
            PricingScheme::Flat { monthly } => {
                PricingScheme::Flat { monthly: bump(*monthly, delta) }
            }
            PricingScheme::PerByte { per_mb } => {
                PricingScheme::PerByte { per_mb: bump(*per_mb, Money(delta.micros() / 1000)) }
            }
            PricingScheme::TwoPart { monthly, per_mb } => {
                PricingScheme::TwoPart { monthly: bump(*monthly, delta), per_mb: *per_mb }
            }
            PricingScheme::ValuePricing { residential, business } => PricingScheme::ValuePricing {
                residential: bump(*residential, delta),
                business: *business,
            },
        };
        (out != *scheme).then_some(out)
    }

    pub fn run(m: &mut Market, months: usize) -> MarketReport {
        let mut last_switches = 0;
        for _ in 0..months {
            last_switches = choice_phase(m);
            pricing_phase(m);
        }
        last_switches += choice_phase(m);
        m.report(last_switches)
    }
}

fn arb_scheme() -> impl Strategy<Value = PricingScheme> {
    let dollars = || (0i64..150).prop_map(Money::from_dollars);
    let per_mb = || (0i64..100_000).prop_map(Money);
    prop_oneof![
        dollars().prop_map(|monthly| PricingScheme::Flat { monthly }),
        per_mb().prop_map(|per_mb| PricingScheme::PerByte { per_mb }),
        (dollars(), per_mb())
            .prop_map(|(monthly, per_mb)| PricingScheme::TwoPart { monthly, per_mb }),
        (dollars(), dollars()).prop_map(|(residential, business)| PricingScheme::ValuePricing {
            residential,
            business
        }),
    ]
}

fn arb_provider() -> impl Strategy<Value = Provider> {
    (arb_scheme(), 0i64..60, 0.5f64..1.5, 0u8..4).prop_map(|(scheme, cost, quality, frozen)| {
        Provider {
            name: "p".into(),
            scheme,
            marginal_cost: Money::from_dollars(cost),
            quality,
            // one provider in four keeps its tariff
            adjusts_price: frozen != 0,
        }
    })
}

/// A random market and a month count: 1–5 providers and up to 15
/// consumers, some already subscribed to a provider.
fn arb_market() -> impl Strategy<Value = (Market, usize)> {
    let consumer = (
        0i64..250,
        0u64..3_000,
        any::<bool>(),
        any::<bool>(),
        0i64..1_000,
        (any::<bool>(), 0usize..5),
    );
    (
        proptest::collection::vec(arb_provider(), 1..=5),
        proptest::collection::vec(consumer, 0..16),
        1i64..24,
        1i64..6,
        0usize..12,
    )
        .prop_map(|(ps, cs, amortization, step, months)| {
            let n = ps.len();
            let cs = cs
                .into_iter()
                .enumerate()
                .map(|(id, (value, usage_mb, runs_server, tunnels, switching, (subscribed, p)))| {
                    Consumer {
                        id: id as u64,
                        value: Money::from_dollars(value),
                        usage_mb,
                        runs_server,
                        tunnels,
                        switching_cost: Money::from_dollars(switching),
                        provider: subscribed.then_some(p % n),
                    }
                })
                .collect();
            let mut m = Market::new(cs, ps);
            m.amortization_months = amortization;
            m.price_step = Money::from_dollars(step);
            (m, months)
        })
}

fn assert_same_report(got: &MarketReport, want: &MarketReport) {
    assert_eq!(got.served, want.served, "served");
    assert_eq!(got.unserved, want.unserved, "unserved");
    assert_eq!(got.switches, want.switches, "switches");
    assert_eq!(got.avg_headline, want.avg_headline, "avg_headline");
    assert_eq!(got.avg_markup.to_bits(), want.avg_markup.to_bits(), "avg_markup");
    assert_eq!(got.consumer_surplus, want.consumer_surplus, "consumer_surplus");
    assert_eq!(got.provider_profit, want.provider_profit, "provider_profit");
    assert_eq!(got.shares, want.shares, "shares");
}

proptest! {
    /// `Market::run`, which tries each candidate price in place, reports
    /// exactly what the clone-per-candidate loop reported, and leaves the
    /// same tariffs and assignments behind.
    #[test]
    fn run_matches_clone_based_reference((market, months) in arb_market()) {
        let mut model = market.clone();
        let mut market = market;
        let got = market.run(months);
        let want = reference::run(&mut model, months);
        assert_same_report(&got, &want);
        for (p, q) in market.providers.iter().zip(&model.providers) {
            prop_assert_eq!(&p.scheme, &q.scheme);
        }
        for (c, d) in market.consumers.iter().zip(&model.consumers) {
            prop_assert_eq!(c.provider, d.provider);
        }
    }
}
