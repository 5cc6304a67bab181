//! `registry`: one op runs all 17 experiments once each, one after another
//! on one thread, through `run_captured` at the op's seed, and renders every
//! report with `to_markdown` and `to_json` — the `tussle-cli experiments`
//! path. Ops cycle through `SEEDS` op seeds fixed by the run seed: the
//! golden seed, whose markdown must equal `tests/golden/E*.md` byte for
//! byte, and `SEEDS - 1` seeds derived from the run seed.

use crate::measure::{derive_seed, timed, CountLedger, CountMismatch, Tracer};
use crate::{self_ms_per_op, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use tussle_core::ExperimentReport;
use tussle_experiments::{registry, run_captured, run_profiled, ExperimentEntry};

/// The seed the golden reports were rendered at.
pub const GOLDEN_SEED: u64 = 2002;
/// Op seeds per run; op `k` runs seed slot `k % SEEDS`, and slot 0 is the
/// golden seed.
const SEEDS: usize = 16;
/// Op seeds the obs-cost probe of the traced run times three ways.
const PROBE_OPS: usize = 3;

/// The deterministic counts of one run, from its `RunCost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    events: u64,
    rng_draws: u64,
    spans: u64,
    trace_entries: u64,
    forwards: u64,
}

impl Counts {
    fn of(r: &ExperimentReport) -> Option<Counts> {
        r.cost.as_ref().map(|c| Counts {
            events: c.events,
            rng_draws: c.rng_draws,
            spans: c.spans,
            trace_entries: c.trace_entries,
            forwards: c.forwards,
        })
    }

    fn add(&mut self, o: Counts) {
        self.events += o.events;
        self.rng_draws += o.rng_draws;
        self.spans += o.spans;
        self.trace_entries += o.trace_entries;
        self.forwards += o.forwards;
    }
}

/// What is wrong with one registry pass, if anything: a failed shape, a
/// panic (a report without a cost appendix), or, at the golden seed, a
/// markdown that differs from its golden file.
pub fn check_pass(
    seed: u64,
    reports: &[ExperimentReport],
    markdown: &[String],
    goldens: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.len() != 17 || markdown.len() != reports.len() {
        problems.push(format!(
            "{} reports, {} renders; expected 17",
            reports.len(),
            markdown.len()
        ));
    }
    for (r, md) in reports.iter().zip(markdown) {
        if !r.shape_holds {
            problems.push(format!("{} seed {seed}: shape does not hold — {}", r.id, r.summary));
        }
        if r.cost.is_none() {
            problems.push(format!("{} seed {seed}: panicked — {}", r.id, r.summary));
        }
        if seed == GOLDEN_SEED && goldens.get(&r.id) != Some(md) {
            problems.push(format!(
                "{} seed {seed}: markdown differs from tests/golden/{}.md",
                r.id, r.id
            ));
        }
    }
    problems
}

/// Read `tests/golden/E*.md` for every registry id.
pub fn load_goldens(dir: &Path) -> BTreeMap<String, String> {
    registry()
        .iter()
        .filter_map(|(id, _)| {
            let text = std::fs::read_to_string(dir.join(format!("{id}.md"))).ok()?;
            Some(((*id).to_owned(), text))
        })
        .collect()
}

/// The golden directory of the repository this benchmark sits in.
pub fn golden_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// The registry workload's state.
pub struct Registry {
    /// The op seeds, golden seed first.
    seeds: Vec<u64>,
    entries: Vec<ExperimentEntry>,
    span_names: Vec<String>,
    goldens: BTreeMap<String, String>,
    ledger: CountLedger<(&'static str, u64), Counts>,
    /// Cost digests of each seed slot's first run, to compare with every
    /// later run of that slot, traced or not.
    digests: BTreeMap<usize, Vec<String>>,
    golden_counts: Counts,
}

impl Registry {
    fn op_seed(&self, k: usize) -> u64 {
        self.seeds[k % SEEDS]
    }
}

impl Workload for Registry {
    const INPUTS: usize = SEEDS;

    fn setup(seed: u64) -> Self {
        let entries = registry();
        Registry {
            seeds: std::iter::once(GOLDEN_SEED)
                .chain((1..SEEDS as u64).map(|j| derive_seed(seed, j)))
                .collect(),
            span_names: entries.iter().map(|(id, _)| format!("experiments.{id}")).collect(),
            entries,
            goldens: load_goldens(&golden_dir()),
            ledger: CountLedger::default(),
            digests: BTreeMap::new(),
            golden_counts: Counts::default(),
        }
    }

    fn warm_up(&mut self) -> Result<(), CountMismatch> {
        // Op 0 (the golden seed); the loop runs it again.
        self.op(0, &mut Tracer::new(false)).map(|_| ())
    }

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(Duration, bool), CountMismatch> {
        let seed = self.op_seed(k);
        let entries = &self.entries;
        let names = &self.span_names;
        let ((reports, markdown), t) = timed(|| {
            tr.span("registry.pass", |tr| {
                let mut reports = Vec::with_capacity(entries.len());
                let mut markdown = Vec::with_capacity(entries.len());
                for ((id, run), span) in entries.iter().zip(names) {
                    let r = tr.span(span, |_| run_captured(id, *run, seed));
                    let (md, json) = tr.span("core.render", |_| (r.to_markdown(), r.to_json()));
                    std::hint::black_box(json);
                    markdown.push(md);
                    reports.push(r);
                }
                (reports, markdown)
            })
        });

        let problems = check_pass(seed, &reports, &markdown, &self.goldens);
        let mut ok = problems.is_empty();
        for p in problems.iter().take(3) {
            eprintln!("check failed, op {k}: {p}");
        }
        let mut total = Counts::default();
        let mut digests = Vec::with_capacity(reports.len());
        for ((id, _), r) in self.entries.iter().zip(&reports) {
            if let Some(c) = Counts::of(r) {
                self.ledger.observe((*id, seed), c)?;
                total.add(c);
            }
            digests.push(r.cost.as_ref().map_or_else(String::new, |c| c.digest.clone()));
        }
        if seed == GOLDEN_SEED {
            self.golden_counts = total;
        }
        match self.digests.get(&(k % SEEDS)) {
            Some(first) if *first != digests => {
                eprintln!(
                    "check failed, op {k}: cost digests differ from an earlier run of seed {seed}"
                );
                ok = false;
            }
            Some(_) => {}
            None => {
                self.digests.insert(k % SEEDS, digests);
            }
        }
        Ok((t, ok))
    }

    fn per_layer(
        &mut self,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<BTreeMap<&'static str, f64>, CountMismatch> {
        // Observation cost: the same runs bare, captured (cost scope) and
        // profiled, in rotating order so no variant always runs warm.
        let mut totals = [Duration::ZERO; 3];
        for k in 0..PROBE_OPS.min(n) {
            let seed = self.op_seed(k);
            for (id, run) in &self.entries {
                for v in 0..3 {
                    let variant = (v + k) % 3;
                    let ((), t) = timed(|| match variant {
                        0 => tr.span("sim.bare_run", |_| {
                            std::hint::black_box(run(seed));
                        }),
                        1 => tr.span("experiments.run_captured", |_| {
                            std::hint::black_box(run_captured(id, *run, seed));
                        }),
                        _ => tr.span("experiments.run_profiled", |_| {
                            std::hint::black_box(run_profiled(id, *run, seed));
                        }),
                    });
                    totals[variant] += t;
                }
            }
        }

        let spans = tr.spans();
        let mut m = BTreeMap::new();
        // PER_LAYER opens with E1_ms..E17_ms in registry order.
        for (name, (metric, _)) in self.span_names.iter().zip(crate::PER_LAYER) {
            debug_assert_eq!(format!("{name}_ms"), *metric);
            m.insert(*metric, self_ms_per_op(spans, name, n));
        }
        m.insert("core.render_ms", self_ms_per_op(spans, "core.render", n));
        let bare = totals[0].as_secs_f64();
        m.insert("sim.obs_cost_ratio", totals[1].as_secs_f64() / bare);
        m.insert("sim.obs_profile_ratio", totals[2].as_secs_f64() / bare);
        let c = self.golden_counts;
        m.insert("sim.events", c.events as f64);
        m.insert("sim.rng_draws", c.rng_draws as f64);
        m.insert("sim.spans", c.spans as f64);
        m.insert("sim.trace_entries", c.trace_entries as f64);
        m.insert("net.forwards", c.forwards as f64);
        Ok(m)
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "op = 17 experiments + to_markdown/to_json; ops cycle through {SEEDS} seeds: golden seed {GOLDEN_SEED}, then {:?}",
            &self.seeds[1..]
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Tally;

    fn golden_pass() -> (Vec<ExperimentReport>, Vec<String>) {
        let reports: Vec<_> =
            registry().into_iter().map(|(id, run)| run_captured(id, run, GOLDEN_SEED)).collect();
        let md = reports.iter().map(ExperimentReport::to_markdown).collect();
        (reports, md)
    }

    fn ratio(verdicts: &[bool]) -> f64 {
        let mut t = Tally::default();
        verdicts.iter().for_each(|&ok| t.record(ok));
        t.failed_ratio()
    }

    #[test]
    fn a_correct_golden_pass_passes() {
        let goldens = load_goldens(&golden_dir());
        assert_eq!(goldens.len(), 17);
        let (reports, md) = golden_pass();
        assert_eq!(check_pass(GOLDEN_SEED, &reports, &md, &goldens), Vec::<String>::new());
    }

    #[test]
    fn an_altered_golden_line_fails_the_op() {
        let mut goldens = load_goldens(&golden_dir());
        let e5 = goldens.get_mut("E5").unwrap();
        *e5 = e5.replacen('|', "!", 1);
        let (reports, md) = golden_pass();
        let ok = check_pass(GOLDEN_SEED, &reports, &md, &goldens).is_empty();
        assert!(ratio(&[true, ok]) > 0.0);
    }

    #[test]
    fn a_flipped_shape_fails_the_op() {
        let goldens = load_goldens(&golden_dir());
        let (mut reports, md) = golden_pass();
        reports[11].shape_holds = false;
        let ok = check_pass(7, &reports, &md, &goldens).is_empty();
        assert!(ratio(&[true, ok]) > 0.0);
    }

    #[test]
    fn a_panicked_run_fails_the_op() {
        let goldens = load_goldens(&golden_dir());
        let (mut reports, md) = golden_pass();
        reports[3] = tussle_experiments::panic_report("E4", 7, "planted");
        reports[3].shape_holds = true;
        let ok = check_pass(7, &reports, &md, &goldens).is_empty();
        assert!(ratio(&[true, ok]) > 0.0);
    }

    #[test]
    fn op_seeds_cycle_through_a_fixed_list() {
        let w = Registry::setup(1);
        assert_eq!(w.op_seed(0), GOLDEN_SEED);
        assert_eq!(w.op_seed(SEEDS), GOLDEN_SEED);
        assert_eq!(w.op_seed(SEEDS + 3), w.op_seed(3));
        assert_eq!(w.op_seed(3), derive_seed(1, 3));
        assert_ne!(Registry::setup(2).op_seed(3), w.op_seed(3));
    }

    #[test]
    fn changed_digests_between_runs_fail_the_op() {
        let mut w = Registry::setup(1);
        let mut off = Tracer::new(false);
        assert!(w.op(1, &mut off).unwrap().1);
        w.digests.get_mut(&1).unwrap()[0].push('x');
        let (_, ok) = w.op(1, &mut off).unwrap();
        assert!(ratio(&[true, ok]) > 0.0);
    }

    #[test]
    fn changed_counts_between_runs_stop_the_benchmark() {
        let mut w = Registry::setup(1);
        let mut off = Tracer::new(false);
        let seed = w.op_seed(1);
        w.ledger.observe(("E1", seed), Counts { events: 1, ..Counts::default() }).unwrap();
        assert!(w.op(1, &mut off).is_err());
    }
}
