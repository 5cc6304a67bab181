//! E8 — Anonymity vs. accountability (§V.B.1).
//!
//! Paper claim: "There is a fundamental tussle between the ideas of
//! anonymous action, and the idea that ... one can be held accountable for
//! ones actions. A possible outcome of this tension is that while it will
//! be possible to act anonymously, many people will choose not to
//! communicate with you if you do, or will attempt to limit what you do. A
//! compromise outcome of this tussle might be that if you are trying to act
//! in an anonymous way, it should be hard to disguise this fact."
//!
//! Measured: senders using each identity scheme approach a population of
//! receivers with mixed anonymity policies; we record reach (acceptance),
//! limitation, and whether disguised anonymity is detected.

use crate::chain::{pace, replay, Settled};
use tussle_core::{ExperimentReport, Table};
use tussle_trust::identity::{AnonymityPolicy, IdentityFramework, IdentityScheme};

/// Aggregate outcome for one identity scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentityOutcome {
    /// Fraction of receivers who accept the sender at all.
    pub reach: f64,
    /// Fraction of receivers who accept but limit the sender.
    pub limited: f64,
    /// Whether the framework flags the scheme as disguised anonymity.
    pub disguise_detected: bool,
}

fn framework() -> IdentityFramework {
    let mut f = IdentityFramework::new(vec![100], vec![7]);
    f.register_tag(42); // a certified user
    f.register_tag(55); // a registered pseudonym
    f.register_tag(tussle_trust::identity::derive_role_tag("purchasing", 7));
    f
}

/// The receiver population: a third of each §V.B.1 posture.
fn receivers() -> Vec<AnonymityPolicy> {
    let mut v = Vec::new();
    for _ in 0..10 {
        v.push(AnonymityPolicy::AcceptAll);
        v.push(AnonymityPolicy::RefuseAnonymous);
        v.push(AnonymityPolicy::LimitAnonymous);
    }
    v
}

/// Evaluate one scheme against the receiver population.
pub fn run_scheme(scheme: &IdentityScheme) -> IdentityOutcome {
    let f = framework();
    let rs = receivers();
    let mut accepted = 0usize;
    let mut limited = 0usize;
    for policy in &rs {
        let (ok, lim) = f.admit(*policy, scheme);
        if ok {
            accepted += 1;
            if lim {
                limited += 1;
            }
        }
    }
    IdentityOutcome {
        reach: accepted as f64 / rs.len() as f64,
        limited: limited as f64 / rs.len() as f64,
        disguise_detected: f.disguised_anonymity(scheme),
    }
}

/// Run E8 and produce the report. The admission logic is pure; each scheme
/// plays as a two-event causal chain (the sender presents credentials,
/// then — after a seeded challenge lag — the receiver population rules) on
/// the shared engine clock.
pub fn run(seed: u64) -> ExperimentReport {
    let schemes: Vec<(&'static str, IdentityScheme)> = vec![
        ("certified", IdentityScheme::Certified { id: 42, authority: 100 }),
        ("pseudonym", IdentityScheme::Pseudonym { key: 55 }),
        ("role (org 7)", IdentityScheme::Role { role: "purchasing".into(), org: 7 }),
        ("anonymous", IdentityScheme::Anonymous),
        ("forged tag", IdentityScheme::ForgedTag { fake: 9999 }),
    ];
    let outcomes = replay(seed, schemes.clone(), |_, ctx, i, (label, scheme)| {
        ctx.span_enter("e8.present", Some("user"), &[("scheme", label)]);
        let lag = pace(
            ctx,
            "e8.challenge",
            "provider",
            &[],
            format!("{label} credentials presented; receivers deliberate"),
        );
        ctx.span_exit(&[]);
        ctx.schedule_in(lag, move |w2: &mut Settled<IdentityOutcome>, ctx2| {
            ctx2.span_enter("e8.ruling", Some("provider"), &[("scheme", label)]);
            let o = run_scheme(&scheme);
            ctx2.span_exit(&[("reach", &format!("{:.2}", o.reach))]);
            w2.put(i, o);
        });
    });

    let mut table = Table::new(
        "Reach by identity scheme (30 receivers: accept-all / refuse-anon / limit-anon)",
        &["reach", "limited", "disguise detected"],
    );
    for ((label, _), o) in schemes.iter().zip(&outcomes) {
        table.push_row(
            label,
            &[
                format!("{:.2}", o.reach),
                format!("{:.2}", o.limited),
                o.disguise_detected.to_string(),
            ],
        );
    }
    let certified = &outcomes[0];
    let role = &outcomes[2];
    let anon = &outcomes[3];
    let forged = &outcomes[4];
    let shape_holds = certified.reach > anon.reach
        && role.reach == certified.reach // no global namespace needed
        && anon.reach > 0.0 // anonymity remains possible
        && anon.limited > 0.0 // but limited
        && forged.disguise_detected
        && !anon.disguise_detected;

    ExperimentReport {
        id: "E8".into(),
        section: "V.B.1".into(),
        paper_claim: "Anonymity stays possible but costs reach (receivers refuse or limit \
                      anonymous parties); identity needs a framework, not a global namespace \
                      (role identities reach as far as certified ones); and disguising \
                      anonymity should be hard — forged tags are detectable."
            .into(),
        summary: format!(
            "reach: certified {:.0}%, role {:.0}%, anonymous {:.0}% (of which {:.0}% limited); \
             forged tags detected: {}.",
            certified.reach * 100.0,
            role.reach * 100.0,
            anon.reach * 100.0,
            anon.limited * 100.0,
            forged.disguise_detected,
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
    fn identified_parties_reach_everyone() {
        let o = run_scheme(&IdentityScheme::Certified { id: 42, authority: 100 });
        assert_eq!(o.reach, 1.0);
        assert_eq!(o.limited, 0.0);
    }

    #[test]
    fn anonymous_parties_lose_a_third_and_get_limited() {
        let o = run_scheme(&IdentityScheme::Anonymous);
        assert!((o.reach - 2.0 / 3.0).abs() < 1e-9);
        assert!((o.limited - 1.0 / 3.0).abs() < 1e-9);
        assert!(!o.disguise_detected);
    }

    #[test]
    fn role_identity_equals_certified_reach() {
        let cert = run_scheme(&IdentityScheme::Certified { id: 42, authority: 100 });
        let role = run_scheme(&IdentityScheme::Role { role: "purchasing".into(), org: 7 });
        assert_eq!(cert.reach, role.reach);
    }

    #[test]
    fn forgery_is_detected_and_treated_as_anonymous() {
        let o = run_scheme(&IdentityScheme::ForgedTag { fake: 9999 });
        assert!(o.disguise_detected);
        assert!((o.reach - 2.0 / 3.0).abs() < 1e-9, "forged = anonymous in reach");
    }

    #[test]
    fn report_shape_holds() {
        let r = run(1);
        assert!(r.shape_holds, "{}", r.summary);
    }
}
