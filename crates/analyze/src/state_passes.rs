//! State-aware analysis: diagnostics M018–M025 over a *live* session
//! (statement set + stored instance + constraints + vocabulary) rather
//! than a standalone document.
//!
//! The document passes judge a spec in isolation; a running server knows
//! more — which relations actually hold facts, which statements the
//! session has accumulated, what the interned vocabulary looks like.
//! These passes surface the mismatches only that view can see: redundant
//! or dead statements in the accumulated set (M018/M019), relations that
//! store facts nobody guarantees (M020, the completeness blind spot),
//! guarantees that match nothing currently stored (M021), checks doomed
//! to come back incomplete on every instance (M022, reusing the
//! [`guaranteeable_relations`] greatest fixpoint of `coverage.rs`), a
//! fact-holding session with no statements at all (M023), same-name
//! relations interned at different arities (M024 — unreachable in a
//! single parse, but incremental sessions can get there), and incomplete
//! checks with an attached minimal repair (M025).
//!
//! All diagnostics are span-free ([`Location`]s only): live state has no
//! source text. The server caches the rendered result per
//! `(tcs_epoch, data_epoch)` in its engine's `analysis` cache.

use std::collections::{BTreeMap, BTreeSet};

use magik_completeness::keys::ChaseOutcome;
use magik_completeness::lint::Lint;
use magik_completeness::{chase_query, lint, ConstraintSet, TcSet};
use magik_relalg::{DisplayWith, Fact, Pred, Query, Term, Vocabulary};

use crate::coverage::guaranteeable_relations;
use crate::diag::{Code, Diagnostic, Location, QueryPart, StatementPart};

/// Analyzes a live session: statements M018/M019/M021, data M020/M023,
/// vocabulary M024. Deterministic: diagnostics come back ordered by
/// location, then code.
pub fn analyze_state(
    tcs: &TcSet,
    constraints: &ConstraintSet,
    facts: &[Fact],
    vocab: &Vocabulary,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let statements = tcs.statements();

    // M018: redundancy within the live set — duplicates and subsumed
    // statements, via the same lint the document pass M001/M002 uses.
    for l in lint(tcs) {
        match l {
            Lint::Duplicate { first, second } => out.push(
                Diagnostic::new(
                    Code::RedundantLiveStatement,
                    Location::Statement {
                        index: second,
                        part: StatementPart::Whole,
                    },
                    format!(
                        "live statement duplicates statement [{first}] `{}` up to renaming",
                        statements[first].display(vocab)
                    ),
                )
                .with_note("retracting it would not change any verdict"),
            ),
            Lint::Subsumed { subsumed, by } => out.push(
                Diagnostic::new(
                    Code::RedundantLiveStatement,
                    Location::Statement {
                        index: subsumed,
                        part: StatementPart::Whole,
                    },
                    format!(
                        "live statement is subsumed by the more general statement [{by}] `{}`",
                        statements[by].display(vocab)
                    ),
                )
                .with_note("retracting it would not change any verdict"),
            ),
            Lint::SelfConditioned { .. } | Lint::UnguaranteeableCondition { .. } => {}
        }
    }

    // M019: statements that can never fire under the session ICs.
    for (i, c) in statements.iter().enumerate() {
        let aq = c.associated_query();
        let dead = constraints.variable_domains(&aq).is_err()
            || matches!(
                chase_query(&aq, constraints.keys()),
                ChaseOutcome::Unsatisfiable
            );
        if dead {
            out.push(
                Diagnostic::new(
                    Code::UnsatisfiableLiveStatement,
                    Location::Statement {
                        index: i,
                        part: StatementPart::Whole,
                    },
                    format!(
                        "live statement `{}` can never fire under the session's integrity \
                         constraints",
                        c.display(vocab)
                    ),
                )
                .with_note("its guarantee is vacuous on every valid instance"),
            );
        }
    }

    let stored: BTreeSet<Pred> = facts.iter().map(|f| f.pred).collect();
    let headed: BTreeSet<Pred> = statements.iter().map(|c| c.head.pred).collect();

    // M023: facts but no statements at all — one document-level notice
    // instead of one M020 per relation (which would restate it noisily).
    if !facts.is_empty() && tcs.is_empty() {
        out.push(
            Diagnostic::new(
                Code::EmptyStatementSet,
                Location::Document,
                format!(
                    "the session stores {} fact{} but holds no completeness statements",
                    facts.len(),
                    if facts.len() == 1 { "" } else { "s" }
                ),
            )
            .with_note(
                "every completeness check returns `incomplete` until a statement is asserted",
            ),
        );
    } else {
        // M020: asserted facts with no covering statement.
        for &p in &stored {
            if !headed.contains(&p) {
                let n = facts.iter().filter(|f| f.pred == p).count();
                out.push(
                    Diagnostic::new(
                        Code::CompletenessBlindSpot,
                        Location::Document,
                        format!(
                            "relation `{}/{}` has {n} asserted fact{} but no statement guarantees \
                             any part of it",
                            vocab.pred_name(p),
                            vocab.arity(p),
                            if n == 1 { "" } else { "s" }
                        ),
                    )
                    .with_note(
                        "queries over it can never be proved complete — a completeness blind spot",
                    ),
                );
            }
        }
    }

    // M021: statements whose head pattern matches zero stored facts.
    // Only meaningful once the session stores data at all.
    if !facts.is_empty() {
        for (i, c) in statements.iter().enumerate() {
            let matches_something = facts
                .iter()
                .filter(|f| f.pred == c.head.pred)
                .any(|f| pattern_matches(&c.head.args, &f.args, vocab));
            if !matches_something {
                out.push(
                    Diagnostic::new(
                        Code::VacuousStatement,
                        Location::Statement {
                            index: i,
                            part: StatementPart::Head,
                        },
                        format!(
                            "live statement `{}` matches no stored fact",
                            c.display(vocab)
                        ),
                    )
                    .with_note("the guarantee is currently vacuous over the stored instance"),
                );
            }
        }
    }

    // M024: one name interned at several arities across statements,
    // facts, and constraints.
    let mut used: BTreeSet<Pred> = tcs.signature();
    used.extend(stored.iter().copied());
    used.extend(constraints.domains().iter().map(|d| d.pred));
    used.extend(constraints.keys().iter().map(|k| k.pred));
    let mut by_name: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for &p in &used {
        by_name
            .entry(vocab.pred_name(p))
            .or_default()
            .insert(vocab.arity(p));
    }
    for (name, arities) in by_name {
        if arities.len() > 1 {
            let list = arities
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" and ");
            out.push(
                Diagnostic::new(
                    Code::LiveArityConflict,
                    Location::Document,
                    format!("relation name `{name}` is interned at arities {list} in this session"),
                )
                .with_note(
                    "same-name relations of different arity are unrelated; this usually means a \
                     mistyped assert or compl request",
                ),
            );
        }
    }

    out.sort_by(|a, b| {
        a.location
            .cmp(&b.location)
            .then_with(|| a.code.cmp(&b.code))
    });
    out
}

/// M022/M025 for one query. M022: the check verdict is `incomplete` on
/// *every* instance when a body atom's relation lies outside the
/// greatest fixpoint of guaranteeable relations — no complete
/// specialization exists, so the T_C-based test can never succeed.
/// M025: the query is incomplete under the current statement set, and a
/// minimal set of additional statements that would repair it (computed
/// by [`magik_completeness::repair_suggestions`], 1-minimal: removing
/// any one leaves the query incomplete) is attached as the suggestion.
/// `index` is only used for the diagnostic locations.
pub fn analyze_check(index: usize, q: &Query, tcs: &TcSet, vocab: &Vocabulary) -> Vec<Diagnostic> {
    if q.body.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let alive = guaranteeable_relations(tcs);
    let dead: Vec<String> = q
        .body
        .iter()
        .filter(|a| !alive.contains(&a.pred))
        .map(|a| format!("`{}`", a.display(vocab)))
        .collect();
    if !dead.is_empty() {
        out.push(
            Diagnostic::new(
                Code::TriviallyIncompleteCheck,
                Location::Query {
                    index,
                    part: QueryPart::Whole,
                },
                format!(
                    "checking `{}` is trivially incomplete for every instance: atom{} {} over \
                     transitively unguaranteeable relation{}",
                    vocab.name(q.name),
                    if dead.len() == 1 { "" } else { "s" },
                    dead.join(", "),
                    if dead.len() == 1 { "" } else { "s" },
                ),
            )
            .with_note(
                "the greatest-fixpoint coverage analysis proves no complete specialization \
                 exists; asserting a statement for the dead relation is the only repair",
            ),
        );
    }
    if !magik_completeness::is_complete(q, tcs) {
        let repair: Vec<String> = magik_completeness::repair_suggestions(q, tcs)
            .iter()
            .map(|s| format!("`{}`", s.display(vocab)))
            .collect();
        out.push(
            Diagnostic::new(
                Code::IncompleteWithRepair,
                Location::Query {
                    index,
                    part: QueryPart::Whole,
                },
                format!(
                    "checking `{}` comes back incomplete under the current statement set",
                    vocab.name(q.name)
                ),
            )
            .with_note(format!(
                "minimal repair: assert {}; the set is 1-minimal — removing any one of \
                 these statements leaves the query incomplete",
                repair.join(", ")
            )),
        );
    }
    out
}

/// Does a statement-head pattern match a stored tuple? Constants must
/// coincide; named variables bind rigidly (repeated occurrences must
/// agree); `_` is a wildcard.
fn pattern_matches(pattern: &[Term], tuple: &[magik_relalg::Cst], vocab: &Vocabulary) -> bool {
    if pattern.len() != tuple.len() {
        return false;
    }
    let mut bound: BTreeMap<magik_relalg::Var, magik_relalg::Cst> = BTreeMap::new();
    for (t, &c) in pattern.iter().zip(tuple.iter()) {
        match *t {
            Term::Cst(k) => {
                if k != c {
                    return false;
                }
            }
            Term::Var(v) => {
                if vocab.var_name(v) == "_" {
                    continue;
                }
                if *bound.entry(v).or_insert(c) != c {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_parser::{parse_document, parse_query};
    use magik_relalg::Vocabulary;

    fn live(src: &str) -> (Vec<Diagnostic>, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(src, &mut vocab).unwrap();
        let facts: Vec<Fact> = doc.facts.iter_facts().collect();
        let diags = analyze_state(&doc.tcs, &doc.constraints, &facts, &vocab);
        (diags, vocab)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn redundant_live_statement_is_m018() {
        let (diags, _) = live(
            "compl p(X) ; true.
             compl p(Y) ; true.
             fact p(a).",
        );
        let m018: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::RedundantLiveStatement)
            .collect();
        assert_eq!(m018.len(), 1, "{diags:?}");
        assert_eq!(
            m018[0].location,
            Location::Statement {
                index: 1,
                part: StatementPart::Whole
            }
        );
    }

    #[test]
    fn dead_live_statement_is_m019() {
        let (diags, _) = live(
            "domain shift(_, T) in {day, night}.
             compl worker(W) ; shift(W, evening).
             fact worker(ann).",
        );
        assert!(
            codes(&diags).contains(&Code::UnsatisfiableLiveStatement),
            "{diags:?}"
        );
    }

    #[test]
    fn blind_spot_is_m020() {
        let (diags, _) = live(
            "compl school(S, T, D) ; true.
             fact school(goethe, primary, merano).
             fact pupil(john, c1, goethe).",
        );
        let m020: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::CompletenessBlindSpot)
            .collect();
        assert_eq!(m020.len(), 1, "{diags:?}");
        assert!(m020[0].message.contains("pupil"), "{m020:?}");
    }

    #[test]
    fn vacuous_statement_is_m021() {
        let (diags, _) = live(
            "compl school(S, primary, D) ; true.
             fact school(goethe, middle, merano).",
        );
        let m021: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::VacuousStatement)
            .collect();
        assert_eq!(m021.len(), 1, "{diags:?}");
        // A matching fact clears it.
        let (diags, _) = live(
            "compl school(S, primary, D) ; true.
             fact school(goethe, primary, merano).",
        );
        assert!(
            !codes(&diags).contains(&Code::VacuousStatement),
            "{diags:?}"
        );
    }

    #[test]
    fn empty_statement_set_is_m023_and_mutes_m020() {
        let (diags, _) = live("fact p(a).\nfact q(b).");
        let cs = codes(&diags);
        assert!(cs.contains(&Code::EmptyStatementSet), "{diags:?}");
        assert!(!cs.contains(&Code::CompletenessBlindSpot), "{diags:?}");
    }

    #[test]
    fn live_arity_conflict_is_m024() {
        // A single parse forbids mixed arities, so build the state
        // programmatically the way an incremental session would.
        let mut v = Vocabulary::new();
        let p1 = v.pred("p", 1);
        let p2 = v.pred("p", 2);
        let a = v.cst("a");
        let facts = vec![Fact::new(p1, vec![a]), Fact::new(p2, vec![a, a])];
        let diags = analyze_state(&TcSet::default(), &ConstraintSet::default(), &facts, &v);
        assert!(
            codes(&diags).contains(&Code::LiveArityConflict),
            "{diags:?}"
        );
    }

    #[test]
    fn trivially_incomplete_check_is_m022() {
        let mut v = Vocabulary::new();
        let doc = parse_document("compl pupil(N, C, S) ; class(C, S, L, T).", &mut v).unwrap();
        let q = parse_query("q(N) :- pupil(N, C, S)", &mut v).unwrap();
        let diags = analyze_check(0, &q, &doc.tcs, &v);
        // The doomed check is also plainly incomplete, so the repair
        // diagnostic rides along.
        assert_eq!(
            codes(&diags),
            vec![Code::TriviallyIncompleteCheck, Code::IncompleteWithRepair]
        );
        assert!(diags[0].message.contains("pupil"), "{diags:?}");
        // A covered query is clean.
        let doc2 = parse_document("compl pupil(N, C, S) ; true.", &mut v).unwrap();
        assert!(analyze_check(0, &q, &doc2.tcs, &v).is_empty());
    }

    #[test]
    fn incomplete_check_with_repair_is_m025() {
        let mut v = Vocabulary::new();
        let doc = parse_document(
            "compl school(S, primary, D) ; true.
             compl pupil(N, C, S) ; school(S, T, merano).",
            &mut v,
        )
        .unwrap();
        let q = parse_query(
            "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L)",
            &mut v,
        )
        .unwrap();
        let diags = analyze_check(0, &q, &doc.tcs, &v);
        // `learns` is unguaranteeable, so M022 fires too; M025 carries
        // the concrete repair.
        assert!(
            codes(&diags).contains(&Code::IncompleteWithRepair),
            "{diags:?}"
        );
        let m025 = diags
            .iter()
            .find(|d| d.code == Code::IncompleteWithRepair)
            .unwrap();
        assert_eq!(m025.severity, crate::Severity::Info);
        let note = m025.notes.join(" ");
        assert!(note.contains("compl learns(N, L) ; true"), "{note}");
        assert!(note.contains("1-minimal"), "{note}");
        // The complete sibling query stays clean.
        let q2 = parse_query("q(N) :- pupil(N, C, S), school(S, primary, merano)", &mut v).unwrap();
        assert!(analyze_check(0, &q2, &doc.tcs, &v).is_empty());
    }

    #[test]
    fn clean_live_state_reports_nothing() {
        let (diags, _) = live(
            "compl school(S, T, D) ; true.
             compl pupil(N, C, S) ; school(S, T, merano).
             fact school(goethe, primary, merano).
             fact pupil(john, c1, goethe).",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
