//! The seed backtracking evaluator, preserved as an oracle.
//!
//! This is the dynamic-ordering search that `magik-relalg` shipped with
//! before plans existed: at every search node it re-picks the most
//! constrained remaining atom and re-chooses an access path under the
//! current partial assignment, with `HashMap` bindings and an explicit
//! undo trail. It is kept verbatim for two jobs: the proptest equivalence
//! suite checks planned execution against it on randomized inputs, and the
//! `exec_plans` bench measures the planned executor's speedup over it.
//! Production code paths must not call it.

use std::collections::{BTreeSet, HashMap};

use magik_relalg::{
    Answer, AnswerSet, Atom, Cst, EvalError, Fact, Instance, Query, RowRef, Substitution, Term, Var,
};

/// Partial assignment during search.
type Bindings = HashMap<Var, Cst>;

/// Tries to extend `bind` so that the atom matches the stored row. On
/// success returns the list of variables newly bound (the trail); on
/// failure returns `None` and leaves `bind` exactly as it was.
fn match_atom(atom: &Atom, row: RowRef<'_>, bind: &mut Bindings) -> Option<Vec<Var>> {
    let mut trail = Vec::new();
    for (col, &t) in atom.args.iter().enumerate() {
        let c = row.get(col);
        let ok = match t {
            Term::Cst(tc) => tc == c,
            Term::Var(v) => match bind.get(&v) {
                Some(&bound) => bound == c,
                None => {
                    bind.insert(v, c);
                    trail.push(v);
                    true
                }
            },
        };
        if !ok {
            for v in trail {
                bind.remove(&v);
            }
            return None;
        }
    }
    Some(trail)
}

/// Estimated number of candidate tuples for `atom` under `bind`, and the
/// best access path: `Some((col, cst))` to use the column index, `None`
/// for a full scan.
fn plan_atom(atom: &Atom, db: &Instance, bind: &Bindings) -> (usize, Option<(usize, Cst)>) {
    let Some(rel) = db.relation(atom.pred) else {
        return (0, None);
    };
    let mut best = (rel.len(), None);
    for (col, &t) in atom.args.iter().enumerate() {
        let value = match t {
            Term::Cst(c) => Some(c),
            Term::Var(v) => bind.get(&v).copied(),
        };
        if let Some(c) = value {
            let n = rel.matches(col, c).len();
            if n < best.0 {
                best = (n, Some((col, c)));
            }
        }
    }
    best
}

/// Depth-first search over the remaining atoms. `visit` returns `true` to
/// continue enumerating and `false` to stop early. Returns `false` iff the
/// search was stopped early.
fn search(
    remaining: &mut Vec<&Atom>,
    db: &Instance,
    bind: &mut Bindings,
    visit: &mut dyn FnMut(&Bindings) -> bool,
) -> bool {
    if remaining.is_empty() {
        return visit(bind);
    }
    // Pick the most constrained atom (fewest candidates).
    let mut best_i = 0;
    let mut best = (usize::MAX, None);
    for (i, atom) in remaining.iter().enumerate() {
        let plan = plan_atom(atom, db, bind);
        if plan.0 < best.0 {
            best_i = i;
            best = plan;
            if best.0 == 0 {
                return true; // dead branch, nothing to enumerate
            }
        }
    }
    let atom = remaining.swap_remove(best_i);
    let rel = db.relation(atom.pred).expect("plan found candidates");
    let mut keep_going = true;
    let mut try_tuple =
        |row: RowRef<'_>, remaining: &mut Vec<&Atom>, bind: &mut Bindings| -> bool {
            if let Some(trail) = match_atom(atom, row, bind) {
                let cont = search(remaining, db, bind, visit);
                for v in trail {
                    bind.remove(&v);
                }
                cont
            } else {
                true
            }
        };
    match best.1 {
        Some((col, c)) => {
            for pos in rel.matches(col, c) {
                if !try_tuple(rel.row(pos), remaining, bind) {
                    keep_going = false;
                    break;
                }
            }
        }
        None => {
            for row in rel.iter() {
                if !try_tuple(row, remaining, bind) {
                    keep_going = false;
                    break;
                }
            }
        }
    }
    remaining.push(atom);
    keep_going
}

/// Enumerates satisfying assignments of `body` over `db` extending `seed`,
/// calling `visit` for each; `visit` returns `false` to stop.
fn for_each_model(
    body: &[Atom],
    db: &Instance,
    seed: Bindings,
    visit: &mut dyn FnMut(&Bindings) -> bool,
) -> bool {
    let mut remaining: Vec<&Atom> = body.iter().collect();
    let mut bind = seed;
    search(&mut remaining, db, &mut bind, visit)
}

/// Reference `answers`: identical contract to
/// [`magik_relalg::answers`], computed by the seed search.
pub fn answers(q: &Query, db: &Instance) -> Result<AnswerSet, EvalError> {
    let body_vars = q.body_vars();
    if let Some(v) = q.head_vars().into_iter().find(|v| !body_vars.contains(v)) {
        return Err(EvalError::UnsafeQuery(v));
    }
    let mut out = AnswerSet::new();
    for_each_model(&q.body, db, Bindings::new(), &mut |bind| {
        let tuple: Answer = q
            .head
            .iter()
            .map(|&t| match t {
                Term::Cst(c) => c,
                Term::Var(v) => bind[&v],
            })
            .collect();
        out.insert(tuple);
        true
    });
    Ok(out)
}

/// Reference `has_answer`: identical contract to
/// [`magik_relalg::has_answer`], computed by the seed search.
pub fn has_answer(q: &Query, db: &Instance, target: &[Cst]) -> bool {
    if q.head.len() != target.len() {
        return false;
    }
    let mut seed = Bindings::new();
    for (&t, &c) in q.head.iter().zip(target) {
        match t {
            Term::Cst(tc) => {
                if tc != c {
                    return false;
                }
            }
            Term::Var(v) => match seed.get(&v) {
                Some(&bound) => {
                    if bound != c {
                        return false;
                    }
                }
                None => {
                    seed.insert(v, c);
                }
            },
        }
    }
    let mut found = false;
    for_each_model(&q.body, db, seed, &mut |_| {
        found = true;
        false
    });
    found
}

/// Reference `homomorphisms`: identical contract to
/// [`magik_relalg::homomorphisms`], computed by the seed search.
pub fn homomorphisms(body: &[Atom], db: &Instance) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_model(body, db, Bindings::new(), &mut |bind| {
        out.push(Substitution::from_pairs(
            bind.iter().map(|(&v, &c)| (v, Term::Cst(c))),
        ));
        true
    });
    out
}

/// Reference naive fixpoint over positive rules `(head, body)`: applies
/// every rule against the whole model until nothing new derives. The
/// oracle for the semi-naive equivalence tests and the seed baseline for
/// the fixpoint benches (it re-plans each body at every search node of
/// every round, exactly as the pre-plan Datalog engine did).
pub fn naive_fixpoint(rules: &[(Atom, Vec<Atom>)], edb: &Instance) -> Instance {
    let mut model = edb.clone();
    loop {
        let mut new_facts: Vec<Fact> = Vec::new();
        for (head, body) in rules {
            for_each_model(body, &model, Bindings::new(), &mut |bind| {
                let args: Vec<Cst> = head
                    .args
                    .iter()
                    .map(|&t| match t {
                        Term::Cst(c) => c,
                        Term::Var(v) => bind[&v],
                    })
                    .collect();
                let fact = Fact::new(head.pred, args);
                if !model.contains(&fact) {
                    new_facts.push(fact);
                }
                true
            });
        }
        let mut grew = false;
        for fact in new_facts {
            grew |= model.insert(fact);
        }
        if !grew {
            return model;
        }
    }
}

/// The set of variables of `body` (helper for tests comparing
/// homomorphism domains).
pub fn body_vars(body: &[Atom]) -> BTreeSet<Var> {
    body.iter().flat_map(Atom::vars).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::Vocabulary;

    #[test]
    fn reference_agrees_with_planned_on_a_join() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            db.insert(Fact::new(e, vec![v.cst(a), v.cst(b)]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x), Term::Var(z)],
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            ],
        );
        assert_eq!(
            answers(&q, &db).unwrap(),
            magik_relalg::answers(&q, &db).unwrap()
        );
        let ab = [v.cst("a"), v.cst("c")];
        assert_eq!(
            has_answer(&q, &db, &ab),
            magik_relalg::has_answer(&q, &db, &ab)
        );
        assert_eq!(
            homomorphisms(&q.body, &db).len(),
            magik_relalg::homomorphisms(&q.body, &db).len()
        );
    }

    #[test]
    fn naive_fixpoint_computes_transitive_closure() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let t = v.pred("t", 2);
        let mut edb = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            edb.insert(Fact::new(e, vec![v.cst(a), v.cst(b)]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let rules = vec![
            (
                Atom::new(t, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])],
            ),
            (
                Atom::new(t, vec![Term::Var(x), Term::Var(z)]),
                vec![
                    Atom::new(t, vec![Term::Var(x), Term::Var(y)]),
                    Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
                ],
            ),
        ];
        let model = naive_fixpoint(&rules, &edb);
        let paths = model.relation(t).map_or(0, magik_relalg::Relation::len);
        assert_eq!(paths, 6); // ab ac ad bc bd cd
    }
}
