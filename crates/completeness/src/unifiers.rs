//! Complete unifiers (Definition 20) and their enumeration.
//!
//! A substitution γ is a *complete unifier* for `Q` and `C` if every body
//! atom `A` of `Q` unifies with the (renamed-apart) head of some statement
//! `Compl(A'; G)` and the instantiated condition embeds into the
//! instantiated body: `γA = γA'` and `γG ⊆ γB`. Applying a complete
//! unifier yields a complete query (Proposition 21), and every complete
//! instantiation is subsumed by one obtained from a most general complete
//! unifier (Theorem 23).
//!
//! Enumeration is a backtracking search over *matching configurations*:
//! for every body atom a statement whose head it unifies with, and for
//! every condition atom of that statement a body atom it collapses onto.
//! The search shares one [`Unifier`] and prunes on unification failure —
//! the discipline a Prolog engine applies when running Algorithm 2.
//!
//! The search reads no vocabulary. Statements are renamed apart with
//! *scratch variables* from a [`VarPool`]: bare ids past every variable
//! of the query, the statements and the caller's vocabulary
//! ([`Var::scratch`]). A search on any thread therefore runs on shared,
//! read-only inputs. The calling thread names the scratch variables a run
//! drew ([`ScratchNames`]) as `T#n` (and `F#n` for Algorithm 3's
//! extension atoms), once each, in the order in which the pools grew.

use magik_relalg::{Atom, Query, Substitution, Term, Var, Vocabulary};
use magik_unify::Unifier;

use crate::tcs::{TcSet, TcStatement};

/// Which pool a scratch variable comes from: Algorithm 3's fresh
/// extension atoms (named `F#n`) or renamed statements (named `T#n`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scratch {
    Extension,
    Statement,
}

/// A stack-like pool of reusable scratch variables.
///
/// The unifier search renames a statement apart on every attempt. Attempts
/// draw variables from this pool and release them on backtracking, so one
/// search holds only as many scratch variables as its deepest path needs —
/// however long it runs.
///
/// Reuse is sound because (a) bindings are rolled back before a variable
/// is released and (b) variables only need to be distinct *within* one
/// candidate configuration, never across independent ones.
///
/// Slot `i` of a pool of one kind is always the same id, so pools on
/// different threads agree on every id. The two kinds interleave, so
/// neither collides with the other however far either grows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VarPool {
    floor: usize,
    kind: Scratch,
    /// The stack position: restoring it releases everything drawn since.
    top: usize,
    /// Slots ever drawn: the pool's high-water mark.
    drawn: usize,
}

impl VarPool {
    pub(crate) fn draw(&mut self) -> Var {
        let v = self.var(self.top);
        self.top += 1;
        self.drawn = self.drawn.max(self.top);
        v
    }

    fn var(&self, slot: usize) -> Var {
        Var::scratch(self.floor, 2 * slot + self.kind as usize)
    }
}

/// Names one run's scratch variables in `vocab`, in growth order.
///
/// A run notes each pool it used, in the order its searches ran, and the
/// slots past those already named are named next with
/// [`Vocabulary::fresh_var`] — so a run's names do not depend on which
/// thread ran which search.
pub(crate) struct ScratchNames<'v> {
    vocab: &'v mut Vocabulary,
    floor: usize,
    /// Slots named so far, per [`Scratch`] kind.
    named: [usize; 2],
    /// Each named scratch id's variable.
    renaming: Substitution,
}

impl<'v> ScratchNames<'v> {
    /// Names for a search over `q` and `tcs`: scratch ids start past every
    /// variable of `vocab`, `q` and `tcs`.
    pub(crate) fn new(vocab: &'v mut Vocabulary, q: &Query, tcs: &TcSet) -> ScratchNames<'v> {
        let used = tcs
            .statements()
            .iter()
            .flat_map(TcStatement::all_vars)
            .chain(q.all_vars())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        ScratchNames {
            floor: vocab.num_vars().max(used),
            vocab,
            named: [0; 2],
            renaming: Substitution::identity(),
        }
    }

    /// An empty pool of `kind`.
    pub(crate) fn pool(&self, kind: Scratch) -> VarPool {
        VarPool {
            floor: self.floor,
            kind,
            top: 0,
            drawn: 0,
        }
    }

    /// Notes that `pool` was used: names its slots past those already
    /// named, in slot order.
    pub(crate) fn grow(&mut self, pool: &VarPool) {
        let hint = ["F", "T"][pool.kind as usize];
        let named = &mut self.named[pool.kind as usize];
        for slot in *named..pool.drawn {
            let name = self.vocab.fresh_var(hint);
            self.renaming.bind(pool.var(slot), Term::Var(name));
        }
        *named = (*named).max(pool.drawn);
    }

    /// The renaming from the named scratch ids to their variables.
    pub(crate) fn renaming(self) -> Substitution {
        self.renaming
    }
}

/// Renames a statement apart using pool variables (drawn, not minted).
fn rename_with_pool(c: &TcStatement, pool: &mut VarPool) -> TcStatement {
    let renaming: Substitution = c
        .all_vars()
        .into_iter()
        .map(|v| (v, Term::Var(pool.draw())))
        .collect();
    TcStatement {
        head: renaming.apply_atom(&c.head),
        condition: c.condition.iter().map(|a| renaming.apply_atom(a)).collect(),
    }
}

/// Counters describing one enumeration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnifierSearchStats {
    /// Atom-level unification attempts.
    pub unify_calls: u64,
    /// Complete configurations reached (one per unifier visited).
    pub configurations: u64,
}

struct Search<'a> {
    body: &'a [Atom],
    statements: &'a [TcStatement],
    pool: &'a mut VarPool,
    /// Use predicate pre-filtering when selecting candidate statements and
    /// body atoms (the optimized engine). Without it the search still
    /// succeeds/fails identically — unification rejects mismatched
    /// predicates — but performs many more calls, like a Prolog program
    /// without clause indexing.
    indexed: bool,
    u: Unifier,
    stats: UnifierSearchStats,
    /// The search aborts once `stats.unify_calls` exceeds this.
    max_unify_calls: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn over_budget(&mut self) -> bool {
        if self.stats.unify_calls > self.max_unify_calls {
            self.exhausted = true;
            return true;
        }
        false
    }

    /// Chooses a statement for body atom `i`; `visit` is called on every
    /// complete configuration. Returns `false` to stop the whole search.
    fn atom_level(&mut self, i: usize, visit: &mut dyn FnMut(&Unifier) -> bool) -> bool {
        if i == self.body.len() {
            self.stats.configurations += 1;
            return visit(&self.u);
        }
        if self.over_budget() {
            return false;
        }
        let atom = &self.body[i];
        for si in 0..self.statements.len() {
            if self.indexed && self.statements[si].head.pred != atom.pred {
                continue;
            }
            let cp = self.u.checkpoint();
            let pool_mark = self.pool.top;
            // Each *use* of a statement gets its own (pooled) variables.
            let renamed = rename_with_pool(&self.statements[si], self.pool);
            self.stats.unify_calls += 1;
            if self.u.unify_atoms(&renamed.head, atom)
                && !self.cond_level(&renamed.condition, 0, i, visit)
            {
                self.u.rollback(cp);
                self.pool.top = pool_mark;
                return false;
            }
            self.u.rollback(cp);
            self.pool.top = pool_mark;
        }
        true
    }

    /// Chooses a body atom for condition atom `j` of the statement picked
    /// for body atom `next`, then continues with the next body atom.
    fn cond_level(
        &mut self,
        condition: &[Atom],
        j: usize,
        next: usize,
        visit: &mut dyn FnMut(&Unifier) -> bool,
    ) -> bool {
        if j == condition.len() {
            return self.atom_level(next + 1, visit);
        }
        if self.over_budget() {
            return false;
        }
        for b in self.body {
            if self.indexed && b.pred != condition[j].pred {
                continue;
            }
            let cp = self.u.checkpoint();
            self.stats.unify_calls += 1;
            if self.u.unify_atoms(&condition[j], b)
                && !self.cond_level(condition, j + 1, next, visit)
            {
                self.u.rollback(cp);
                return false;
            }
            self.u.rollback(cp);
        }
        true
    }
}

/// Enumerates the most general complete unifiers of `q` and `tcs` — the
/// paper's `mgu(Q, 2^C)` — calling `visit` with each (restricted to the
/// variables of `q`). `visit` returns `false` to stop; the search aborts
/// once it has made more than `max_unify_calls` unification calls.
/// Returns the stats and whether the search ran to exhaustion.
///
/// A unifier only ever binds a variable of `q` to a variable of `q` or a
/// constant (unification binds the statement side to the body side), so
/// the scratch variables `pool` lends never reach `visit`.
pub(crate) fn for_each_complete_unifier(
    q: &Query,
    tcs: &TcSet,
    pool: &mut VarPool,
    indexed: bool,
    max_unify_calls: u64,
    visit: &mut dyn FnMut(&Substitution) -> bool,
) -> (UnifierSearchStats, bool) {
    let q_vars = q.all_vars();
    let mut search = Search {
        body: &q.body,
        statements: tcs.statements(),
        pool,
        indexed,
        u: Unifier::new(),
        stats: UnifierSearchStats::default(),
        max_unify_calls,
        exhausted: false,
    };
    let mut adapter = |u: &Unifier| {
        let gamma = u.to_substitution().restrict(|v| q_vars.contains(&v));
        visit(&gamma)
    };
    search.atom_level(0, &mut adapter);
    let exhausted = search.exhausted;
    (search.stats, !exhausted)
}

/// Collects all most general complete unifiers of `q` and `tcs`
/// (duplicates possible: distinct configurations may yield equal
/// substitutions).
pub fn complete_unifiers(q: &Query, tcs: &TcSet, vocab: &mut Vocabulary) -> Vec<Substitution> {
    collect_unifiers(q, tcs, vocab, true)
}

/// Like [`complete_unifiers`] but without predicate indexing: every
/// statement is tried for every atom and every body atom for every
/// condition atom, with unification failure as the only pruning. Produces
/// the same set; exposed to quantify the cost of indexing (ablation A4).
pub fn complete_unifiers_naive(
    q: &Query,
    tcs: &TcSet,
    vocab: &mut Vocabulary,
) -> Vec<Substitution> {
    collect_unifiers(q, tcs, vocab, false)
}

/// The unifiers of one unbudgeted search. The scratch variables it drew
/// are named in `vocab`; the unifiers mention none of them.
fn collect_unifiers(
    q: &Query,
    tcs: &TcSet,
    vocab: &mut Vocabulary,
    indexed: bool,
) -> Vec<Substitution> {
    let mut names = ScratchNames::new(vocab, q, tcs);
    let mut pool = names.pool(Scratch::Statement);
    let mut out = Vec::new();
    for_each_complete_unifier(q, tcs, &mut pool, indexed, u64::MAX, &mut |g| {
        out.push(g.clone());
        true
    });
    names.grow(&pool);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_complete;
    use crate::testutil::{flight, q_pbl, school_tcs, table1};
    use magik_relalg::{Term, Vocabulary};

    #[test]
    fn example_22_unifier_is_found() {
        // γ = {L -> english} for Q_pbl and the school statements.
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let l = v.var("L");
        let english = v.cst("english");
        let unifiers = complete_unifiers(&q, &tcs, &mut v);
        assert!(!unifiers.is_empty());
        assert!(
            unifiers
                .iter()
                .any(|g| g.apply_term(Term::Var(l)) == Term::Cst(english)),
            "the L -> english unifier must be found"
        );
        // Every returned unifier yields a complete query (Proposition 21).
        for g in &unifiers {
            assert!(is_complete(&g.apply_query(&q), &tcs));
        }
    }

    #[test]
    fn flight_example_unifier_merges_the_cycle() {
        // For Q(X) <- conn(X, Y), the only complete unifier merges X and Y.
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        let unifiers = complete_unifiers(&q, &tcs, &mut v);
        assert!(!unifiers.is_empty());
        for g in &unifiers {
            let qi = g.apply_query(&q);
            assert_eq!(qi.body[0].args[0], qi.body[0].args[1], "X and Y merged");
            assert!(is_complete(&qi, &tcs));
        }
    }

    #[test]
    fn table1_query_has_no_complete_unifier() {
        // learns(N, L) must match C_enp, whose condition needs pupil and
        // school atoms that are not in the body.
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        assert!(complete_unifiers(&q, &tcs, &mut v).is_empty());
    }

    #[test]
    fn indexed_and_naive_enumeration_agree() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let indexed: Vec<_> = complete_unifiers(&q, &tcs, &mut v)
            .iter()
            .map(|g| g.apply_query(&q))
            .collect();
        let naive: Vec<_> = complete_unifiers_naive(&q, &tcs, &mut v)
            .iter()
            .map(|g| g.apply_query(&q))
            .collect();
        assert_eq!(indexed, naive);
    }

    #[test]
    fn naive_enumeration_performs_more_unify_calls() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let run = |v: &mut Vocabulary, indexed: bool| {
            let mut pool = ScratchNames::new(v, &q, &tcs).pool(Scratch::Statement);
            let (stats, complete) =
                for_each_complete_unifier(&q, &tcs, &mut pool, indexed, u64::MAX, &mut |_| true);
            assert!(complete);
            stats
        };
        let fast = run(&mut v, true);
        let slow = run(&mut v, false);
        assert!(slow.unify_calls > fast.unify_calls);
        assert_eq!(slow.configurations, fast.configurations);
    }

    #[test]
    fn budget_aborts_search() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let mut pool = ScratchNames::new(&mut v, &q, &tcs).pool(Scratch::Statement);
        let (_, complete) = for_each_complete_unifier(&q, &tcs, &mut pool, true, 1, &mut |_| true);
        assert!(!complete);
    }

    #[test]
    fn empty_body_has_the_identity_unifier() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = magik_relalg::Query::boolean(v.sym("t"), vec![]);
        let unifiers = complete_unifiers(&q, &tcs, &mut v);
        assert_eq!(unifiers.len(), 1);
        assert!(unifiers[0].is_identity());
    }

    #[test]
    fn unifier_respects_condition_embedding() {
        // Compl(r(X); s(X)) and q() <- r(A), s(B): the condition forces
        // A = B.
        let mut v = Vocabulary::new();
        let r = v.pred("r", 1);
        let s = v.pred("s", 1);
        let (x, a, b) = (v.var("X"), v.var("A"), v.var("B"));
        let tcs = TcSet::new(vec![
            crate::tcs::TcStatement::new(
                Atom::new(r, vec![Term::Var(x)]),
                vec![Atom::new(s, vec![Term::Var(x)])],
            ),
            crate::tcs::TcStatement::new(Atom::new(s, vec![Term::Var(x)]), vec![]),
        ]);
        let q = magik_relalg::Query::boolean(
            v.sym("q"),
            vec![
                Atom::new(r, vec![Term::Var(a)]),
                Atom::new(s, vec![Term::Var(b)]),
            ],
        );
        let unifiers = complete_unifiers(&q, &tcs, &mut v);
        assert!(!unifiers.is_empty());
        for g in &unifiers {
            assert_eq!(g.apply_term(Term::Var(a)), g.apply_term(Term::Var(b)));
        }
    }
}
