//! k-MCS computation (Algorithm 3): maximal complete specializations
//! within the space of queries with at most `|Q| + k` body atoms.
//!
//! Two engines are provided:
//!
//! * [`KMcsEngine::Naive`] follows Algorithm 3 literally, the way the
//!   authors' first Prolog implementation did: enumerate every *ordered
//!   tuple* of `n + k - 1` fresh atoms over the signature `Σ_C`, run the
//!   complete-unifier search (without predicate indexing) on each
//!   extension, collect all bounded candidates, and filter maximal ones at
//!   the very end. Its runtime reproduces the exponential growth of the
//!   paper's Table 1.
//! * [`KMcsEngine::Optimized`] implements the Section 5 optimizations:
//!   extensions are enumerated as canonical *multisets* of increasing size
//!   (`0, 1, …, n+k-1`); extensions mentioning a relation with no
//!   matching statement head are skipped; candidates subsumed by an
//!   already-collected specialization are pruned immediately, keeping the
//!   working set (and memory) small.
//!
//! Both engines return the same set of k-MCSs up to equivalence; the test
//! suite asserts the agreement.

use std::collections::HashSet;
use std::sync::Arc;

use magik_exec::Executor;
use magik_relalg::{is_contained_in, minimize, Atom, Pred, Query, Term, Vocabulary};

use crate::mci::{canonical_form, collect_bounded_instantiations, retain_maximal};
use crate::tcs::TcSet;
use crate::unifiers::{SearchBudget, VarPool};

/// Which Algorithm 3 implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMcsEngine {
    /// Literal Algorithm 3 (ordered extensions, unindexed search, post-hoc
    /// maximality filter).
    Naive,
    /// Section 5 optimizations (incremental multiset extensions, indexed
    /// search, subsumption pruning).
    Optimized,
}

/// Options for [`k_mcs`].
#[derive(Debug, Clone, Copy)]
pub struct KMcsOptions {
    /// The size slack: specializations may have up to `|Q| + k` body atoms.
    pub k: usize,
    /// The engine to use.
    pub engine: KMcsEngine,
    /// Abort the search after this many unification calls (the result is
    /// then marked incomplete). Guards long benchmark sweeps.
    pub max_unify_calls: u64,
}

impl KMcsOptions {
    /// Default options for the given `k`: optimized engine, no practical
    /// budget limit.
    pub fn new(k: usize) -> Self {
        KMcsOptions {
            k,
            engine: KMcsEngine::Optimized,
            max_unify_calls: u64::MAX,
        }
    }
}

/// Search statistics of a [`k_mcs`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KMcsStats {
    /// Extensions (fresh-atom tuples or multisets) processed.
    pub extensions: u64,
    /// Extensions skipped before searching (optimized engine only).
    pub extensions_skipped: u64,
    /// Total unification calls across all extensions.
    pub unify_calls: u64,
    /// Complete-unifier configurations visited.
    pub configurations: u64,
    /// Candidates collected (bounded, syntactically deduplicated).
    pub candidates: u64,
    /// Candidates dropped by incremental subsumption pruning (optimized
    /// engine only).
    pub pruned_by_subsumption: u64,
}

/// The result of a [`k_mcs`] computation.
#[derive(Debug, Clone)]
pub struct KMcsOutcome {
    /// The k-MCSs, one representative per equivalence class.
    pub queries: Vec<Query>,
    /// Search statistics.
    pub stats: KMcsStats,
    /// `false` iff the unification budget was exhausted, in which case
    /// `queries` may be missing results.
    pub complete_search: bool,
}

/// A fresh atom `R(V₁, …, Vₙ)` over pairwise distinct variables drawn
/// from `pool` (reused across extensions; distinctness is only needed
/// within one extension).
fn fresh_atom(pred: Pred, pool: &mut VarPool, vocab: &mut Vocabulary) -> Atom {
    let arity = vocab.arity(pred);
    let args = (0..arity).map(|_| Term::Var(pool.draw(vocab))).collect();
    Atom::new(pred, args)
}

/// Enumerates ordered tuples over `preds` of exactly `len` entries.
fn ordered_tuples(preds: &[Pred], len: usize) -> Vec<Vec<Pred>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        let mut next = Vec::with_capacity(out.len() * preds.len());
        for tuple in &out {
            for &p in preds {
                let mut t = tuple.clone();
                t.push(p);
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// Enumerates multisets over `preds` of exactly `len` entries, as
/// non-decreasing tuples.
fn multisets(preds: &[Pred], len: usize) -> Vec<Vec<Pred>> {
    fn rec(
        preds: &[Pred],
        start: usize,
        len: usize,
        acc: &mut Vec<Pred>,
        out: &mut Vec<Vec<Pred>>,
    ) {
        if len == 0 {
            out.push(acc.clone());
            return;
        }
        for i in start..preds.len() {
            acc.push(preds[i]);
            rec(preds, i, len - 1, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(preds, 0, len, &mut Vec::new(), &mut out);
    out
}

/// Computes the k-MCSs of `q` wrt `tcs` (Algorithm 3).
///
/// The size budget `|Q| + k` is taken from the query **as given**; the
/// search base is then minimized (Section 4 assumes a minimal query, and
/// minimization preserves the set of complete specializations up to
/// equivalence — the budget, however, must not shrink).
///
/// ```
/// use magik_relalg::{Vocabulary, DisplayWith};
/// use magik_parser::{parse_document, parse_query};
/// use magik_completeness::{k_mcs, KMcsOptions};
///
/// let mut v = Vocabulary::new();
/// let tcs = parse_document(
///     "compl school(S, primary, D) ; true.
///      compl pupil(N, C, S) ; school(S, T, merano).
///      compl learns(N, english) ; pupil(N, C, S), school(S, primary, D).",
///     &mut v,
/// ).unwrap().tcs;
/// let q = parse_query(
///     "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).",
///     &mut v,
/// ).unwrap();
///
/// let outcome = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(0));
/// assert_eq!(outcome.queries.len(), 1);
/// assert_eq!(outcome.queries[0].display(&v).to_string(),
///            "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, english)");
/// ```
pub fn k_mcs(q: &Query, tcs: &TcSet, vocab: &mut Vocabulary, options: KMcsOptions) -> KMcsOutcome {
    k_mcs_on(q, tcs, vocab, options, &Executor::Sequential)
}

/// Like [`k_mcs`], but fanning the per-extension unifier searches out over
/// `exec`. The searches for the extensions of one size are independent —
/// only the candidate *merge* (canonical dedup and subsumption pruning)
/// is order-sensitive, and it runs sequentially in enumeration order — so
/// the outcome (queries **and** stats) is identical to the sequential run.
///
/// Parallelism applies to the optimized engine with an unlimited
/// unification budget; a finite [`KMcsOptions::max_unify_calls`] threads a
/// running total through the extension order that parallel tasks cannot
/// observe, so budgeted runs (and the naive engine, which exists to
/// reproduce the paper's sequential baseline) fall back to sequential
/// search.
pub fn k_mcs_on(
    q: &Query,
    tcs: &TcSet,
    vocab: &mut Vocabulary,
    options: KMcsOptions,
    exec: &Executor,
) -> KMcsOutcome {
    // The k-MCS space is defined by the size of the query *as given*
    // (at most |Q| + k atoms); minimization below only shrinks the
    // search base, never the space. A k past `usize::MAX - |Q|` bounds
    // nothing that could be enumerated, so the sum saturates.
    let bound = q.size().saturating_add(options.k);
    let q = minimize(q);
    let max_extension = bound.saturating_sub(1);
    let sigma: Vec<Pred> = tcs.signature().into_iter().collect();
    let head_preds: HashSet<Pred> = tcs.statements().iter().map(|c| c.head.pred).collect();

    if options.engine == KMcsEngine::Optimized
        && exec.threads() > 1
        && options.max_unify_calls == u64::MAX
    {
        return k_mcs_parallel(
            &q,
            tcs,
            vocab,
            bound,
            max_extension,
            &sigma,
            &head_preds,
            exec,
        );
    }

    let mut stats = KMcsStats::default();
    let mut complete_search = true;
    let mut budget_left = options.max_unify_calls;
    // Variable pools reused across all extensions (see `VarPool`).
    let mut ext_pool = VarPool::new("F");
    let mut stmt_pool = VarPool::new("T");

    match options.engine {
        KMcsEngine::Naive => {
            // Line 2 of Algorithm 3, literally: all extensions of size
            // exactly n + k - 1 (ordered, as a naive generate-and-test
            // enumeration produces them).
            let mut all_candidates = Vec::new();
            let mut seen = HashSet::new();
            for tuple in ordered_tuples(&sigma, max_extension) {
                if !complete_search {
                    break;
                }
                stats.extensions += 1;
                ext_pool.release(0);
                let extension: Vec<Atom> = tuple
                    .iter()
                    .map(|&p| fresh_atom(p, &mut ext_pool, vocab))
                    .collect();
                let q2 = q.with_atoms(extension);
                let (cands, search_stats, exhausted) = collect_bounded_instantiations(
                    &q2,
                    tcs,
                    vocab,
                    &mut stmt_pool,
                    bound,
                    false,
                    SearchBudget {
                        max_unify_calls: budget_left,
                    },
                );
                stats.unify_calls += search_stats.unify_calls;
                stats.configurations += search_stats.configurations;
                budget_left = budget_left.saturating_sub(search_stats.unify_calls);
                if !exhausted {
                    complete_search = false;
                }
                for c in cands {
                    let canon = canonical_form(&c, vocab);
                    if seen.insert(canon) {
                        stats.candidates += 1;
                        all_candidates.push(c);
                    }
                }
            }
            // Lines 5–7: one global maximality pass at the very end.
            KMcsOutcome {
                queries: retain_maximal(all_candidates),
                stats,
                complete_search,
            }
        }
        KMcsEngine::Optimized => {
            let mut kept: Vec<Query> = Vec::new();
            let mut seen = HashSet::new();
            'sizes: for size in 0..=max_extension {
                for multiset in multisets(&sigma, size) {
                    if !complete_search {
                        break 'sizes;
                    }
                    // An extension atom whose relation heads no statement
                    // can never be matched; skip the whole extension.
                    if multiset.iter().any(|p| !head_preds.contains(p)) {
                        stats.extensions_skipped += 1;
                        continue;
                    }
                    stats.extensions += 1;
                    ext_pool.release(0);
                    let extension: Vec<Atom> = multiset
                        .iter()
                        .map(|&p| fresh_atom(p, &mut ext_pool, vocab))
                        .collect();
                    let q2 = q.with_atoms(extension);
                    let (cands, search_stats, exhausted) = collect_bounded_instantiations(
                        &q2,
                        tcs,
                        vocab,
                        &mut stmt_pool,
                        bound,
                        true,
                        SearchBudget {
                            max_unify_calls: budget_left,
                        },
                    );
                    stats.unify_calls += search_stats.unify_calls;
                    stats.configurations += search_stats.configurations;
                    budget_left = budget_left.saturating_sub(search_stats.unify_calls);
                    if !exhausted {
                        complete_search = false;
                    }
                    for c in cands {
                        let canon = canonical_form(&c, vocab);
                        if !seen.insert(canon) {
                            continue;
                        }
                        stats.candidates += 1;
                        // Incremental subsumption pruning (Section 5).
                        if kept.iter().any(|f| is_contained_in(&c, f)) {
                            stats.pruned_by_subsumption += 1;
                            continue;
                        }
                        kept.retain(|f| !is_contained_in(f, &c));
                        kept.push(c);
                    }
                }
            }
            KMcsOutcome {
                queries: kept,
                stats,
                complete_search,
            }
        }
    }
}

/// The parallel optimized engine: for each extension size, mint all
/// searchable extensions up front (vocabulary mutation stays on the
/// calling thread), fan the bounded-instantiation searches out over
/// `exec`, then merge the per-extension candidate lists sequentially in
/// enumeration order so canonical dedup and subsumption pruning see
/// exactly the sequence the sequential engine sees.
///
/// Tasks must not touch the shared vocabulary, yet the candidates they
/// return may mention statement-pool variables. The statement pool is
/// therefore pre-filled (against the shared vocabulary) to the deepest
/// stock one search path can draw — every body atom renames at most one
/// statement — and each task clones that pool plus a vocabulary snapshot;
/// the snapshot only absorbs throwaway `$n` canonicalization interning.
#[allow(clippy::too_many_arguments)]
fn k_mcs_parallel(
    q: &Query,
    tcs: &TcSet,
    vocab: &mut Vocabulary,
    bound: usize,
    max_extension: usize,
    sigma: &[Pred],
    head_preds: &HashSet<Pred>,
    exec: &Executor,
) -> KMcsOutcome {
    let mut stats = KMcsStats::default();
    let mut ext_pool = VarPool::new("F");
    let mut stmt_pool = VarPool::new("T");
    let max_stmt_vars = tcs
        .statements()
        .iter()
        .map(|c| c.all_vars().len())
        .max()
        .unwrap_or(0);
    // Deepest possible path: every atom of the largest extended query
    // renames the largest statement.
    for _ in 0..(q.size() + max_extension) * max_stmt_vars {
        stmt_pool.draw(vocab);
    }
    stmt_pool.release(0);
    let shared_tcs = Arc::new(tcs.clone());
    let pool_template = Arc::new(stmt_pool);

    let mut kept: Vec<Query> = Vec::new();
    let mut seen = HashSet::new();
    for size in 0..=max_extension {
        let mut batch: Vec<Query> = Vec::new();
        for multiset in multisets(sigma, size) {
            if multiset.iter().any(|p| !head_preds.contains(p)) {
                stats.extensions_skipped += 1;
                continue;
            }
            ext_pool.release(0);
            let extension: Vec<Atom> = multiset
                .iter()
                .map(|&p| fresh_atom(p, &mut ext_pool, vocab))
                .collect();
            batch.push(q.with_atoms(extension));
        }
        // Snapshot the vocabulary *after* minting this size's extension
        // atoms, so every variable of every `q2` resolves in the clone.
        let vocab_template = Arc::new(vocab.clone());
        let task_tcs = Arc::clone(&shared_tcs);
        let task_pool = Arc::clone(&pool_template);
        let searched = exec.map(batch, move |q2| {
            let mut v = (*vocab_template).clone();
            let mut pool = (*task_pool).clone();
            collect_bounded_instantiations(
                &q2,
                &task_tcs,
                &mut v,
                &mut pool,
                bound,
                true,
                SearchBudget::default(),
            )
        });
        for (cands, search_stats, _exhausted) in searched {
            stats.extensions += 1;
            stats.unify_calls += search_stats.unify_calls;
            stats.configurations += search_stats.configurations;
            for c in cands {
                let canon = canonical_form(&c, vocab);
                if !seen.insert(canon) {
                    continue;
                }
                stats.candidates += 1;
                if kept.iter().any(|f| is_contained_in(&c, f)) {
                    stats.pruned_by_subsumption += 1;
                    continue;
                }
                kept.retain(|f| !is_contained_in(f, &c));
                kept.push(c);
            }
        }
    }
    KMcsOutcome {
        queries: kept,
        stats,
        complete_search: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_complete;
    use crate::testutil::{flight, q_pbl, school_tcs, table1};
    use magik_relalg::are_equivalent;

    #[test]
    fn zero_mcs_of_q_pbl_is_the_english_specialization() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        for engine in [KMcsEngine::Naive, KMcsEngine::Optimized] {
            let outcome = k_mcs(
                &q,
                &tcs,
                &mut v,
                KMcsOptions {
                    engine,
                    ..KMcsOptions::new(0)
                },
            );
            assert!(outcome.complete_search);
            assert_eq!(outcome.queries.len(), 1, "engine {engine:?}");
            let mcs = &outcome.queries[0];
            assert!(is_complete(mcs, &tcs));
            assert!(is_contained_in(mcs, &q));
        }
    }

    /// A directed cycle query of length `len` over `conn`.
    fn cycle_query(v: &mut Vocabulary, len: usize) -> Query {
        let conn = v.pred("conn", 2);
        let vars: Vec<_> = (0..len).map(|i| v.var(&format!("CY{i}"))).collect();
        let body = (0..len)
            .map(|i| {
                Atom::new(
                    conn,
                    vec![Term::Var(vars[i]), Term::Var(vars[(i + 1) % len])],
                )
            })
            .collect();
        Query::new(v.sym("q"), vec![Term::Var(vars[0])], body)
    }

    #[test]
    fn flight_k_mcs_produces_growing_cycles() {
        // Theorem 17: the 0-MCS is the self-loop conn(X, X); larger k
        // admit longer round trips, each strictly more general. (For k ≥ 1
        // "lasso"-shaped specializations — a chain into a shorter cycle —
        // are further incomparable k-MCSs, so we check membership and
        // structural invariants rather than exact counts.)
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        let k0 = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(0));
        assert_eq!(k0.queries.len(), 1);
        assert_eq!(k0.queries[0].size(), 1);
        assert!(are_equivalent(&k0.queries[0], &cycle_query(&mut v, 1)));

        // k = 1: the 2-cycle is a 1-MCS and strictly subsumes the loop.
        let k1 = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(1));
        let two_cycle = cycle_query(&mut v, 2);
        assert!(
            k1.queries.iter().any(|m| are_equivalent(m, &two_cycle)),
            "the 2-cycle must be a 1-MCS"
        );
        assert!(is_contained_in(&k0.queries[0], &two_cycle));
        assert!(!is_contained_in(&two_cycle, &k0.queries[0]));

        // k = 3: the 4-cycle appears; the 2-cycle is subsumed by it and
        // must be gone; the self-loop is long gone.
        let k3 = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(3));
        let four_cycle = cycle_query(&mut v, 4);
        assert!(k3.queries.iter().any(|m| are_equivalent(m, &four_cycle)));
        for small in [1usize, 2] {
            let c = cycle_query(&mut v, small);
            assert!(
                !k3.queries.iter().any(|m| are_equivalent(m, &c)),
                "the {small}-cycle is subsumed and must not be a 3-MCS"
            );
        }
        for mcs in &k3.queries {
            assert!(is_complete(mcs, &tcs));
            assert!(is_contained_in(mcs, &q));
            assert!(mcs.size() <= q.size() + 3);
        }
        // All results are pairwise incomparable (true maximality).
        for (i, a) in k3.queries.iter().enumerate() {
            for (j, b) in k3.queries.iter().enumerate() {
                if i != j {
                    assert!(!is_contained_in(a, b), "results must be incomparable");
                }
            }
        }
    }

    #[test]
    fn naive_and_optimized_agree_on_flight() {
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        for k in 0..=2 {
            let naive = k_mcs(
                &q,
                &tcs,
                &mut v,
                KMcsOptions {
                    engine: KMcsEngine::Naive,
                    ..KMcsOptions::new(k)
                },
            );
            let optimized = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(k));
            assert_eq!(naive.queries.len(), optimized.queries.len(), "k = {k}");
            for nq in &naive.queries {
                assert!(
                    optimized.queries.iter().any(|oq| are_equivalent(nq, oq)),
                    "k = {k}: naive result missing from optimized"
                );
            }
        }
    }

    #[test]
    fn table1_workload_has_no_k_mcs() {
        // The class relation heads no statement, so no specialization of
        // Q_l can be complete — for any k.
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        for k in 0..=3 {
            let outcome = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(k));
            assert!(outcome.complete_search);
            assert!(outcome.queries.is_empty(), "k = {k}");
        }
    }

    #[test]
    fn optimized_engine_skips_and_prunes() {
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        let outcome = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(2));
        // Extensions involving `class` are skipped up front.
        assert!(outcome.stats.extensions_skipped > 0);
        let naive = k_mcs(
            &q,
            &tcs,
            &mut v,
            KMcsOptions {
                engine: KMcsEngine::Naive,
                ..KMcsOptions::new(2)
            },
        );
        assert!(naive.stats.unify_calls > outcome.stats.unify_calls);
    }

    #[test]
    fn budget_marks_search_incomplete() {
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        let outcome = k_mcs(
            &q,
            &tcs,
            &mut v,
            KMcsOptions {
                engine: KMcsEngine::Naive,
                max_unify_calls: 3,
                ..KMcsOptions::new(3)
            },
        );
        assert!(!outcome.complete_search);
    }

    #[test]
    fn every_k_mcs_is_a_complete_specialization() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let outcome = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(1));
        assert!(!outcome.queries.is_empty());
        for mcs in &outcome.queries {
            assert!(is_complete(mcs, &tcs));
            assert!(is_contained_in(mcs, &q));
            assert!(mcs.size() <= q.size() + 1);
        }
    }

    #[test]
    fn parallel_k_mcs_matches_sequential_exactly() {
        // Same queries, same order, same stats — the parallel fan-out
        // merges in enumeration order, so nothing distinguishes it.
        let exec = Executor::with_threads(4);
        for k in 0..=2 {
            let mut v1 = Vocabulary::new();
            let (tcs1, q1) = flight(&mut v1);
            let seq = k_mcs(&q1, &tcs1, &mut v1, KMcsOptions::new(k));
            let mut v2 = Vocabulary::new();
            let (tcs2, q2) = flight(&mut v2);
            let par = k_mcs_on(&q2, &tcs2, &mut v2, KMcsOptions::new(k), &exec);
            assert!(par.complete_search);
            assert_eq!(seq.stats, par.stats, "k = {k}");
            assert_eq!(seq.queries.len(), par.queries.len(), "k = {k}");
            for (s, p) in seq.queries.iter().zip(&par.queries) {
                assert!(are_equivalent(s, p), "k = {k}");
            }
        }
    }

    #[test]
    fn parallel_k_mcs_matches_sequential_on_school() {
        let exec = Executor::with_threads(4);
        let mut v1 = Vocabulary::new();
        let tcs1 = school_tcs(&mut v1);
        let q1 = q_pbl(&mut v1);
        let seq = k_mcs(&q1, &tcs1, &mut v1, KMcsOptions::new(1));
        let mut v2 = Vocabulary::new();
        let tcs2 = school_tcs(&mut v2);
        let q2 = q_pbl(&mut v2);
        let par = k_mcs_on(&q2, &tcs2, &mut v2, KMcsOptions::new(1), &exec);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.queries.len(), par.queries.len());
        for (s, p) in seq.queries.iter().zip(&par.queries) {
            assert!(are_equivalent(s, p));
        }
    }

    #[test]
    fn budgeted_parallel_run_falls_back_to_sequential() {
        // A finite budget is order-sensitive; the parallel entry point
        // must produce the budgeted sequential result, not ignore it.
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        let exec = Executor::with_threads(4);
        let outcome = k_mcs_on(
            &q,
            &tcs,
            &mut v,
            KMcsOptions {
                max_unify_calls: 3,
                ..KMcsOptions::new(3)
            },
            &exec,
        );
        assert!(!outcome.complete_search);
    }

    #[test]
    fn k_mcs_results_grow_monotonically_with_k() {
        // Every k-MCS is subsumed by some (k+1)-MCS (the space only grows).
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        let k1 = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(1));
        let k2 = k_mcs(&q, &tcs, &mut v, KMcsOptions::new(2));
        for small in &k1.queries {
            assert!(
                k2.queries.iter().any(|big| is_contained_in(small, big)),
                "a 1-MCS must be below some 2-MCS"
            );
        }
    }
}
