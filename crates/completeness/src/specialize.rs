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
//!
//! Both run on one fan-out over any [`Executor`]: each extension's search
//! is a task of [`Executor::map`], and the results merge on the calling
//! thread in enumeration order. The searches read no vocabulary; the
//! merge names the scratch variables they draw `F#n`/`T#n`, once each, in
//! the order a one-extension-at-a-time run mints them. The outcome,
//! including names, statistics and where a unification budget stops the
//! search, is the same on every executor.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use magik_exec::Executor;
use magik_relalg::{is_contained_in, minimize, Atom, Pred, Query, Term, Vocabulary};

use crate::mci::{canonical_form, collect_bounded_instantiations, retain_maximal, CandidateKey};
use crate::tcs::TcSet;
use crate::unifiers::{Scratch, ScratchNames, UnifierSearchStats, VarPool};

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

/// The extensions of `len` atoms over the sorted `preds`, in
/// lexicographic order: every ordered tuple when `ordered`, otherwise
/// only the non-decreasing ones, one per multiset. Over no predicates
/// there is none past length 0, so the loop stops at the first empty
/// level rather than walk all `len` of them.
fn extensions(preds: &[Pred], len: usize, ordered: bool) -> Vec<Vec<Pred>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        if out.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(out.len() * preds.len());
        for tuple in &out {
            let from = match tuple.last() {
                Some(last) if !ordered => preds.partition_point(|p| p < last),
                _ => 0,
            };
            for &p in &preds[from..] {
                let mut t = tuple.clone();
                t.push(p);
                next.push(t);
            }
        }
        out = next;
    }
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
/// `exec`. The outcome does not depend on `exec`: the searches are
/// independent, and everything order-sensitive — canonical dedup,
/// subsumption pruning, the budget's running total and the naming of
/// scratch variables — happens in the merge, in enumeration order (see
/// the module docs). The scratch variables are named in `vocab`, the same
/// names on every executor.
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
    let mut names = ScratchNames::new(vocab, &q, tcs);
    let naive = options.engine == KMcsEngine::Naive;
    let max_extension = bound.saturating_sub(1);
    let arity: BTreeMap<Pred, usize> = tcs
        .statements()
        .iter()
        .flat_map(|c| std::iter::once(&c.head).chain(&c.condition))
        .map(|a| (a.pred, a.args.len()))
        .collect();
    let sigma: Vec<Pred> = arity.keys().copied().collect();
    let head_preds: HashSet<Pred> = tcs.statements().iter().map(|c| c.head.pred).collect();
    // An extension atom whose relation heads no statement can never be
    // matched; the optimized engine skips the whole extension.
    let searched = |tuple: &[Pred]| naive || tuple.iter().all(|p| head_preds.contains(p));
    let task = Arc::new(ExtensionSearch {
        q,
        tcs: tcs.clone(),
        arity,
        pools: [
            names.pool(Scratch::Extension),
            names.pool(Scratch::Statement),
        ],
        bound,
        indexed: !naive,
    });
    // A budgeted wave holds one extension per thread, so a pooled run
    // searches at most one wave past the budget and a sequential run
    // searches exactly what a one-at-a-time loop does. Unbudgeted waves
    // are longer, to keep the pool busy.
    let wave_len = match options.max_unify_calls {
        u64::MAX => 64 * exec.threads(),
        _ => exec.threads(),
    };
    let mut merge = Merge {
        stats: KMcsStats::default(),
        complete_search: true,
        budget_left: options.max_unify_calls,
        seen: HashSet::new(),
        kept: Vec::new(),
        naive,
    };
    // Line 2 of Algorithm 3: the naive engine takes all ordered
    // extensions of size exactly n + k - 1, as a naive generate-and-test
    // enumeration produces them; the optimized engine, multisets of
    // increasing size.
    let smallest = if naive { max_extension } else { 0 };
    'sizes: for size in smallest..=max_extension {
        let tuples = extensions(&sigma, size, naive);
        if tuples.is_empty() {
            // Only an empty Σ_C has an empty size, and every size past
            // it is empty too: stop rather than walk up to |Q| + k.
            break;
        }
        for wave in tuples.chunks(wave_len) {
            let budget = merge.budget_left;
            let batch: Vec<Vec<Pred>> = wave.iter().filter(|t| searched(t)).cloned().collect();
            let shared = Arc::clone(&task);
            let results = exec.map(batch, move |tuple| shared.run(&tuple, budget));
            let mut results = results.into_iter();
            for tuple in wave {
                if !merge.complete_search {
                    break 'sizes;
                }
                if !searched(tuple) {
                    merge.stats.extensions_skipped += 1;
                    continue;
                }
                let mut found = results.next().expect("one search per searched extension");
                // The wave searched under the budget left at its start. A
                // search that stayed within what is left now ran exactly as
                // it would have under that; any other reruns under it.
                let left = merge.budget_left;
                if budget != left && !(found.complete && found.stats.unify_calls <= left) {
                    found = task.run(tuple, left);
                }
                names.grow(&found.pools[0]);
                names.grow(&found.pools[1]);
                merge.absorb(found);
            }
        }
    }
    let queries = if naive {
        // Lines 5–7: one global maximality pass at the very end.
        retain_maximal(merge.kept)
    } else {
        merge.kept
    };
    let renaming = names.renaming();
    KMcsOutcome {
        queries: queries
            .iter()
            .map(|mcs| renaming.apply_query(mcs))
            .collect(),
        stats: merge.stats,
        complete_search: merge.complete_search,
    }
}

/// Everything one extension's search reads, shared by the tasks of a run.
struct ExtensionSearch {
    q: Query,
    tcs: TcSet,
    /// The arity of every predicate of `Σ_C`.
    arity: BTreeMap<Pred, usize>,
    /// Empty extension and statement pools.
    pools: [VarPool; 2],
    bound: usize,
    indexed: bool,
}

/// One extension's search: the bounded candidates and what producing
/// them took.
struct Searched {
    cands: Vec<Query>,
    stats: UnifierSearchStats,
    complete: bool,
    /// The extension and statement pools, as the search left them.
    pools: [VarPool; 2],
}

impl ExtensionSearch {
    /// Mints the extension `Q ∧ R₁(V̄₁) ∧ … ∧ Rₘ(V̄ₘ)` of `tuple` — each
    /// fresh atom over pairwise distinct extension-pool variables — and
    /// runs the bounded-instantiation search on it.
    fn run(&self, tuple: &[Pred], max_unify_calls: u64) -> Searched {
        let [mut ext, mut stmt] = self.pools;
        let atoms = tuple.iter().map(|p| {
            let args = (0..self.arity[p]).map(|_| Term::Var(ext.draw())).collect();
            Atom::new(*p, args)
        });
        let (cands, stats, complete) = collect_bounded_instantiations(
            &self.q.with_atoms(atoms),
            &self.tcs,
            &mut stmt,
            self.bound,
            self.indexed,
            max_unify_calls,
        );
        Searched {
            cands,
            stats,
            complete,
            pools: [ext, stmt],
        }
    }
}

/// The in-order merge of a run's searches.
struct Merge {
    stats: KMcsStats,
    complete_search: bool,
    budget_left: u64,
    seen: HashSet<CandidateKey>,
    /// Optimized engine: the maximal specializations so far. Naive
    /// engine: every distinct candidate, for the final maximality filter.
    kept: Vec<Query>,
    naive: bool,
}

impl Merge {
    /// Merges the next extension's search, in enumeration order.
    fn absorb(&mut self, found: Searched) {
        self.stats.extensions += 1;
        self.stats.unify_calls += found.stats.unify_calls;
        self.stats.configurations += found.stats.configurations;
        self.budget_left = self.budget_left.saturating_sub(found.stats.unify_calls);
        self.complete_search &= found.complete;
        for c in found.cands {
            if !self.seen.insert(canonical_form(&c)) {
                continue;
            }
            self.stats.candidates += 1;
            if self.naive {
                self.kept.push(c);
                continue;
            }
            // Incremental subsumption pruning (Section 5).
            if self.kept.iter().any(|f| is_contained_in(&c, f)) {
                self.stats.pruned_by_subsumption += 1;
                continue;
            }
            self.kept.retain(|f| !is_contained_in(f, &c));
            self.kept.push(c);
        }
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

    #[test]
    fn k_mcs_over_no_statements_stops_after_size_0() {
        // With no statements Σ_C is empty, so no extension has an atom:
        // the optimized engine searches the query alone and the naive one
        // nothing, whatever k is. Walking every size up to |Q| + k never
        // returned at this k, hence the deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let search = std::thread::spawn(move || {
            let mut v = Vocabulary::new();
            let q = q_pbl(&mut v);
            let k = usize::MAX - q.size();
            for engine in [KMcsEngine::Naive, KMcsEngine::Optimized] {
                let options = KMcsOptions {
                    engine,
                    ..KMcsOptions::new(k)
                };
                let outcome = k_mcs(&q, &TcSet::default(), &mut v, options);
                let _ = tx.send((engine, outcome));
            }
        });
        for (engine, extensions) in [(KMcsEngine::Naive, 0), (KMcsEngine::Optimized, 1)] {
            let (ran, outcome) = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{engine:?} k-MCS did not return within 10 s"));
            assert_eq!(ran, engine);
            assert!(outcome.queries.is_empty(), "{engine:?}");
            assert!(outcome.complete_search, "{engine:?}");
            assert_eq!(outcome.stats.extensions, extensions, "{engine:?}");
        }
        search.join().expect("the search thread finished");
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
            assert_eq!(seq.queries, par.queries, "k = {k}");
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
        assert_eq!(seq.queries, par.queries);
    }

    #[test]
    fn parallel_budgeted_k_mcs_matches_sequential() {
        // A finite budget is order-sensitive; a pooled run must stop
        // exactly where the sequential run stops.
        let exec = Executor::with_threads(4);
        for engine in [KMcsEngine::Naive, KMcsEngine::Optimized] {
            for max_unify_calls in [1, 3, 50, 500] {
                let options = KMcsOptions {
                    engine,
                    max_unify_calls,
                    ..KMcsOptions::new(3)
                };
                let mut v1 = Vocabulary::new();
                let (tcs1, q1) = table1(&mut v1);
                let seq = k_mcs(&q1, &tcs1, &mut v1, options);
                let mut v2 = Vocabulary::new();
                let (tcs2, q2) = table1(&mut v2);
                let par = k_mcs_on(&q2, &tcs2, &mut v2, options, &exec);
                let at = format!("{engine:?}, budget {max_unify_calls}");
                assert_eq!(seq.complete_search, par.complete_search, "{at}");
                assert_eq!(seq.stats, par.stats, "{at}");
                assert_eq!(seq.queries, par.queries, "{at}");
            }
        }
    }

    #[test]
    fn parallel_k_mcs_names_the_variables_a_sequential_run_names() {
        // The caller's vocabulary gains the same scratch variables on
        // every executor: same count, same names, same order, and no
        // names beyond them.
        let image = |v: &Vocabulary| {
            let mut out = Vec::new();
            magik_relalg::codec::encode_vocabulary(v, &mut out);
            out
        };
        let exec = Executor::with_threads(4);
        for k in 0..=2 {
            let mut v1 = Vocabulary::new();
            let tcs1 = school_tcs(&mut v1);
            let q1 = q_pbl(&mut v1);
            k_mcs(&q1, &tcs1, &mut v1, KMcsOptions::new(k));
            let mut v2 = Vocabulary::new();
            let tcs2 = school_tcs(&mut v2);
            let q2 = q_pbl(&mut v2);
            k_mcs_on(&q2, &tcs2, &mut v2, KMcsOptions::new(k), &exec);
            assert_eq!(v1.num_vars(), v2.num_vars(), "k = {k}");
            assert_eq!(image(&v1), image(&v2), "k = {k}");
            assert!(v2.lookup("$0").is_none(), "k = {k}");
        }
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
