//! Table-completeness statements and TCS sets.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use magik_relalg::{Atom, DisplayWith, Pred, Query, Symbol, Var, Vocabulary};

/// A table-completeness statement `Compl(R(s̄); G)`.
///
/// It asserts that the available database contains every ideal `R`-tuple
/// that matches `s̄` and joins with the condition `G` (evaluated over the
/// ideal database). An empty condition is the paper's `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcStatement {
    /// The constrained atom `R(s̄)`.
    pub head: Atom,
    /// The condition `G`: a (possibly empty) conjunction of atoms.
    pub condition: Vec<Atom>,
}

impl TcStatement {
    /// Creates a statement.
    pub fn new(head: Atom, condition: Vec<Atom>) -> Self {
        TcStatement { head, condition }
    }

    /// The associated query `Q_C(s̄) ← R(s̄), G` that defines the
    /// statement's semantics.
    pub fn associated_query(&self) -> Query {
        let mut body = Vec::with_capacity(1 + self.condition.len());
        body.push(self.head.clone());
        body.extend(self.condition.iter().cloned());
        Query::new(Symbol::placeholder(), self.head.args.clone(), body)
    }

    /// All variables of the statement.
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut vars: BTreeSet<Var> = self.head.vars().collect();
        vars.extend(self.condition.iter().flat_map(Atom::vars));
        vars
    }

    /// Total number of atoms (head plus condition) — the statement size
    /// used by the Theorem 18 bound.
    pub fn size(&self) -> usize {
        1 + self.condition.len()
    }
}

impl DisplayWith for TcStatement {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compl {} ; ", self.head.display(vocab))?;
        if self.condition.is_empty() {
            f.write_str("true")?;
        }
        for (i, a) in self.condition.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", a.display(vocab))?;
        }
        Ok(())
    }
}

/// A set of table-completeness statements with its dependency structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcSet {
    statements: Vec<TcStatement>,
}

impl TcSet {
    /// Creates a set from statements.
    pub fn new(statements: Vec<TcStatement>) -> Self {
        TcSet { statements }
    }

    /// The statements.
    pub fn statements(&self) -> &[TcStatement] {
        &self.statements
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Adds a statement.
    pub fn push(&mut self, c: TcStatement) {
        self.statements.push(c);
    }

    /// The statements whose head is over `pred`.
    pub fn for_pred(&self, pred: Pred) -> impl Iterator<Item = &TcStatement> {
        self.statements.iter().filter(move |c| c.head.pred == pred)
    }

    /// All relation names (predicates) appearing anywhere in the set —
    /// the paper's `Σ_C`, the alphabet of fresh extension atoms in
    /// Algorithm 3.
    pub fn signature(&self) -> BTreeSet<Pred> {
        let mut preds = BTreeSet::new();
        for c in &self.statements {
            preds.insert(c.head.pred);
            preds.extend(c.condition.iter().map(|a| a.pred));
        }
        preds
    }

    /// The dependency graph of the set: an edge `R → R'` iff `R'` appears
    /// in the condition of a statement whose head is over `R`.
    pub fn dependency_graph(&self) -> BTreeMap<Pred, BTreeSet<Pred>> {
        let mut graph: BTreeMap<Pred, BTreeSet<Pred>> = BTreeMap::new();
        for c in &self.statements {
            let entry = graph.entry(c.head.pred).or_default();
            entry.extend(c.condition.iter().map(|a| a.pred));
        }
        graph
    }

    /// `true` iff the dependency graph is acyclic. For acyclic sets the
    /// size of every MCS is bounded (Theorem 18), so `k`-MCSs coincide
    /// with MCSs for large enough `k`.
    pub fn is_acyclic(&self) -> bool {
        let graph = self.dependency_graph();
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            InProgress,
            Done,
        }
        fn visit(
            p: Pred,
            graph: &BTreeMap<Pred, BTreeSet<Pred>>,
            marks: &mut BTreeMap<Pred, Mark>,
        ) -> bool {
            match marks.get(&p) {
                Some(Mark::InProgress) => return false,
                Some(Mark::Done) => return true,
                None => {}
            }
            marks.insert(p, Mark::InProgress);
            if let Some(succs) = graph.get(&p) {
                for &s in succs {
                    if !visit(s, graph, marks) {
                        return false;
                    }
                }
            }
            marks.insert(p, Mark::Done);
            true
        }
        let mut marks = BTreeMap::new();
        graph.keys().all(|&p| visit(p, &graph, &mut marks))
    }

    /// `true` iff the set is **weakly acyclic** in the sense of data
    /// exchange (Fagin, Kolaitis, Miller, Popa — the paper's footnote 3
    /// notes this relaxation of acyclicity still bounds MCS size).
    ///
    /// Each statement `Compl(A; G)` is read as the dependency `A → G`:
    /// for every variable `x` of `A` at position `p` we add a *regular*
    /// edge `p → q` for every occurrence of `x` in `G` at position `q`,
    /// and a *special* edge `p → q'` for every position `q'` of `G`
    /// holding a variable that does not occur in `A` (a "fresh" variable
    /// the specialization search must invent). The set is weakly acyclic
    /// iff the position graph has no cycle through a special edge.
    pub fn is_weakly_acyclic(&self) -> bool {
        use std::collections::BTreeMap as Map;
        type Position = (Pred, usize);
        // edges[p] = set of (target, is_special).
        let mut edges: Map<Position, BTreeSet<(Position, bool)>> = Map::new();
        for c in &self.statements {
            let head_vars: BTreeSet<Var> = c.head.vars().collect();
            let mut head_positions: Map<Var, Vec<Position>> = Map::new();
            for (i, &t) in c.head.args.iter().enumerate() {
                if let Some(v) = t.as_var() {
                    head_positions.entry(v).or_default().push((c.head.pred, i));
                }
            }
            for g in &c.condition {
                for (j, &t) in g.args.iter().enumerate() {
                    let Some(v) = t.as_var() else { continue };
                    let target = (g.pred, j);
                    if head_vars.contains(&v) {
                        // Regular edge from every head position of v.
                        for &p in &head_positions[&v] {
                            edges.entry(p).or_default().insert((target, false));
                        }
                    } else {
                        // Special edge from every head position of every
                        // head variable (the fresh variable is invented
                        // whenever the statement fires).
                        for positions in head_positions.values() {
                            for &p in positions {
                                edges.entry(p).or_default().insert((target, true));
                            }
                        }
                    }
                }
            }
        }
        // Weak acyclicity: no strongly connected component of the position
        // graph contains a special edge. Check via DFS for each special
        // edge (u, v): reject if v reaches u.
        fn reaches(
            from: Position,
            to: Position,
            edges: &Map<Position, BTreeSet<(Position, bool)>>,
            seen: &mut BTreeSet<Position>,
        ) -> bool {
            if from == to {
                return true;
            }
            if !seen.insert(from) {
                return false;
            }
            edges
                .get(&from)
                .is_some_and(|succ| succ.iter().any(|&(next, _)| reaches(next, to, edges, seen)))
        }
        for (&u, succ) in &edges {
            for &(v, special) in succ {
                if special && reaches(v, u, &edges, &mut BTreeSet::new()) {
                    return false;
                }
            }
        }
        true
    }

    /// The Theorem 18 bound on the number of atoms in any MCS of `q`:
    /// `|Q| · (M + M² + … + M^s)` where `M` is the maximum statement size
    /// and `s` the number of relation names in the set. Returns `None` if
    /// the set is cyclic (no bound exists in general — Theorem 17).
    ///
    /// Saturates at `usize::MAX` instead of overflowing.
    pub fn mcs_size_bound(&self, q: &Query) -> Option<usize> {
        if !self.is_acyclic() {
            return None;
        }
        let s = self.signature().len();
        let m = self
            .statements
            .iter()
            .map(TcStatement::size)
            .max()
            .unwrap_or(0);
        let mut total: usize = 0;
        let mut power: usize = 1;
        for _ in 0..s {
            power = power.saturating_mul(m);
            total = total.saturating_add(power);
        }
        Some(q.size().saturating_mul(total).max(q.size()))
    }
}

impl FromIterator<TcStatement> for TcSet {
    fn from_iter<I: IntoIterator<Item = TcStatement>>(iter: I) -> Self {
        TcSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::Term;

    /// Builds the paper's running-example statements
    /// {C_sp, C_pb, C_enp} (Example 1).
    pub(crate) fn school_tcs(v: &mut Vocabulary) -> TcSet {
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let learns = v.pred("learns", 2);
        let (n, c, s, t, d) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"), v.var("D"));
        let (primary, merano, english) = (v.cst("primary"), v.cst("merano"), v.cst("english"));
        TcSet::new(vec![
            // C_sp: Compl(school(S, primary, D); true)
            TcStatement::new(
                Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Var(d)]),
                vec![],
            ),
            // C_pb: Compl(pupil(N, C, S); school(S, T, merano))
            TcStatement::new(
                Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                vec![Atom::new(
                    school,
                    vec![Term::Var(s), Term::Var(t), Term::Cst(merano)],
                )],
            ),
            // C_enp: Compl(learns(N, english); pupil(N, C, S), school(S, primary, D))
            TcStatement::new(
                Atom::new(learns, vec![Term::Var(n), Term::Cst(english)]),
                vec![
                    Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                    Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Var(d)]),
                ],
            ),
        ])
    }

    #[test]
    fn associated_query_has_head_atom_first() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let c_pb = &tcs.statements()[1];
        let q = c_pb.associated_query();
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.body[0], c_pb.head);
        assert_eq!(q.head, c_pb.head.args);
        assert!(q.is_safe());
    }

    #[test]
    fn signature_and_dependency_graph() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let learns = v.pred("learns", 2);
        assert_eq!(tcs.signature(), BTreeSet::from([pupil, school, learns]));
        let graph = tcs.dependency_graph();
        assert_eq!(graph[&learns], BTreeSet::from([pupil, school]));
        assert_eq!(graph[&pupil], BTreeSet::from([school]));
        assert_eq!(graph[&school], BTreeSet::new());
    }

    #[test]
    fn school_tcs_is_acyclic() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        assert!(tcs.is_acyclic());
    }

    #[test]
    fn flight_tcs_is_cyclic() {
        // Compl(conn(X, Y); conn(Y, Z)) from Theorem 17.
        let mut v = Vocabulary::new();
        let conn = v.pred("conn", 2);
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let tcs = TcSet::new(vec![TcStatement::new(
            Atom::new(conn, vec![Term::Var(x), Term::Var(y)]),
            vec![Atom::new(conn, vec![Term::Var(y), Term::Var(z)])],
        )]);
        assert!(!tcs.is_acyclic());
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(conn, vec![Term::Var(x), Term::Var(y)])],
        );
        assert_eq!(tcs.mcs_size_bound(&q), None);
    }

    #[test]
    fn weak_acyclicity_refines_acyclicity() {
        let mut v = Vocabulary::new();
        // Acyclic implies weakly acyclic.
        let school = school_tcs(&mut v);
        assert!(school.is_acyclic());
        assert!(school.is_weakly_acyclic());

        // Compl(p(X, Y); p(Y, X)): cyclic at the relation level, but no
        // fresh variables — weakly acyclic (footnote 3's motivating case).
        let p = v.pred("p", 2);
        let (x, y) = (v.var("X"), v.var("Y"));
        let swap = TcSet::new(vec![TcStatement::new(
            Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
            vec![Atom::new(p, vec![Term::Var(y), Term::Var(x)])],
        )]);
        assert!(!swap.is_acyclic());
        assert!(swap.is_weakly_acyclic());

        // The flight statement invents a fresh variable on a cycle: not
        // weakly acyclic (and indeed MCSs are unbounded, Theorem 17).
        let conn = v.pred("conn", 2);
        let z = v.var("Z");
        let flight = TcSet::new(vec![TcStatement::new(
            Atom::new(conn, vec![Term::Var(x), Term::Var(y)]),
            vec![Atom::new(conn, vec![Term::Var(y), Term::Var(z)])],
        )]);
        assert!(!flight.is_acyclic());
        assert!(!flight.is_weakly_acyclic());
    }

    #[test]
    fn weak_acyclicity_detects_fresh_variable_cycles_across_statements() {
        // Compl(p(X); q(X, Z)) and Compl(q(X, Y); p(Y)): the fresh Z flows
        // into q's second column, which feeds back into p via the second
        // statement — a special edge on a cycle.
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let q = v.pred("q", 2);
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let set = TcSet::new(vec![
            TcStatement::new(
                Atom::new(p, vec![Term::Var(x)]),
                vec![Atom::new(q, vec![Term::Var(x), Term::Var(z)])],
            ),
            TcStatement::new(
                Atom::new(q, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(p, vec![Term::Var(y)])],
            ),
        ]);
        assert!(!set.is_acyclic());
        assert!(!set.is_weakly_acyclic());
    }

    #[test]
    fn mcs_size_bound_formula() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let learns = v.pred("learns", 2);
        let (n, l) = (v.var("N"), v.var("L"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(n)],
            vec![Atom::new(learns, vec![Term::Var(n), Term::Var(l)])],
        );
        // s = 3, M = 3 (C_enp has head + 2 condition atoms), |Q| = 1:
        // bound = 1 * (3 + 9 + 27) = 39.
        assert_eq!(tcs.mcs_size_bound(&q), Some(39));
    }

    #[test]
    fn display_statement() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        assert_eq!(
            tcs.statements()[0].display(&v).to_string(),
            "compl school(S, primary, D) ; true"
        );
        assert_eq!(
            tcs.statements()[1].display(&v).to_string(),
            "compl pupil(N, C, S) ; school(S, T, merano)"
        );
    }

    #[test]
    fn empty_set_properties() {
        let tcs = TcSet::default();
        assert!(tcs.is_empty());
        assert!(tcs.is_acyclic());
        assert!(tcs.signature().is_empty());
    }
}
