//! String interning and vocabulary management.
//!
//! All names occurring in queries, TC statements and instances — relation
//! names, constants and variable names — are interned into small integer ids
//! by a [`Vocabulary`]. This makes terms and atoms `Copy`-cheap to compare
//! and hash, which matters in the inner loops of homomorphism search.
//!
//! # Frozen and local names
//!
//! A vocabulary keeps its names in three layers that share one id space:
//! a frozen **base** and a frozen **delta**, both shared by `Arc` with
//! every copy, and the **local** names this copy interned since it was
//! last frozen. Ids continue from layer to layer, so a name keeps its id
//! when [`Vocabulary::freeze`] moves it from the local layer into the
//! delta (and, once the delta would hold more than `DELTA_NAMES`
//! entries, folds the delta into the base, copying the base if another
//! copy shares it: one O(names) copy per `DELTA_NAMES` names frozen).
//!
//! Cloning copies the local layer only, so a frozen vocabulary clones in
//! O(1). That is the **overlay**: a clone of a frozen vocabulary interns
//! its unknown names locally, with ids past every frozen one, and never
//! writes the names it shares. Two overlays of one vocabulary give their
//! first local names the same ids, so a local id means something only to
//! the overlay that minted it ([`Vocabulary::is_local`]).

use std::collections::HashMap;
use std::sync::Arc;

use crate::term::{Cst, Var};
use crate::Pred;

/// The most entries (strings, variables and predicates together) the
/// frozen delta holds; freezing past it folds the delta into the base.
const DELTA_NAMES: usize = 64;

/// An interned string.
///
/// Symbols are only meaningful relative to the [`Vocabulary`] that created
/// them; two symbols from the same vocabulary are equal iff their spellings
/// are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw interner index (stable within one [`Vocabulary`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A placeholder symbol for internal, display-free uses (e.g. the head
    /// name of queries constructed during rule evaluation). Resolving its
    /// name through a vocabulary panics; never display it.
    pub fn placeholder() -> Symbol {
        Symbol(u32::MAX)
    }
}

/// One layer of names. Its maps hold global ids; its vectors hold the
/// layer's entries, in id order, from where the layers below it end.
#[derive(Debug, Default, Clone)]
pub(crate) struct Names {
    pub(crate) strings: Vec<Arc<str>>,
    pub(crate) by_string: HashMap<Arc<str>, Symbol>,
    /// Name of each variable.
    pub(crate) var_names: Vec<Symbol>,
    pub(crate) var_by_name: HashMap<Symbol, Var>,
    /// `(name, arity)` of each predicate.
    pub(crate) preds: Vec<(Symbol, usize)>,
    pub(crate) pred_by_sig: HashMap<(Symbol, usize), Pred>,
}

impl Names {
    /// Entries of every kind: what `DELTA_NAMES` bounds.
    fn len(&self) -> usize {
        self.strings.len() + self.var_names.len() + self.preds.len()
    }

    fn push_string(&mut self, s: Arc<str>, sym: Symbol) {
        self.strings.push(Arc::clone(&s));
        self.by_string.insert(s, sym);
    }

    fn push_var(&mut self, name: Symbol, v: Var) {
        self.var_names.push(name);
        self.var_by_name.insert(name, v);
    }

    fn push_pred(&mut self, sig: (Symbol, usize), p: Pred) {
        self.preds.push(sig);
        self.pred_by_sig.insert(sig, p);
    }

    /// Appends `above`, the layer whose ids start where this one's end.
    fn append(&mut self, above: Names) {
        self.strings.extend(above.strings);
        self.by_string.extend(above.by_string);
        self.var_names.extend(above.var_names);
        self.var_by_name.extend(above.var_by_name);
        self.preds.extend(above.preds);
        self.pred_by_sig.extend(above.pred_by_sig);
    }
}

/// The entry with global id `i` of the table `table` selects per layer.
fn entry<T>(layers: [&Names; 3], i: usize, table: fn(&Names) -> &Vec<T>) -> &T {
    let mut i = i;
    for layer in layers {
        let entries = table(layer);
        if i < entries.len() {
            return &entries[i];
        }
        i -= entries.len();
    }
    panic!("id out of range of this vocabulary")
}

/// The interner for all names used in a reasoning session.
///
/// A `Vocabulary` owns the mapping between strings and the ids used by the
/// rest of the system ([`Symbol`], [`Var`], [`Pred`]), and is the source of
/// *fresh* variables (needed when building fresh query extensions). See the
/// module docs for its frozen and local names.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// Frozen names from id 0, shared by every copy.
    base: Arc<Names>,
    /// Frozen names past the base's, at most `DELTA_NAMES` entries.
    delta: Arc<Names>,
    /// Names this copy interned since it was last frozen.
    local: Names,
    pub(crate) fresh_counter: u64,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A frozen vocabulary holding `names` (the codec's decode).
    pub(crate) fn from_frozen(names: Names, fresh_counter: u64) -> Self {
        Vocabulary {
            base: Arc::new(names),
            fresh_counter,
            ..Vocabulary::default()
        }
    }

    /// The three layers, bottom first.
    pub(crate) fn layers(&self) -> [&Names; 3] {
        [&self.base, &self.delta, &self.local]
    }

    /// Interns a string.
    pub fn sym(&mut self, s: &str) -> Symbol {
        if let Some(sym) = self.lookup(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.num_strings()).expect("interner overflow"));
        self.local.push_string(Arc::from(s), sym);
        sym
    }

    /// Looks up an interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.layers()
            .into_iter()
            .find_map(|l| l.by_string.get(s).copied())
    }

    /// The spelling of a symbol.
    pub fn name(&self, sym: Symbol) -> &str {
        entry::<Arc<str>>(self.layers(), sym.index(), |l| &l.strings)
    }

    /// Number of distinct strings interned so far.
    pub(crate) fn num_strings(&self) -> usize {
        self.layers().iter().map(|l| l.strings.len()).sum()
    }

    fn var_of(&self, name: Symbol) -> Option<Var> {
        self.layers()
            .into_iter()
            .find_map(|l| l.var_by_name.get(&name).copied())
    }

    fn new_var(&mut self, name: Symbol) -> Var {
        let v = Var(u32::try_from(self.num_vars()).expect("variable overflow"));
        self.local.push_var(name, v);
        v
    }

    /// Interns a named variable. Repeated calls with the same name return
    /// the same [`Var`].
    pub fn var(&mut self, name: &str) -> Var {
        let sym = self.sym(name);
        self.var_of(sym).unwrap_or_else(|| self.new_var(sym))
    }

    /// Creates a fresh variable guaranteed to be distinct from every
    /// variable created so far. `hint` is used to derive a readable name:
    /// `hint#n` for the first counter value `n` whose name is not already
    /// a variable.
    pub fn fresh_var(&mut self, hint: &str) -> Var {
        loop {
            let name = format!("{hint}#{}", self.fresh_counter);
            self.fresh_counter += 1;
            let sym = self.sym(&name);
            if self.var_of(sym).is_none() {
                return self.new_var(sym);
            }
        }
    }

    /// The name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        self.name(*entry(self.layers(), v.index(), |l| &l.var_names))
    }

    /// Number of distinct variables created so far.
    pub fn num_vars(&self) -> usize {
        self.layers().iter().map(|l| l.var_names.len()).sum()
    }

    /// Interns a data constant.
    pub fn cst(&mut self, name: &str) -> Cst {
        Cst::Data(self.sym(name))
    }

    /// Interns a predicate with the given name and arity. Predicates with
    /// the same name but different arities are distinct.
    pub fn pred(&mut self, name: &str, arity: usize) -> Pred {
        let sym = self.sym(name);
        if let Some(p) = self.pred_of((sym, arity)) {
            return p;
        }
        let p = Pred(u32::try_from(self.num_preds()).expect("predicate overflow"));
        self.local.push_pred((sym, arity), p);
        p
    }

    fn pred_of(&self, sig: (Symbol, usize)) -> Option<Pred> {
        self.layers()
            .into_iter()
            .find_map(|l| l.pred_by_sig.get(&sig).copied())
    }

    /// Looks up a predicate without inserting.
    pub fn lookup_pred(&self, name: &str, arity: usize) -> Option<Pred> {
        self.pred_of((self.lookup(name)?, arity))
    }

    /// The name of a predicate.
    pub fn pred_name(&self, p: Pred) -> &str {
        self.name(entry(self.layers(), p.index(), |l| &l.preds).0)
    }

    /// The arity of a predicate.
    pub fn arity(&self, p: Pred) -> usize {
        entry(self.layers(), p.index(), |l| &l.preds).1
    }

    /// Number of distinct predicates created so far.
    pub fn num_preds(&self) -> usize {
        self.layers().iter().map(|l| l.preds.len()).sum()
    }

    /// Freezes every local name: after this, clones share all of them and
    /// [`Vocabulary::is_local`] holds for none. Ids do not change. Costs
    /// O(local + delta) while the bounded delta has room, and one copy
    /// of a shared base when it fills.
    pub fn freeze(&mut self) {
        if self.local.len() == 0 {
            return;
        }
        let local = std::mem::take(&mut self.local);
        if self.delta.len() + local.len() <= DELTA_NAMES {
            Arc::make_mut(&mut self.delta).append(local);
        } else {
            let delta = Arc::unwrap_or_clone(std::mem::take(&mut self.delta));
            let base = Arc::make_mut(&mut self.base);
            base.append(delta);
            base.append(local);
        }
    }

    /// Whether `sym` is local: interned since this vocabulary was last
    /// frozen, so shared with no copy.
    pub fn is_local(&self, sym: Symbol) -> bool {
        sym.index() >= self.base.strings.len() + self.delta.strings.len()
    }

    /// Whether the predicate `p` is local (see [`Vocabulary::is_local`]).
    pub fn is_local_pred(&self, p: Pred) -> bool {
        p.index() >= self.base.preds.len() + self.delta.preds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.sym("abc");
        let b = v.sym("abc");
        assert_eq!(a, b);
        assert_eq!(v.name(a), "abc");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut v = Vocabulary::new();
        assert_ne!(v.sym("a"), v.sym("b"));
    }

    #[test]
    fn variables_are_interned_by_name() {
        let mut v = Vocabulary::new();
        let x1 = v.var("X");
        let x2 = v.var("X");
        let y = v.var("Y");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        assert_eq!(v.var_name(x1), "X");
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let f1 = v.fresh_var("X");
        let f2 = v.fresh_var("X");
        assert_ne!(f1, f2);
        assert_ne!(f1, x);
        assert_eq!(v.num_vars(), 3);
    }

    #[test]
    fn fresh_var_skips_taken_names() {
        let mut v = Vocabulary::new();
        // Pre-claim the name the fresh counter would produce first.
        let taken = v.var("X#0");
        let f = v.fresh_var("X");
        assert_ne!(f, taken);
        assert_eq!(v.var_name(f), "X#1");
    }

    #[test]
    fn predicates_distinguish_arity() {
        let mut v = Vocabulary::new();
        let p2 = v.pred("p", 2);
        let p3 = v.pred("p", 3);
        assert_ne!(p2, p3);
        assert_eq!(v.arity(p2), 2);
        assert_eq!(v.arity(p3), 3);
        assert_eq!(v.pred_name(p2), "p");
        assert_eq!(v.lookup_pred("p", 2), Some(p2));
        assert_eq!(v.lookup_pred("p", 4), None);
        assert_eq!(v.lookup_pred("q", 2), None);
    }

    #[test]
    fn constants_are_data_constants() {
        let mut v = Vocabulary::new();
        let c = v.cst("merano");
        match c {
            Cst::Data(sym) => assert_eq!(v.name(sym), "merano"),
            _ => panic!("expected data constant"),
        }
    }

    /// Interns `n` names of every kind, spelled with `tag`.
    fn intern(v: &mut Vocabulary, tag: &str, n: usize) -> Vec<(Symbol, Var, Pred)> {
        (0..n)
            .map(|i| {
                (
                    v.sym(&format!("{tag}c{i}")),
                    v.var(&format!("{tag}V{i}")),
                    v.pred(&format!("{tag}p{i}"), i % 3),
                )
            })
            .collect()
    }

    /// Every name of `ids` resolves in `v` to its spelling and back.
    fn assert_resolves(v: &Vocabulary, tag: &str, ids: &[(Symbol, Var, Pred)]) {
        for (i, &(s, x, p)) in ids.iter().enumerate() {
            assert_eq!(v.name(s), format!("{tag}c{i}"));
            assert_eq!(v.lookup(&format!("{tag}c{i}")), Some(s));
            assert_eq!(v.var_name(x), format!("{tag}V{i}"));
            assert_eq!(v.pred_name(p), format!("{tag}p{i}"));
            assert_eq!(v.arity(p), i % 3);
            assert_eq!(v.lookup_pred(&format!("{tag}p{i}"), i % 3), Some(p));
        }
    }

    #[test]
    fn freezing_keeps_ids_through_delta_and_base_folds() {
        let mut v = Vocabulary::new();
        let mut all = Vec::new();
        // Rounds small enough to stay in the delta, then one that folds,
        // with a clone held across each freeze as a published copy would.
        for (round, n) in [3usize, 5, 40, 2].into_iter().enumerate() {
            let tag = format!("r{round}");
            let ids = intern(&mut v, &tag, n);
            assert!(ids
                .iter()
                .all(|&(s, _, p)| v.is_local(s) && v.is_local_pred(p)));
            let held = v.clone();
            v.freeze();
            assert!(ids
                .iter()
                .all(|&(s, _, p)| !v.is_local(s) && !v.is_local_pred(p)));
            assert_resolves(&v, &tag, &ids);
            assert_resolves(&held, &tag, &ids);
            all.push((tag, ids));
        }
        assert!(v.delta.len() <= DELTA_NAMES);
        assert!(v.base.len() > 0, "the 40-name round folded into the base");
        for (tag, ids) in &all {
            assert_resolves(&v, tag, ids);
        }
        let (strings, vars, preds) = (v.num_strings(), v.num_vars(), v.num_preds());
        assert_eq!((vars, preds), (50, 50));
        // Re-interning frozen names adds nothing.
        for (tag, ids) in &all {
            assert_eq!(intern(&mut v, tag, ids.len()), *ids);
        }
        assert_eq!(v.num_strings(), strings);
    }

    #[test]
    fn overlays_share_frozen_names_and_mint_the_same_local_ids() {
        let mut frozen = Vocabulary::new();
        let known = frozen.cst("merano");
        frozen.freeze();
        let (mut a, mut b) = (frozen.clone(), frozen.clone());
        assert_eq!(a.cst("merano"), known);
        let (foo, bar) = (a.sym("foo"), b.sym("bar"));
        // Request-local names of two overlays collide by design.
        assert_eq!(foo, bar);
        assert_eq!((a.name(foo), b.name(bar)), ("foo", "bar"));
        assert!(a.is_local(foo) && !a.is_local(Symbol(0)));
        // Neither overlay wrote the frozen vocabulary.
        assert_eq!(frozen.num_strings(), 1);
        assert_eq!(frozen.lookup("foo"), None);
        // Fresh variables continue the shared counter in each overlay.
        let fa = a.fresh_var("F");
        let fb = b.fresh_var("F");
        assert_eq!((a.var_name(fa), b.var_name(fb)), ("F#0", "F#0"));
        assert_eq!(frozen.fresh_counter, 0);
    }
}
