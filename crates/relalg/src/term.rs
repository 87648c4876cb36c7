//! Terms: variables and constants.

use crate::vocab::Symbol;

/// A variable, interned by a [`crate::Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The raw variable index (stable within one [`crate::Vocabulary`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The scratch variable `n` places past `floor`: a bare id, minted
    /// without a [`crate::Vocabulary`], that no vocabulary names. With
    /// `floor` past every variable in use, it collides with none; a caller
    /// that keeps it names it with [`crate::Vocabulary::fresh_var`].
    pub fn scratch(floor: usize, n: usize) -> Var {
        let index = floor.checked_add(n).and_then(|i| u32::try_from(i).ok());
        Var(index.expect("variable overflow"))
    }

    /// The reserved variable `n`: a bare id counted down from the top of
    /// the id space, which vocabularies and scratch floors count up
    /// towards and never reach (it would take four billion variables).
    /// Its frozen constant is a placeholder that no frozen variable of a
    /// query equals. [`Var::reserved_rank`] inverts it.
    pub fn reserved(n: usize) -> Var {
        let index = u32::try_from(n).ok().and_then(|n| u32::MAX.checked_sub(n));
        Var(index.expect("variable overflow"))
    }

    /// The `n` of [`Var::reserved`]`(n)`.
    pub fn reserved_rank(self) -> usize {
        (u32::MAX - self.0) as usize
    }
}

/// A constant.
///
/// Besides ordinary data constants, the paper's machinery needs *frozen
/// variables*: the freezing substitution θ maps every variable `X` to a
/// distinguished constant `θX` that behaves like any other constant during
/// evaluation but can be *unfrozen* back (θ⁻¹). Representing frozen
/// variables as their own constructor makes θ total and invertible and rules
/// out collisions with data constants by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cst {
    /// An ordinary data constant (an interned string).
    Data(Symbol),
    /// The frozen version `θX` of the variable `X`.
    Frozen(Var),
}

impl Cst {
    /// `true` iff this is a frozen variable.
    pub fn is_frozen(self) -> bool {
        matches!(self, Cst::Frozen(_))
    }

    /// The constant packed into 64 bits (tag in the high half, interner
    /// index in the low) — the batch executor's hash-key form. Distinct
    /// constants of one vocabulary pack to distinct bits.
    pub(crate) fn bits(self) -> u64 {
        match self {
            Cst::Data(s) => u64::from(s.0),
            Cst::Frozen(v) => (1 << 32) | u64::from(v.0),
        }
    }
}

/// A term: either a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Cst(Cst),
}

impl Term {
    /// The variable inside, if any.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Cst(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_cst(self) -> Option<Cst> {
        match self {
            Term::Cst(c) => Some(c),
            Term::Var(_) => None,
        }
    }

    /// `true` iff this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// `true` iff this term is a constant.
    pub fn is_cst(self) -> bool {
        matches!(self, Term::Cst(_))
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Cst> for Term {
    fn from(c: Cst) -> Self {
        Term::Cst(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;

    #[test]
    fn term_accessors() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let c = v.cst("a");
        let tv = Term::Var(x);
        let tc = Term::Cst(c);
        assert_eq!(tv.as_var(), Some(x));
        assert_eq!(tv.as_cst(), None);
        assert_eq!(tc.as_cst(), Some(c));
        assert_eq!(tc.as_var(), None);
        assert!(tv.is_var() && !tv.is_cst());
        assert!(tc.is_cst() && !tc.is_var());
    }

    #[test]
    fn frozen_constants_differ_from_data_constants() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let frozen = Cst::Frozen(x);
        let data = v.cst("X");
        assert_ne!(Term::Cst(frozen), Term::Cst(data));
        assert!(frozen.is_frozen());
        assert!(!data.is_frozen());
    }

    #[test]
    fn reserved_variables_count_down_from_the_top() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        for n in 0..4 {
            let r = Var::reserved(n);
            assert_eq!(r.reserved_rank(), n);
            assert_ne!(r, x);
            assert_ne!(r, Var::scratch(v.num_vars(), n));
        }
        assert!(Var::reserved(1) < Var::reserved(0));
    }

    #[test]
    fn from_impls() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let c = v.cst("a");
        assert_eq!(Term::from(x), Term::Var(x));
        assert_eq!(Term::from(c), Term::Cst(c));
    }
}
