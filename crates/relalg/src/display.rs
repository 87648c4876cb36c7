//! Human-readable rendering of interned structures.
//!
//! Interned ids are only meaningful together with their [`Vocabulary`], so
//! types implement [`DisplayWith`] and are rendered via
//! `value.display(&vocab)`, which returns an adapter implementing
//! [`std::fmt::Display`].

use std::fmt;

use crate::atom::{Atom, Fact};
use crate::instance::Instance;
use crate::query::Query;
use crate::subst::Substitution;
use crate::term::{Cst, Term, Var};
use crate::vocab::Vocabulary;

/// Escapes `s` for inclusion in a JSON string literal: quotes and
/// backslashes, and control characters as `\n`, `\r`, `\t` or `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a value given the vocabulary that interned its symbols.
pub trait DisplayWith {
    /// Writes the value using `vocab` to resolve names.
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Adapter implementing [`fmt::Display`].
    fn display<'a>(&'a self, vocab: &'a Vocabulary) -> WithVocab<'a, Self> {
        WithVocab { item: self, vocab }
    }
}

/// The adapter returned by [`DisplayWith::display`].
pub struct WithVocab<'a, T: ?Sized> {
    item: &'a T,
    vocab: &'a Vocabulary,
}

impl<T: DisplayWith + ?Sized> fmt::Display for WithVocab<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.item.fmt_with(self.vocab, f)
    }
}

impl DisplayWith for Var {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(vocab.var_name(*self))
    }
}

impl DisplayWith for Cst {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cst::Data(sym) => {
                let name = vocab.name(*sym);
                // Constants that are not plain lowercase identifiers must
                // be quoted so that printed output parses back.
                let plain = name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if plain {
                    f.write_str(name)
                } else {
                    write!(f, "\"{name}\"")
                }
            }
            // Frozen variables render with a distinguishing prime, as in
            // the paper's Example 4 (n', c', s').
            Cst::Frozen(v) => write!(f, "{}'", vocab.var_name(*v)),
        }
    }
}

impl DisplayWith for Term {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => v.fmt_with(vocab, f),
            Term::Cst(c) => c.fmt_with(vocab, f),
        }
    }
}

fn write_args<T: DisplayWith>(
    args: &[T],
    vocab: &Vocabulary,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    f.write_str("(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        a.fmt_with(vocab, f)?;
    }
    f.write_str(")")
}

impl DisplayWith for Atom {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(vocab.pred_name(self.pred))?;
        write_args(&self.args, vocab, f)
    }
}

impl DisplayWith for Fact {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(vocab.pred_name(self.pred))?;
        write_args(&self.args, vocab, f)
    }
}

impl DisplayWith for Query {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(vocab.name(self.name))?;
        write_args(&self.head, vocab, f)?;
        f.write_str(" :- ")?;
        if self.body.is_empty() {
            f.write_str("true")?;
        }
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            a.fmt_with(vocab, f)?;
        }
        Ok(())
    }
}

impl DisplayWith for Substitution {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            v.fmt_with(vocab, f)?;
            f.write_str(" -> ")?;
            t.fmt_with(vocab, f)?;
        }
        f.write_str("}")
    }
}

impl DisplayWith for Instance {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, fact) in self.iter_facts().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            fact.fmt_with(vocab, f)?;
        }
        f.write_str("}")
    }
}

impl DisplayWith for Vec<Cst> {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_args(self, vocab, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;

    #[test]
    fn renders_query_with_constants_and_frozen_vars() {
        let mut v = Vocabulary::new();
        let pupil = v.pred("pupil", 3);
        let (n, c, s) = (v.var("N"), v.var("C"), v.var("S"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(n)],
            vec![Atom::new(
                pupil,
                vec![Term::Var(n), Term::Var(c), Term::Var(s)],
            )],
        );
        assert_eq!(q.display(&v).to_string(), "q(N) :- pupil(N, C, S)");

        let frozen = crate::subst::freeze_atom(&q.body[0]);
        assert_eq!(frozen.display(&v).to_string(), "pupil(N', C', S')");
    }

    #[test]
    fn renders_empty_body_as_true() {
        let mut v = Vocabulary::new();
        let q = Query::boolean(v.sym("b"), vec![]);
        assert_eq!(q.display(&v).to_string(), "b() :- true");
    }

    #[test]
    fn renders_substitution() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let c = v.cst("merano");
        let s = Substitution::from_pairs([(x, Term::Cst(c))]);
        assert_eq!(s.display(&v).to_string(), "{X -> merano}");
    }

    #[test]
    fn renders_instance() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a")]));
        assert_eq!(db.display(&v).to_string(), "{p(a)}");
    }
}
