//! Stable binary encoding of the relational-algebra data model.
//!
//! The durability layer (`magik-storage`) persists vocabularies, facts and
//! instances; this module defines the byte format they travel in. The
//! format is deliberately simple and versioned at the *container* level
//! (WAL segments and checkpoint files carry magic + version headers), so
//! this module only has to stay stable within one container version:
//!
//! * integers are LEB128 **varints** ([`put_varint`] / [`Reader::varint`]);
//! * strings are length-prefixed UTF-8;
//! * structured values are tagged concatenations of the above.
//!
//! Decoding is **defensive**: every index is validated against the
//! vocabulary it points into, every count is sanity-checked against the
//! bytes remaining, and failures come back as [`CodecError`] — never a
//! panic, whatever the input bytes. This is what lets the recovery path
//! treat a CRC-valid-but-undecodable record as clean corruption instead
//! of undefined behaviour.

use std::fmt;
use std::sync::Arc;

use crate::atom::{Atom, Fact, Pred};
use crate::instance::Instance;
use crate::term::{Cst, Term, Var};
use crate::vocab::{Names, Symbol, Vocabulary};

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// The input is complete but structurally invalid (bad tag, index out
    /// of range, duplicate interned entry, …).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `n` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` iff every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint (at most 10 bytes — a 64-bit value).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut n: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint too long"));
            }
        }
    }

    /// Reads a varint that must fit a `usize` count of items at least
    /// `min_item_bytes` wide each — rejecting counts the remaining bytes
    /// cannot possibly hold, so corrupt input cannot provoke huge
    /// allocations.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("count overflows usize"))?;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Malformed("count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.count(1)?;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("string is not UTF-8"))
    }
}

fn check_index(idx: u64, len: usize, what: &'static str) -> Result<u32, CodecError> {
    if (idx as usize) < len {
        Ok(idx as u32)
    } else {
        Err(CodecError::Malformed(what))
    }
}

/// Encodes a vocabulary: interned strings, variable names, predicate
/// signatures and the fresh-variable counter. The derived hash maps are
/// rebuilt on decode. Frozen and local names encode alike, in id order,
/// so the bytes do not depend on how the names are layered.
pub fn encode_vocabulary(v: &Vocabulary, out: &mut Vec<u8>) {
    let layers = v.layers();
    put_varint(out, v.num_strings() as u64);
    for s in layers.iter().flat_map(|l| &l.strings) {
        put_str(out, s);
    }
    put_varint(out, v.num_vars() as u64);
    for sym in layers.iter().flat_map(|l| &l.var_names) {
        put_varint(out, u64::from(sym.0));
    }
    put_varint(out, v.num_preds() as u64);
    for &(sym, arity) in layers.iter().flat_map(|l| &l.preds) {
        put_varint(out, u64::from(sym.0));
        put_varint(out, arity as u64);
    }
    put_varint(out, v.fresh_counter);
}

/// The widest arity a decoded predicate may declare. The reasoning stack
/// never mints wide relations; anything past this is corrupt input.
const MAX_ARITY: u64 = 1 << 16;

/// Decodes a vocabulary, rebuilding the interning maps and validating
/// every cross-reference (string indexes, duplicate spellings, duplicate
/// variable names, duplicate predicate signatures). Every decoded name is
/// frozen.
pub fn decode_vocabulary(r: &mut Reader<'_>) -> Result<Vocabulary, CodecError> {
    let mut names = Names::default();
    let n_strings = r.count(1)?;
    names.strings.reserve(n_strings);
    for i in 0..n_strings {
        let s: Arc<str> = Arc::from(r.str()?);
        if names
            .by_string
            .insert(Arc::clone(&s), Symbol(i as u32))
            .is_some()
        {
            return Err(CodecError::Malformed("duplicate interned string"));
        }
        names.strings.push(s);
    }
    let n_vars = r.count(1)?;
    names.var_names.reserve(n_vars);
    for i in 0..n_vars {
        let sym = Symbol(check_index(
            r.varint()?,
            n_strings,
            "variable name out of range",
        )?);
        if names.var_by_name.insert(sym, Var(i as u32)).is_some() {
            return Err(CodecError::Malformed("duplicate variable name"));
        }
        names.var_names.push(sym);
    }
    let n_preds = r.count(1)?;
    names.preds.reserve(n_preds);
    for i in 0..n_preds {
        let sym = Symbol(check_index(
            r.varint()?,
            n_strings,
            "predicate name out of range",
        )?);
        let arity = r.varint()?;
        if arity > MAX_ARITY {
            return Err(CodecError::Malformed("predicate arity out of range"));
        }
        let arity = arity as usize;
        if names
            .pred_by_sig
            .insert((sym, arity), Pred(i as u32))
            .is_some()
        {
            return Err(CodecError::Malformed("duplicate predicate signature"));
        }
        names.preds.push((sym, arity));
    }
    let fresh_counter = r.varint()?;
    Ok(Vocabulary::from_frozen(names, fresh_counter))
}

const TAG_CST_DATA: u8 = 0;
const TAG_CST_FROZEN: u8 = 1;
const TAG_TERM_VAR: u8 = 0;
const TAG_TERM_CST: u8 = 1;

/// Encodes a constant.
pub fn encode_cst(c: Cst, out: &mut Vec<u8>) {
    match c {
        Cst::Data(sym) => {
            out.push(TAG_CST_DATA);
            put_varint(out, u64::from(sym.0));
        }
        Cst::Frozen(v) => {
            out.push(TAG_CST_FROZEN);
            put_varint(out, v.index() as u64);
        }
    }
}

/// Decodes a constant, validating its index against `vocab`.
pub fn decode_cst(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Cst, CodecError> {
    match r.u8()? {
        TAG_CST_DATA => Ok(Cst::Data(Symbol(check_index(
            r.varint()?,
            vocab.num_strings(),
            "constant symbol out of range",
        )?))),
        TAG_CST_FROZEN => Ok(Cst::Frozen(Var(check_index(
            r.varint()?,
            vocab.num_vars(),
            "frozen variable out of range",
        )?))),
        _ => Err(CodecError::Malformed("unknown constant tag")),
    }
}

/// Encodes a term.
pub fn encode_term(t: Term, out: &mut Vec<u8>) {
    match t {
        Term::Var(v) => {
            out.push(TAG_TERM_VAR);
            put_varint(out, v.index() as u64);
        }
        Term::Cst(c) => {
            out.push(TAG_TERM_CST);
            encode_cst(c, out);
        }
    }
}

/// Decodes a term, validating its indexes against `vocab`.
pub fn decode_term(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Term, CodecError> {
    match r.u8()? {
        TAG_TERM_VAR => Ok(Term::Var(Var(check_index(
            r.varint()?,
            vocab.num_vars(),
            "variable out of range",
        )?))),
        TAG_TERM_CST => Ok(Term::Cst(decode_cst(r, vocab)?)),
        _ => Err(CodecError::Malformed("unknown term tag")),
    }
}

fn decode_pred(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Pred, CodecError> {
    Ok(Pred(check_index(
        r.varint()?,
        vocab.num_preds(),
        "predicate out of range",
    )?))
}

/// Encodes an atom: predicate id plus tagged argument terms.
pub fn encode_atom(a: &Atom, out: &mut Vec<u8>) {
    put_varint(out, a.pred.index() as u64);
    put_varint(out, a.args.len() as u64);
    for &t in &a.args {
        encode_term(t, out);
    }
}

/// Decodes an atom, validating the predicate, the argument count against
/// its declared arity, and every argument term.
pub fn decode_atom(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Atom, CodecError> {
    let pred = decode_pred(r, vocab)?;
    let n_args = r.count(1)?;
    if n_args != vocab.arity(pred) {
        return Err(CodecError::Malformed("atom argument count != arity"));
    }
    let mut args = Vec::with_capacity(n_args);
    for _ in 0..n_args {
        args.push(decode_term(r, vocab)?);
    }
    Ok(Atom::new(pred, args))
}

/// Encodes a fact: predicate id plus constant arguments.
pub fn encode_fact(f: &Fact, out: &mut Vec<u8>) {
    put_varint(out, f.pred.index() as u64);
    put_varint(out, f.args.len() as u64);
    for &c in &f.args {
        encode_cst(c, out);
    }
}

/// Decodes a fact, validating the predicate, the argument count against
/// its declared arity, and every argument constant.
pub fn decode_fact(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Fact, CodecError> {
    let pred = decode_pred(r, vocab)?;
    let n_args = r.count(1)?;
    if n_args != vocab.arity(pred) {
        return Err(CodecError::Malformed("fact argument count != arity"));
    }
    let mut args = Vec::with_capacity(n_args);
    for _ in 0..n_args {
        args.push(decode_cst(r, vocab)?);
    }
    Ok(Fact::new(pred, args))
}

/// Encodes every fact of an iterator as a count-prefixed sequence. The
/// per-relation/per-column indexes are derived state and are rebuilt by
/// [`decode_instance`].
pub fn encode_instance(facts: impl ExactSizeIterator<Item = Fact>, out: &mut Vec<u8>) {
    put_varint(out, facts.len() as u64);
    for f in facts {
        encode_fact(&f, out);
    }
}

/// Decodes an instance encoded by [`encode_instance`], rebuilding the
/// indexes by insertion. Duplicate facts are rejected (the encoder never
/// produces them, so their presence flags corruption).
pub fn decode_instance(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<Instance, CodecError> {
    let n = r.count(2)?;
    let mut db = Instance::new();
    for _ in 0..n {
        if !db.insert(decode_fact(r, vocab)?) {
            return Err(CodecError::Malformed("duplicate fact in instance"));
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.pred("pupil", 3);
        v.pred("school", 3);
        v.var("N");
        v.var("S");
        v.fresh_var("N");
        v.cst("merano");
        v.cst("primary");
        v
    }

    #[test]
    fn vocabulary_roundtrips() {
        let v = sample_vocab();
        let mut buf = Vec::new();
        encode_vocabulary(&v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_vocabulary(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.num_preds(), v.num_preds());
        assert_eq!(back.num_vars(), v.num_vars());
        assert_eq!(back.lookup_pred("pupil", 3), v.lookup_pred("pupil", 3));
        assert_eq!(back.lookup("merano"), v.lookup("merano"));
        // The fresh counter survives, so post-recovery fresh variables
        // cannot collide with pre-crash ones.
        let mut back = back;
        let mut v = v;
        assert_eq!(back.fresh_var("N"), v.fresh_var("N"));
    }

    #[test]
    fn layered_vocabulary_encodes_like_a_flat_one() {
        // The same names, interned flat and interned with freezes between
        // them (one folding the delta into the base, a local tail left).
        let intern = |freezes: &[usize]| {
            let mut v = Vocabulary::new();
            for i in 0..120 {
                if freezes.contains(&i) {
                    v.freeze();
                }
                v.pred(&format!("p{}", i % 7), i % 3);
                v.var(&format!("V{i}"));
                v.cst(&format!("c{}", i % 50));
            }
            v.fresh_var("F");
            v
        };
        let encode = |v: &Vocabulary| {
            let mut buf = Vec::new();
            encode_vocabulary(v, &mut buf);
            buf
        };
        let flat = encode(&intern(&[]));
        assert_eq!(encode(&intern(&[3, 10, 90, 100])), flat);
        let back = decode_vocabulary(&mut Reader::new(&flat)).unwrap();
        assert_eq!(encode(&back), flat);
    }

    #[test]
    fn fact_and_atom_roundtrip() {
        let mut v = sample_vocab();
        let pupil = v.pred("pupil", 3);
        let f = Fact::new(pupil, vec![v.cst("anna"), v.cst("c1"), v.cst("hofer")]);
        let a = Atom::new(
            pupil,
            vec![
                Term::Var(v.var("N")),
                Term::Cst(v.cst("c1")),
                Term::Cst(Cst::Frozen(v.var("S"))),
            ],
        );
        let mut buf = Vec::new();
        encode_fact(&f, &mut buf);
        encode_atom(&a, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_fact(&mut r, &v).unwrap(), f);
        assert_eq!(decode_atom(&mut r, &v).unwrap(), a);
        assert!(r.is_empty());
    }

    #[test]
    fn instance_roundtrips() {
        let mut v = sample_vocab();
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let mut db = Instance::new();
        db.insert(Fact::new(
            pupil,
            vec![v.cst("anna"), v.cst("c1"), v.cst("hofer")],
        ));
        db.insert(Fact::new(
            school,
            vec![v.cst("hofer"), v.cst("primary"), v.cst("merano")],
        ));
        let mut buf = Vec::new();
        encode_instance(db.iter_facts().collect::<Vec<_>>().into_iter(), &mut buf);
        let back = decode_instance(&mut Reader::new(&buf), &v).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn varint_roundtrips_at_boundaries() {
        for n in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, n);
            assert_eq!(Reader::new(&buf).varint().unwrap(), n, "n = {n}");
        }
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let v = sample_vocab();
        let mut buf = Vec::new();
        encode_vocabulary(&v, &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_vocabulary(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_indexes_are_malformed() {
        let v = sample_vocab();
        // A fact over a predicate id past the vocabulary.
        let mut buf = Vec::new();
        put_varint(&mut buf, 99);
        put_varint(&mut buf, 0);
        assert_eq!(
            decode_fact(&mut Reader::new(&buf), &v),
            Err(CodecError::Malformed("predicate out of range"))
        );
        // Wrong argument count for a valid predicate.
        let mut buf = Vec::new();
        put_varint(&mut buf, 0); // pupil/3
        put_varint(&mut buf, 1);
        buf.push(TAG_CST_DATA);
        put_varint(&mut buf, 0);
        assert_eq!(
            decode_fact(&mut Reader::new(&buf), &v),
            Err(CodecError::Malformed("fact argument count != arity"))
        );
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX)); // claimed string count
        assert!(matches!(
            decode_vocabulary(&mut Reader::new(&buf)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let buf = [0x80u8; 11];
        assert!(Reader::new(&buf).varint().is_err());
    }
}
