//! `explain-plan` rendering: human- and machine-readable views of a
//! compiled plan and (optionally) the counters from executing it.
//!
//! The conventions follow `magik analyze`: a compact fixed-layout text
//! form for terminals, and a hand-rolled single-object JSON form (the
//! workspace has no serde) with stable key names for tooling.

use std::fmt::Write as _;

use magik_relalg::exec::{Access, ColAction, ExecStats, Key};
use magik_relalg::{json_escape, DisplayWith, Vocabulary};

use crate::compiled::CompiledQuery;

fn key_text(key: Key, slots: &[magik_relalg::Var], vocab: &Vocabulary) -> String {
    match key {
        Key::Const(c) => format!("{}", c.display(vocab)),
        Key::Slot(s) => format!("?{}", vocab.var_name(slots[s])),
    }
}

/// Renders a plan as indented text: the chosen atom order, each op's
/// access path (scan vs index probe), its per-column actions, the
/// planner's estimate, and — when `stats` is given — the op's runtime
/// counters, followed by the aggregate totals.
pub fn explain_text(cq: &CompiledQuery, stats: Option<&ExecStats>, vocab: &Vocabulary) -> String {
    let plan = cq.plan();
    let batch = cq.batch_plan();
    let q = cq.query();
    let slots = plan.slots();
    let mut out = String::new();
    let _ = writeln!(out, "query {}", q.display(vocab));
    let slot_names: Vec<&str> = slots.iter().map(|&v| vocab.var_name(v)).collect();
    let _ = writeln!(
        out,
        "plan: {} ops, slots [{}] ({} seed)",
        plan.ops().len(),
        slot_names.join(", "),
        plan.seed_slots()
    );
    for (i, op) in plan.ops().iter().enumerate() {
        let access = match op.access {
            Access::Scan => "scan".to_string(),
            Access::Probe { col, key } => {
                format!("probe col {} = {}", col, key_text(key, slots, vocab))
            }
        };
        // The batch executor's join-operator choice for this op (only
        // join ops carry one; scans and pure filters do not).
        let bop = &batch.ops()[i];
        let join = if bop.join_keys().is_empty() {
            String::new()
        } else {
            format!("  join={}", bop.strategy.name())
        };
        let _ = writeln!(
            out,
            "  op {}: {}  {}  est={}{}",
            i + 1,
            q.body[op.atom].display(vocab),
            access,
            op.est,
            join
        );
        let actions: Vec<String> = op
            .actions
            .iter()
            .map(|&a| match a {
                ColAction::CheckConst { col, value } => {
                    format!("check col {} = {}", col, value.display(vocab))
                }
                ColAction::CheckSlot { col, slot } => {
                    format!("check col {} = ?{}", col, vocab.var_name(slots[slot]))
                }
                ColAction::Bind { col, slot } => {
                    format!("bind ?{} <- col {}", vocab.var_name(slots[slot]), col)
                }
            })
            .collect();
        if !actions.is_empty() {
            let _ = writeln!(out, "        {}", actions.join(", "));
        }
        if let Some(stats) = stats {
            if let Some(c) = stats.per_op.get(i) {
                let _ = writeln!(
                    out,
                    "        entered={} probes={} scanned={} matched={}",
                    c.entered, c.probes, c.scanned, c.matched
                );
            }
        }
    }
    if let Some(s) = stats {
        let _ = writeln!(
            out,
            "totals: probes={} scanned={} backtracks={} rows={}",
            s.probes, s.scanned, s.backtracks, s.rows
        );
        let _ = writeln!(
            out,
            "batch: batches={} rows={} joins nested={} hash={} merge={}",
            s.batches, s.batch_rows, s.join_nested, s.join_hash, s.join_merge
        );
    }
    out
}

/// Renders a plan as one JSON object with stable keys: `query`, `slots`,
/// `seed_slots`, `ops` (each with `atom`, `pred`, `access`, `est`,
/// `join` for join ops, `actions`, and `counters` when `stats` is given),
/// and `totals` plus `batch` (also only with `stats`).
pub fn explain_json(cq: &CompiledQuery, stats: Option<&ExecStats>, vocab: &Vocabulary) -> String {
    let plan = cq.plan();
    let batch = cq.batch_plan();
    let q = cq.query();
    let slots = plan.slots();
    let mut out = String::from("{");
    let _ = write!(
        out,
        r#""query":"{}","slots":[{}],"seed_slots":{},"ops":["#,
        json_escape(&format!("{}", q.display(vocab))),
        slots
            .iter()
            .map(|&v| format!("\"{}\"", json_escape(vocab.var_name(v))))
            .collect::<Vec<_>>()
            .join(","),
        plan.seed_slots()
    );
    for (i, op) in plan.ops().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let access = match op.access {
            Access::Scan => r#"{"kind":"scan"}"#.to_string(),
            Access::Probe { col, key } => {
                let key = match key {
                    Key::Const(c) => format!(
                        r#"{{"const":"{}"}}"#,
                        json_escape(&format!("{}", c.display(vocab)))
                    ),
                    Key::Slot(s) => format!(
                        r#"{{"slot":{},"var":"{}"}}"#,
                        s,
                        json_escape(vocab.var_name(slots[s]))
                    ),
                };
                format!(r#"{{"kind":"probe","col":{col},"key":{key}}}"#)
            }
        };
        let actions: Vec<String> = op
            .actions
            .iter()
            .map(|&a| match a {
                ColAction::CheckConst { col, value } => format!(
                    r#"{{"kind":"check_const","col":{},"value":"{}"}}"#,
                    col,
                    json_escape(&format!("{}", value.display(vocab)))
                ),
                ColAction::CheckSlot { col, slot } => format!(
                    r#"{{"kind":"check_slot","col":{},"slot":{},"var":"{}"}}"#,
                    col,
                    slot,
                    json_escape(vocab.var_name(slots[slot]))
                ),
                ColAction::Bind { col, slot } => format!(
                    r#"{{"kind":"bind","col":{},"slot":{},"var":"{}"}}"#,
                    col,
                    slot,
                    json_escape(vocab.var_name(slots[slot]))
                ),
            })
            .collect();
        let _ = write!(
            out,
            r#"{{"atom":{},"pred":"{}","access":{},"est":{},"actions":[{}]"#,
            op.atom,
            json_escape(vocab.pred_name(op.pred)),
            access,
            op.est,
            actions.join(",")
        );
        let bop = &batch.ops()[i];
        if !bop.join_keys().is_empty() {
            let _ = write!(out, r#","join":"{}""#, bop.strategy.name());
        }
        if let Some(stats) = stats {
            if let Some(c) = stats.per_op.get(i) {
                let _ = write!(
                    out,
                    r#","counters":{{"entered":{},"probes":{},"scanned":{},"matched":{}}}"#,
                    c.entered, c.probes, c.scanned, c.matched
                );
            }
        }
        out.push('}');
    }
    out.push(']');
    if let Some(s) = stats {
        let _ = write!(
            out,
            r#","totals":{{"probes":{},"scanned":{},"backtracks":{},"rows":{}}}"#,
            s.probes, s.scanned, s.backtracks, s.rows
        );
        let _ = write!(
            out,
            r#","batch":{{"batches":{},"rows":{},"join_nested":{},"join_hash":{},"join_merge":{}}}"#,
            s.batches, s.batch_rows, s.join_nested, s.join_hash, s.join_merge
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::{Atom, Fact, Instance, Query, Term};

    fn setup() -> (Vocabulary, Instance, CompiledQuery) {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c")] {
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
        let cq = CompiledQuery::compile(&q, Some(&db)).unwrap();
        (v, db, cq)
    }

    #[test]
    fn text_lists_ops_and_totals() {
        let (v, db, cq) = setup();
        let mut stats = ExecStats::default();
        cq.answers(&db, &mut stats);
        let text = explain_text(&cq, Some(&stats), &v);
        assert!(text.contains("plan: 2 ops"), "{text}");
        assert!(text.contains("probe col 0 = ?Y"), "{text}");
        assert!(text.contains("totals: probes="), "{text}");
        // The join op shows its chosen operator; batch counters follow
        // the totals.
        assert!(text.contains("join=nested_loop"), "{text}");
        assert!(text.contains("batch: batches=1"), "{text}");
        // Without stats, no counter lines appear (but the operator choice
        // is a compile-time fact and stays).
        let bare = explain_text(&cq, None, &v);
        assert!(!bare.contains("totals:"), "{bare}");
        assert!(!bare.contains("entered="), "{bare}");
        assert!(!bare.contains("batch:"), "{bare}");
        assert!(bare.contains("join=nested_loop"), "{bare}");
    }

    #[test]
    fn json_has_stable_keys() {
        let (v, db, cq) = setup();
        let mut stats = ExecStats::default();
        cq.answers(&db, &mut stats);
        let json = explain_json(&cq, Some(&stats), &v);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(r#""seed_slots":0"#), "{json}");
        assert!(json.contains(r#""kind":"probe""#), "{json}");
        assert!(json.contains(r#""kind":"bind""#), "{json}");
        assert!(json.contains(r#""totals":{"probes":"#), "{json}");
        assert!(json.contains(r#""join":"nested_loop""#), "{json}");
        assert!(json.contains(r#""batch":{"batches":1"#), "{json}");
        let bare = explain_json(&cq, None, &v);
        assert!(!bare.contains("totals"), "{bare}");
        assert!(!bare.contains("counters"), "{bare}");
        assert!(!bare.contains(r#""batch""#), "{bare}");
        assert!(bare.contains(r#""join":"nested_loop""#), "{bare}");
    }
}
