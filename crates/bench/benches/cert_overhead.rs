//! Experiment A14 — certificate-emission overhead.
//!
//! Proof-carrying verdicts must not tax callers that never look at the
//! evidence. Two polarities are measured:
//!
//! * **complete polarity** — the plain Theorem 3 decision
//!   (`is_complete`) against `certify` on a query every atom of which
//!   is covered, so the certificate is the witnessing binding plus one
//!   recorded derivation per atom and no repair search runs. This is the
//!   pure emission overhead, expected within a small constant factor
//!   (≤2x) of the bare verdict, and against `certify` +
//!   `check_certificate` (emission plus independent re-validation by
//!   the trusted checker).
//! * **incomplete polarity** — the same pair on random workloads that
//!   fail the check. Here `certify` deliberately does more than decide:
//!   the greedy-then-minimize repair search evaluates the query once per
//!   candidate, over the one witnessed `T_C(D_Q)` pass plus the
//!   candidates' matches. Reported separately so that cost is never
//!   confused with proof-recording overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use magik::workload::random::{
    acyclic_tcs, covering_tcs, query, QueryShape, RandomQueryConfig, RandomTcsConfig,
};
use magik::{cert_statements, certify, check_certificate, is_complete, Certificate, Vocabulary};

fn bench_polarity(
    c: &mut Criterion,
    name: &str,
    workloads: &[(usize, magik::Query, magik::TcSet)],
) {
    let mut group = c.benchmark_group(format!("cert_overhead/{name}"));
    for (size, q, tcs) in workloads {
        group.bench_with_input(BenchmarkId::new("plain", size), size, |b, _| {
            b.iter(|| is_complete(q, tcs));
        });
        group.bench_with_input(BenchmarkId::new("certify", size), size, |b, _| {
            b.iter(|| certify(q, tcs));
        });
        let cert_stmts = cert_statements(tcs);
        group.bench_with_input(BenchmarkId::new("certify_and_check", size), size, |b, _| {
            b.iter(|| {
                let cert = certify(q, tcs);
                check_certificate(q, &cert_stmts, &cert).expect("emitted certificate");
                cert
            });
        });
    }
    group.finish();
}

fn bench_complete_polarity(c: &mut Criterion) {
    let workloads: Vec<_> = [2usize, 4, 8]
        .into_iter()
        .map(|atoms| {
            let mut vocab = Vocabulary::new();
            let q = query(
                RandomQueryConfig {
                    shape: QueryShape::Chain,
                    atoms,
                    relations: atoms,
                    ..RandomQueryConfig::default()
                },
                &mut vocab,
            );
            let tcs = covering_tcs(atoms, atoms, &mut vocab);
            assert!(is_complete(&q, &tcs), "workload must be complete");
            (atoms, q, tcs)
        })
        .collect();
    bench_polarity(c, "complete", &workloads);
}

fn bench_incomplete_polarity(c: &mut Criterion) {
    let workloads: Vec<_> = [4usize, 16, 64]
        .into_iter()
        .map(|statements| {
            let mut vocab = Vocabulary::new();
            let q = query(
                RandomQueryConfig {
                    shape: QueryShape::Chain,
                    atoms: 8,
                    relations: 4,
                    ..RandomQueryConfig::default()
                },
                &mut vocab,
            );
            let tcs = acyclic_tcs(
                RandomTcsConfig {
                    statements,
                    relations: 4,
                    max_condition: 2,
                    seed: 3,
                },
                &mut vocab,
            );
            let cert = certify(&q, &tcs);
            assert!(
                matches!(cert, Certificate::Incomplete { .. }),
                "workload must be incomplete"
            );
            (statements, q, tcs)
        })
        .collect();
    bench_polarity(c, "incomplete", &workloads);
}

criterion_group!(benches, bench_complete_polarity, bench_incomplete_polarity);
criterion_main!(benches);
