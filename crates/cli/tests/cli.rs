//! End-to-end tests of the `magik` binary.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn magik(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_magik"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Like [`magik`], but fails (and kills the process) after `limit`.
fn magik_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_magik"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("magik {args:?} did not finish within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

fn school_file() -> String {
    format!("{}/../../testdata/school.magik", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_reports_verdicts() {
    let out = magik(&["check", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("COMPLETE: q_ppb(N)"));
    assert!(stdout.contains("INCOMPLETE: q_pbl(N)"));
}

#[test]
fn generalize_prints_the_mcg() {
    let out = magik(&["generalize", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("already complete: q_ppb(N)"));
    assert!(stdout.contains("MCG: q_pbl(N) :- pupil(N, C, S), school(S, primary, merano)"));
}

#[test]
fn specialize_prints_mcss_and_stats() {
    let out = magik(&["specialize", &school_file(), "-k", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("learns(N, english)"));
    assert!(stdout.contains("unification calls"));
    // The naive engine agrees.
    let naive = magik(&["specialize", &school_file(), "--naive"]);
    let naive_out = String::from_utf8_lossy(&naive.stdout);
    assert!(naive_out.contains("learns(N, english)"));
}

#[test]
fn the_largest_k_prints_a_saturated_atom_bound() {
    // With no statements the k-MCS search stops after size 0, so even
    // k = usize::MAX returns at once (walking every size never returned).
    // |Q| + k then saturates: unchecked, it panicked in a debug build and
    // printed "within 0 atoms" in release.
    let dir = std::env::temp_dir().join("magik-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("no_statements.magik");
    std::fs::write(&doc, "fact p(a). query q(X) :- p(X).").unwrap();
    let k = usize::MAX.to_string();
    for (command, line) in [
        ("specialize", "no complete specialization"),
        ("bounds", "no publishable partial statistics"),
    ] {
        let args = [command, doc.to_str().unwrap(), "-k", &k];
        let out = magik_within(&args, Duration::from_secs(30));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {stdout}{stderr}");
        assert!(
            stdout.contains(&format!("{line} within {k} atoms")),
            "{command}: {stdout}"
        );
    }
}

#[test]
fn eval_counts_answers() {
    let out = magik(&["eval", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 answers for q_ppb(N)"));
    assert!(stdout.contains("1 answers for q_pbl(N)"));
    assert!(stdout.contains("(john)"));
}

#[test]
fn explain_reports_acyclicity_and_bounds() {
    let out = magik(&["explain", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 statement(s)"));
    assert!(stdout.contains("acyclic"));
    assert!(stdout.contains("signature: {school, pupil, learns}"));
    assert!(stdout.contains("Theorem 18"));
}

#[test]
fn bounds_reports_certainty_and_publishable_counts() {
    let out = magik(&["bounds", &school_file()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // q_ppb is complete: exact count.
    assert!(stdout.contains("ideal answer count: exactly 2"));
    // q_pbl: john is certain (learns english); mary is possible.
    assert!(stdout.contains("certain answers (1)"));
    assert!(stdout.contains("(john)"));
    assert!(stdout.contains("possible further answers (1)"));
    assert!(stdout.contains("(mary)"));
    assert!(stdout.contains("ideal answer count: between 1 and 2"));
    assert!(stdout.contains("learns(N, english)| = 1"));
}

#[test]
fn why_explains_verdicts_with_witnesses() {
    let out = magik(&["why", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("guaranteed by [1] compl pupil(N, C, S)"));
    assert!(stdout.contains("condition matched on school(S, primary, merano)"));
    assert!(stdout.contains("- learns(N, L)  not guaranteed by any statement"));
    assert!(stdout.contains("counterexample"));
    assert!(stdout.contains("lost answer"));
}

#[test]
fn check_honors_finite_domain_constraints() {
    let file = format!(
        "{}/../../testdata/classes.magik",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = magik(&["check", &file]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("COMPLETE: q(N)"),
        "the domain constraint makes q complete: {stdout}"
    );
    let out = magik(&["explain", &file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("finite-domain constraint"));
    assert!(stdout.contains("domain class[3] in {halfDay, fullDay}"));
}

#[test]
fn check_honors_key_constraints() {
    let file = format!("{}/../../testdata/keyed.magik", env!("CARGO_MANIFEST_DIR"));
    let out = magik(&["check", &file]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("COMPLETE: q(N)"),
        "the key chase makes q complete: {stdout}"
    );
    let out = magik(&["explain", &file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("key pupil[0]"));
}

#[test]
fn simulate_reports_at_risk_answers() {
    let out = magik(&["simulate", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // john learns english -> guaranteed; mary has no learns record, so
    // the facts-as-ideal scenario shows nothing at risk for q_ppb...
    assert!(stdout.contains("q_ppb(N)"));
    assert!(stdout.contains("2 ideal answer(s), 2 guaranteed, 0 at risk"));
    // ... while q_pbl keeps john (english learner at a primary school).
    assert!(stdout.contains("1 ideal answer(s), 1 guaranteed, 0 at risk"));
}

#[test]
fn explain_reports_lints_for_flawed_sets() {
    let dir = std::env::temp_dir().join("magik-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("lints.magik");
    std::fs::write(
        &file,
        "compl p(X, Y) ; true.
         compl p(X, b) ; q(X).
         compl conn(X, Y) ; conn(Y, Z).",
    )
    .unwrap();
    let out = magik(&["explain", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lint(s):"));
    assert!(stdout.contains("is subsumed by"));
    assert!(stdout.contains("conditions on its own relation"));
    assert!(stdout.contains("no statement guarantees"));
}

#[test]
fn repl_runs_a_seeded_session() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_magik"))
        .args(["repl", &school_file()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"check q(N) :- pupil(N, C, S), school(S, primary, merano).\n\
              mcs q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).\n\
              quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loaded 2 queries, 3 statements, 5 facts"));
    assert!(stdout.contains("COMPLETE"));
    assert!(stdout.contains("learns(N, english)"));
}

#[test]
fn explain_plan_prints_ops_and_counters() {
    let out = magik(&["explain-plan", &school_file()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The planner starts both queries from the doubly-constant school
    // probe, then joins the rest.
    assert!(stdout.contains("query q_ppb(N)"), "{stdout}");
    assert!(
        stdout.contains("school(S, primary, merano)  probe col 1 = primary"),
        "{stdout}"
    );
    assert!(stdout.contains("entered="), "{stdout}");
    assert!(stdout.contains("totals: probes="), "{stdout}");
    // rows in totals equal the eval answer counts (2 and 1).
    assert!(stdout.contains("rows=2"), "{stdout}");
    assert!(stdout.contains("rows=1"), "{stdout}");
}

#[test]
fn explain_plan_emits_json_and_survives_unsafe_queries() {
    let out = magik(&["explain-plan", &school_file(), "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_end().starts_with('['), "{stdout}");
    assert!(stdout.contains(r#""access":{"kind":"probe""#), "{stdout}");
    assert!(stdout.contains(r#""totals":{"probes":"#), "{stdout}");

    // An unsafe query is reported, not fatal.
    let dir = std::env::temp_dir().join("magik-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("unsafe.magik");
    std::fs::write(&file, "query q(X, Y) :- p(X). fact p(a).").unwrap();
    let out = magik(&["explain-plan", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cannot plan"), "{stdout}");
    let out = magik(&["explain-plan", file.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(r#""error":"#), "{stdout}");
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = magik(&[]);
    assert_eq!(out.status.code(), Some(1));
    let out = magik(&["frobnicate", &school_file()]);
    assert_eq!(out.status.code(), Some(1));
    let out = magik(&["check"]);
    assert_eq!(out.status.code(), Some(1));
    let out = magik(&["check", "/nonexistent/file.magik"]);
    assert_eq!(out.status.code(), Some(1));
    let out = magik(&["specialize", &school_file(), "-k", "banana"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn parse_errors_exit_with_code_2() {
    let dir = std::env::temp_dir().join("magik-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.magik");
    std::fs::write(&bad, "query q(X) :- p(X). query r() :- p(X, Y).").unwrap();
    let out = magik(&["check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("arity"));
}
