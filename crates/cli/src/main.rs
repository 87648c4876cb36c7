//! `magik` — command-line completeness reasoning.
//!
//! Reads a document of `compl`/`query`/`fact` items (see `magik-parser`)
//! and answers completeness questions about its queries:
//!
//! ```text
//! magik check <file>              is each query complete?
//! magik generalize <file>         minimal complete generalization per query
//! magik specialize <file> [-k N] [--naive]
//!                                 k-MCSs per query (default k = 0)
//! magik eval <file>               evaluate each query over the facts
//! magik explain <file>            statement-set diagnostics
//! magik explain-plan <file>       compiled execution plan per query
//! magik serve [--addr A] [--workers N] [--threads N]
//!             [--data-dir DIR] [--fsync MODE] [file]
//!                                 TCP completeness service
//! magik replicate --from A --data-dir DIR [--addr A]
//!                                 follow a primary's WAL; serve read-only
//! magik recover --data-dir DIR [--verify]
//!                                 inspect (and optionally verify) a
//!                                 durable data directory
//! ```
//!
//! `<file>` may be `-` for stdin. Exit code 0 on success, 1 on usage
//! errors, 2 on parse errors (3 for denied `analyze` diagnostics).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::io::Read;
use std::process::ExitCode;

mod repl;

use magik::relalg::json_escape;
use magik::{
    allow_directives, analyze_document, answers, cert_statements, certify_explained,
    check_certificate, classify_answers, count_bounds, explain_check, explain_code, explain_json,
    explain_text, filter_suppressed, fix_source, initial_sync, is_complete, is_complete_under,
    k_mcs, lint, mcg_under, mcg_with_stats, parse_document, publishable_counts,
    render_counterexample, render_explanation_with_locations, render_json, render_report,
    render_sarif, run_replica, semantics::IncompleteDatabase, tc_apply, Baseline, Certificate,
    Code, CompiledQuery, Diagnostic, DisplayWith, Document, DurabilityOptions, Engine, ExecStats,
    FsyncPolicy, KMcsEngine, KMcsOptions, LineIndex, RecoveryReport, SarifFile, Server, Severity,
    SourceFile, TcStatement, Vocabulary,
};

const USAGE: &str = "usage: magik <check|generalize|specialize|eval|explain> <file> [options]

commands:
  check      <file> [--why] [--format text|json]
                                    report COMPLETE/INCOMPLETE per query;
                                    --why attaches a machine-checkable
                                    certificate (witness derivations, or a
                                    counterexample plus a minimal repair),
                                    validated by magik-cert, as text or
                                    JSON per --format
  generalize <file>                 compute the MCG of each query
  specialize <file> [-k N] [--naive]
                                    compute the k-MCSs of each query
  eval       <file>                 evaluate each query over the `fact` items
  bounds     <file> [-k N]          certain answers, count bounds and
                                    publishable partial counts per query
  why        <file>                 per-atom completeness explanation and,
                                    for incomplete queries, a counterexample
  explain    <file>                 statement-set diagnostics and lints
  analyze    <file|dir>... [--format text|json|sarif]
             [--deny infos|warnings|errors] [--fix]
             [--baseline F] [--write-baseline F] [--explain M0xx]
                                    static analysis: span-annotated M0xx
                                    diagnostics for statements, queries,
                                    facts and the Datalog encoding, over
                                    any number of files (directories
                                    recurse into *.magik); exit 3 if any
                                    kept diagnostic reaches the --deny
                                    level (default: errors); --fix applies
                                    machine-applicable suggestions in
                                    place; `% magik: allow(M0xx)` comments
                                    suppress findings; --baseline filters
                                    accepted findings, --write-baseline
                                    records them; --explain prints the
                                    catalogue entry for one code
  simulate   <file>                 treat facts as the ideal state and show
                                    which query answers are at risk
  explain-plan <file> [--format text|json]
                                    compile each query against the `fact`
                                    items, execute it, and print the chosen
                                    plan: atom order, index probes, and
                                    per-op runtime counters
  repl       [file]                 interactive session (optionally seeded
                                    from a file)
  serve      [--addr HOST:PORT] [--workers N] [--threads N]
             [--data-dir DIR] [--fsync always|never|interval[:MS]]
             [--checkpoint-every N] [--segment-bytes N] [file]
                                    serve the line protocol over TCP
                                    (default 127.0.0.1:7171, 4 workers),
                                    optionally preloading a document;
                                    --threads sizes the reasoning pool
                                    (default: MAGIK_THREADS, else the
                                    machine's available parallelism);
                                    --data-dir makes the session durable:
                                    mutations are write-ahead logged to
                                    DIR (fsynced per --fsync, default
                                    `always`), checkpointed every N
                                    logged ops (default 1024, 0 disables),
                                    and recovered on restart
  replicate  --from HOST:PORT --data-dir DIR [--addr HOST:PORT]
             [--workers N] [--threads N] [--fsync always|never|interval[:MS]]
             [--checkpoint-every N] [--segment-bytes N]
                                    follow a primary's write-ahead log and
                                    serve its session read-only (default
                                    addr 127.0.0.1:7172): bootstrap from
                                    the primary's checkpoint if the local
                                    DIR is behind its retained log, replay
                                    shipped ops through normal recovery,
                                    and reconnect with backoff if the
                                    primary goes away; the `replication`
                                    request reports epoch lag
  recover    --data-dir DIR [--verify]
                                    report what crash recovery would use
                                    from DIR (checkpoint, WAL tail, torn
                                    bytes) without modifying it; with
                                    --verify, additionally replay the
                                    tail into a scratch engine and check
                                    every op re-derives its logged epochs

<file> may be `-` to read from stdin.";

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path)
    }
}

fn load(path: &str) -> Result<(Vocabulary, Document, String), ExitCode> {
    let src = match read_input(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("magik: cannot read `{path}`: {e}");
            return Err(ExitCode::from(1));
        }
    };
    let mut vocab = Vocabulary::new();
    match parse_document(&src, &mut vocab) {
        Ok(doc) => Ok((vocab, doc, src)),
        Err(e) => {
            eprintln!("magik: {path}:{e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Maps a statement index to a short, path-free source citation
/// (`line N`) through the parser's span table.
fn statement_location(doc: &Document, index: &LineIndex, statement: usize) -> Option<String> {
    doc.spans.statements.get(statement).map(|s| {
        let (line, _) = index.line_col(s.item.start);
        format!("line {line}")
    })
}

fn cmd_check(vocab: &Vocabulary, doc: &Document) {
    for q in &doc.queries {
        let complete = if doc.constraints.is_empty() {
            is_complete(q, &doc.tcs)
        } else {
            is_complete_under(q, &doc.tcs, &doc.constraints)
        };
        let verdict = if complete { "COMPLETE" } else { "INCOMPLETE" };
        println!("{verdict}: {}", q.display(vocab));
    }
}

/// `check --why`: proof-carrying verdicts. Emits a certificate per query
/// (witness for complete, counterexample + minimal repair for
/// incomplete), self-validates it with the independent `magik-cert`
/// checker, and renders it as text or JSON.
fn cmd_check_why(vocab: &Vocabulary, doc: &Document, src: &str, json: bool) {
    let index = LineIndex::new(src);
    if json {
        print!("{}", check_why_json(vocab, doc, &index));
        return;
    }
    let statements = cert_statements(&doc.tcs);
    for q in &doc.queries {
        let (cert, e) = certify_explained(q, &doc.tcs);
        let valid = check_certificate(q, &statements, &cert).is_ok();
        print!(
            "{}",
            render_explanation_with_locations(q, &doc.tcs, &e, vocab, |i| statement_location(
                doc, &index, i
            ))
        );
        if let Some(db) = &e.counterexample {
            print!("{}", render_counterexample(q, db, vocab));
        }
        if let Certificate::Incomplete {
            repair: Some(r), ..
        } = &cert
        {
            let adds: Vec<String> = r
                .additions
                .iter()
                .map(|a| {
                    TcStatement::new(a.clone(), vec![])
                        .display(vocab)
                        .to_string()
                })
                .collect();
            println!("  minimal repair: add {}", adds.join(", add "));
            println!("    (removing any one suggested statement leaves the query incomplete)");
        }
        println!(
            "  certificate: {}",
            if valid {
                "valid (checked by magik-cert)"
            } else {
                "INVALID"
            }
        );
        println!();
    }
}

/// Renders the `check --why` certificates as a JSON array, one object
/// per query.
fn check_why_json(vocab: &Vocabulary, doc: &Document, index: &LineIndex) -> String {
    use std::fmt::Write as _;
    let statements = cert_statements(&doc.tcs);
    let mut out = String::from("[");
    for (qi, q) in doc.queries.iter().enumerate() {
        if qi > 0 {
            out.push(',');
        }
        let (cert, e) = certify_explained(q, &doc.tcs);
        let valid = check_certificate(q, &statements, &cert).is_ok();
        let verdict = match &cert {
            Certificate::Complete(_) => "complete",
            Certificate::Incomplete { .. } => "incomplete",
        };
        let _ = write!(
            out,
            "\n  {{\"query\":\"{}\",\"verdict\":\"{verdict}\",\"certificate_valid\":{valid},\"atoms\":[",
            json_escape(&q.display(vocab).to_string())
        );
        for (ai, (atom, witness)) in e.atoms.iter().enumerate() {
            if ai > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"atom\":\"{}\"",
                json_escape(&atom.display(vocab).to_string())
            );
            match witness {
                Some(w) => {
                    let _ = write!(out, ",\"guaranteed\":true,\"statement\":{}", w.statement);
                    if let Some(loc) = statement_location(doc, index, w.statement) {
                        let _ = write!(out, ",\"location\":\"{}\"", json_escape(&loc));
                    }
                }
                None => out.push_str(",\"guaranteed\":false"),
            }
            out.push('}');
        }
        out.push(']');
        match &cert {
            Certificate::Complete(c) => {
                out.push_str(",\"witness\":[");
                for (i, (var, cst)) in c.theta.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"var\":\"{}\",\"value\":\"{}\"}}",
                        json_escape(&var.display(vocab).to_string()),
                        json_escape(&cst.display(vocab).to_string())
                    );
                }
                out.push(']');
            }
            Certificate::Incomplete {
                counterexample: ce,
                repair,
            } => {
                let facts = |fs: &mut dyn Iterator<Item = magik::Fact>| {
                    let rendered: Vec<String> = fs
                        .map(|f| {
                            format!(
                                "\"{}\"",
                                json_escape(
                                    &magik::relalg::unfreeze_fact(&f).display(vocab).to_string()
                                )
                            )
                        })
                        .collect();
                    rendered.join(",")
                };
                let ideal = magik::canonical_database(q);
                let _ = write!(
                    out,
                    ",\"counterexample\":{{\"ideal\":[{}],\"available\":[{}],\"lost\":\"{}\"}}",
                    facts(&mut ideal.iter_facts()),
                    facts(&mut ce.available.iter().cloned()),
                    json_escape(&ce.target.display(vocab).to_string())
                );
                if let Some(r) = repair {
                    out.push_str(",\"repair\":[");
                    for (i, a) in r.additions.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(
                            out,
                            "\"{}\"",
                            json_escape(
                                &TcStatement::new(a.clone(), vec![])
                                    .display(vocab)
                                    .to_string()
                            )
                        );
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

fn cmd_generalize(vocab: &Vocabulary, doc: &Document) {
    for q in &doc.queries {
        let result = if doc.constraints.is_empty() {
            mcg_with_stats(q, &doc.tcs).0
        } else {
            mcg_under(q, &doc.tcs, &doc.constraints)
        };
        match result {
            Some(m) if m.same_as(q) => {
                println!("already complete: {}", q.display(vocab));
            }
            Some(m) => {
                println!(
                    "MCG: {}   ({} of {} atoms kept)",
                    m.display(vocab),
                    m.size(),
                    q.size()
                );
            }
            None => {
                println!("no complete generalization: {}", q.display(vocab));
            }
        }
    }
}

fn cmd_specialize(vocab: &mut Vocabulary, doc: &Document, k: usize, naive: bool) {
    let engine = if naive {
        KMcsEngine::Naive
    } else {
        KMcsEngine::Optimized
    };
    for q in &doc.queries {
        println!("query: {}", q.display(vocab));
        let outcome = k_mcs(
            q,
            &doc.tcs,
            vocab,
            KMcsOptions {
                engine,
                ..KMcsOptions::new(k)
            },
        );
        if outcome.queries.is_empty() {
            println!(
                "  no complete specialization within {} atoms",
                q.size().saturating_add(k)
            );
        }
        for m in &outcome.queries {
            println!("  {k}-MCS: {}", m.display(vocab));
        }
        println!(
            "  [{} extensions, {} unification calls, {} candidates{}]",
            outcome.stats.extensions,
            outcome.stats.unify_calls,
            outcome.stats.candidates,
            if outcome.complete_search {
                ""
            } else {
                ", SEARCH TRUNCATED"
            }
        );
    }
}

fn cmd_eval(vocab: &Vocabulary, doc: &Document) {
    for q in &doc.queries {
        match answers(q, &doc.facts) {
            Ok(ans) => {
                println!("{} answers for {}", ans.len(), q.display(vocab));
                for tuple in ans {
                    println!("  {}", tuple.display(vocab));
                }
            }
            Err(e) => println!("cannot evaluate {}: {e}", q.display(vocab)),
        }
    }
}

fn cmd_bounds(vocab: &mut Vocabulary, doc: &Document, k: usize) {
    for q in &doc.queries {
        println!("query: {}", q.display(vocab));
        match classify_answers(q, &doc.tcs, &doc.facts) {
            Ok(report) => {
                println!("  certain answers ({}):", report.certain.len());
                for t in &report.certain {
                    println!("    {}", t.display(vocab));
                }
                match &report.possible {
                    Some(p) if report.exact => {
                        debug_assert!(p.is_empty());
                        println!("  query is complete: the certain answers are all answers");
                    }
                    Some(p) => {
                        println!("  possible further answers ({}):", p.len());
                        for t in p {
                            println!("    {}", t.display(vocab));
                        }
                    }
                    None => println!("  possible further answers: unbounded (no MCG)"),
                }
            }
            Err(e) => println!("  cannot evaluate: {e}"),
        }
        match count_bounds(q, &doc.tcs, &doc.facts) {
            Ok(b) => match b.upper {
                Some(u) if b.exact => println!("  ideal answer count: exactly {u}"),
                Some(u) => println!("  ideal answer count: between {} and {u}", b.lower),
                None => println!("  ideal answer count: at least {}", b.lower),
            },
            Err(e) => println!("  cannot bound: {e}"),
        }
        match publishable_counts(q, &doc.tcs, vocab, &doc.facts, k) {
            Ok(rows) if rows.is_empty() => {
                println!(
                    "  no publishable partial statistics within {} atoms",
                    q.size().saturating_add(k)
                );
            }
            Ok(rows) => {
                println!("  publishable partial statistics (k = {k}):");
                for row in rows {
                    println!("    |{}| = {}", row.query.display(vocab), row.count);
                }
            }
            Err(e) => println!("  cannot specialize: {e}"),
        }
    }
}

fn cmd_why(vocab: &Vocabulary, doc: &Document, src: &str) {
    let index = LineIndex::new(src);
    for q in &doc.queries {
        let e = explain_check(q, &doc.tcs);
        print!(
            "{}",
            render_explanation_with_locations(q, &doc.tcs, &e, vocab, |i| statement_location(
                doc, &index, i
            ))
        );
        if let Some(db) = &e.counterexample {
            print!("{}", render_counterexample(q, db, vocab));
        }
        println!();
    }
}

fn cmd_explain(vocab: &Vocabulary, doc: &Document) {
    println!("{} statement(s):", doc.tcs.len());
    for c in doc.tcs.statements() {
        println!("  {}", c.display(vocab));
    }
    if !doc.constraints.is_empty() {
        println!(
            "{} finite-domain constraint(s), {} key(s):",
            doc.constraints.domains().len(),
            doc.constraints.keys().len()
        );
        for d in doc.constraints.domains() {
            println!("  {}", d.display(vocab));
        }
        for k in doc.constraints.keys() {
            println!("  {}", k.display(vocab));
        }
        if let Err(v2) = doc.constraints.check_instance(&doc.facts) {
            println!(
                "  WARNING: fact violates domain (column {} of a {} fact)",
                v2.column,
                vocab.pred_name(v2.fact.pred)
            );
        }
        for k in doc.constraints.keys() {
            if let Err(v2) = k.check_instance(&doc.facts) {
                println!(
                    "  WARNING: facts violate {} ({} vs {})",
                    k.display(vocab),
                    v2.facts.0.display(vocab),
                    v2.facts.1.display(vocab)
                );
            }
        }
    }
    let sigma: Vec<&str> = doc
        .tcs
        .signature()
        .into_iter()
        .map(|p| vocab.pred_name(p))
        .collect();
    println!("signature: {{{}}}", sigma.join(", "));
    println!(
        "dependency graph: {}",
        if doc.tcs.is_acyclic() {
            "acyclic (MCSs have bounded size)"
        } else {
            "cyclic (maximal complete specializations may not exist; use bounded k-MCS)"
        }
    );
    for q in &doc.queries {
        match doc.tcs.mcs_size_bound(q) {
            Some(bound) => println!(
                "MCS size bound for {}: {bound} atoms (Theorem 18)",
                q.display(vocab)
            ),
            None => println!("MCS size bound for {}: none", q.display(vocab)),
        }
    }
    let lints = lint(&doc.tcs);
    if !lints.is_empty() {
        println!("{} lint(s):", lints.len());
        for l in &lints {
            println!("  {}", l.render(&doc.tcs, vocab));
        }
    }
}

/// Treats the document's facts as the *ideal* state, derives the minimal
/// available state the statements allow (`T_C`, Proposition 2), and
/// reports what each query would lose.
fn cmd_simulate(vocab: &Vocabulary, doc: &Document) {
    let ideal = doc.facts.clone();
    let available = tc_apply(&doc.tcs, &ideal);
    println!(
        "ideal state: {} facts; minimal guaranteed available state: {} facts",
        ideal.len(),
        available.len()
    );
    let db = IncompleteDatabase::new(ideal, available).expect("T_C(D) is a subset of D");
    for q in &doc.queries {
        match (answers(q, db.ideal()), answers(q, db.available())) {
            (Ok(ideal_ans), Ok(avail_ans)) => {
                let lost: Vec<_> = ideal_ans.difference(&avail_ans).collect();
                println!(
                    "{}: {} ideal answer(s), {} guaranteed, {} at risk",
                    q.display(vocab),
                    ideal_ans.len(),
                    avail_ans.len(),
                    lost.len()
                );
                for t in lost {
                    println!("  at risk: {}", t.display(vocab));
                }
            }
            (Err(e), _) | (_, Err(e)) => println!("cannot evaluate {}: {e}", q.display(vocab)),
        }
    }
}

/// Output format of `magik analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnalyzeFormat {
    Text,
    Json,
    Sarif,
}

/// Recursively collects `*.magik` files under `dir`, sorted by path so
/// runs are deterministic.
fn collect_magik_files(dir: &std::path::Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_magik_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "magik") {
            out.push(p.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// `magik analyze <file|dir>... [--format text|json|sarif] [--deny LEVEL]
/// [--fix] [--baseline F] [--write-baseline F] [--explain M0xx]` — run
/// the static analyzer over every input (directories recurse into
/// `*.magik`) and render one report with one aggregated exit code:
/// 0 clean (below the deny level everywhere), 1 usage/read error,
/// 2 parse error, 3 diagnostics at or above the deny level; the worst
/// code across all inputs wins. `--fix` applies the machine-applicable
/// suggestions in place and re-analyzes the result.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut format = AnalyzeFormat::Text;
    let mut deny = Severity::Error;
    let mut fix = false;
    let mut baseline_path: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut rest = args.iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--format" => match rest.next().map(String::as_str) {
                Some("text") => format = AnalyzeFormat::Text,
                Some("json") => format = AnalyzeFormat::Json,
                Some("sarif") => format = AnalyzeFormat::Sarif,
                _ => {
                    eprintln!("magik: --format requires `text`, `json` or `sarif`");
                    return ExitCode::from(1);
                }
            },
            "--deny" => match rest.next().and_then(|v| Severity::parse(v)) {
                Some(level) => deny = level,
                None => {
                    eprintln!("magik: --deny requires `infos`, `warnings` or `errors`");
                    return ExitCode::from(1);
                }
            },
            "--fix" => fix = true,
            "--baseline" => match rest.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("magik: --baseline requires a file path");
                    return ExitCode::from(1);
                }
            },
            "--write-baseline" => match rest.next() {
                Some(p) => write_baseline = Some(p.clone()),
                None => {
                    eprintln!("magik: --write-baseline requires a file path");
                    return ExitCode::from(1);
                }
            },
            "--explain" => {
                return match rest.next().and_then(|v| Code::parse(v)) {
                    Some(code) => {
                        match explain_code(code) {
                            Some(entry) => print!("{entry}"),
                            None => println!("{}: {}", code.as_str(), code.title()),
                        }
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("magik: --explain requires a diagnostic code (M001–M024)");
                        ExitCode::from(1)
                    }
                };
            }
            other if other == "-" || !other.starts_with('-') => {
                inputs.push(other.to_string());
            }
            other => {
                eprintln!("magik: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(1);
            }
        }
    }
    if inputs.is_empty() {
        eprintln!("magik: missing <file>\n{USAGE}");
        return ExitCode::from(1);
    }
    if fix && inputs.iter().any(|p| p == "-") {
        eprintln!("magik: --fix requires file paths, not stdin");
        return ExitCode::from(1);
    }
    // Expand directories into their `*.magik` files, in CLI order.
    let mut files: Vec<String> = Vec::new();
    for input in &inputs {
        if input != "-" && std::path::Path::new(input).is_dir() {
            if let Err(e) = collect_magik_files(std::path::Path::new(input), &mut files) {
                eprintln!("magik: cannot read directory `{input}`: {e}");
                return ExitCode::from(1);
            }
        } else {
            files.push(input.clone());
        }
    }
    let baseline = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p).map_err(|e| e.to_string()) {
            Ok(text) => match Baseline::from_json(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("magik: cannot parse baseline `{p}`: {e}");
                    return ExitCode::from(1);
                }
            },
            Err(e) => {
                eprintln!("magik: cannot read baseline `{p}`: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let mut recorded = Baseline::new();
    let mut exit: u8 = 0;
    // (path, source, kept diagnostics) per analyzed file; SARIF renders
    // them as one run at the end.
    let mut analyzed: Vec<(String, String, Vec<Diagnostic>)> = Vec::new();
    for path in &files {
        let mut src = match read_input(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("magik: cannot read `{path}`: {e}");
                exit = exit.max(1);
                continue;
            }
        };
        if fix {
            match fix_source(&src) {
                Ok(report) => {
                    if report.applied > 0 {
                        if let Err(e) = std::fs::write(path, &report.text) {
                            eprintln!("magik: cannot write fixed `{path}`: {e}");
                            exit = exit.max(1);
                            continue;
                        }
                        eprintln!(
                            "magik: {path}: applied {} fix(es) in {} round(s)",
                            report.applied, report.rounds
                        );
                        src = report.text;
                    }
                }
                Err(e) => {
                    eprintln!("magik: {path}:{e}");
                    exit = exit.max(2);
                    continue;
                }
            }
        }
        let mut vocab = Vocabulary::new();
        let doc = match parse_document(&src, &mut vocab) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("magik: {path}:{e}");
                exit = exit.max(2);
                continue;
            }
        };
        let diags = analyze_document(&doc, &mut vocab);
        let directives = allow_directives(&doc.spans.comments);
        let index = magik::parser::LineIndex::new(&src);
        let (kept, suppressed) = filter_suppressed(diags, &directives, &index);
        let (kept, baselined) = match &baseline {
            Some(b) => b.filter(path, kept),
            None => (kept, Vec::new()),
        };
        if write_baseline.is_some() {
            recorded.record(path, &kept);
        }
        match format {
            AnalyzeFormat::Text => {
                let source = SourceFile::new(path, &src);
                print!("{}", render_report(&kept, Some(&source)));
                if !suppressed.is_empty() {
                    println!("{path}: {} suppressed", suppressed.len());
                }
                if !baselined.is_empty() {
                    println!("{path}: {} baselined", baselined.len());
                }
            }
            AnalyzeFormat::Json => {
                let source = SourceFile::new(path, &src);
                println!("{}", render_json(&kept, Some(&source)));
            }
            AnalyzeFormat::Sarif => {}
        }
        if kept.iter().any(|d| d.severity >= deny) {
            exit = exit.max(3);
        }
        analyzed.push((path.clone(), src, kept));
    }
    if format == AnalyzeFormat::Sarif {
        let sources: Vec<SourceFile> = analyzed
            .iter()
            .map(|(path, src, _)| SourceFile::new(path, src))
            .collect();
        let entries: Vec<SarifFile> = analyzed
            .iter()
            .zip(&sources)
            .map(|((path, _, kept), source)| SarifFile {
                name: path,
                source: Some(source),
                diags: kept,
            })
            .collect();
        print!("{}", render_sarif(&entries, env!("CARGO_PKG_VERSION")));
    }
    if let Some(p) = &write_baseline {
        if let Err(e) = std::fs::write(p, recorded.to_json()) {
            eprintln!("magik: cannot write baseline `{p}`: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "magik: wrote baseline `{p}` with {} finding(s)",
            recorded.len()
        );
    }
    ExitCode::from(exit)
}

/// `magik explain-plan <file> [--format text|json]` — compile each query
/// against the document's `fact` items, execute it, and render the
/// chosen plan (atom order, access paths, estimates) together with the
/// runtime counters from that execution. Queries the planner rejects
/// (unsafe heads) are reported without aborting the run. JSON output is
/// one array with a plan object (see `magik-exec`) or an
/// `{"query":…,"error":…}` object per query.
fn cmd_explain_plan(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut file = None;
    let mut rest = args.iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--format" => match rest.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => {
                    eprintln!("magik: --format requires `text` or `json`");
                    return ExitCode::from(1);
                }
            },
            other if other == "-" || (!other.starts_with('-') && file.is_none()) => {
                file = Some(other.to_string());
            }
            other => {
                eprintln!("magik: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(1);
            }
        }
    }
    let Some(path) = file else {
        eprintln!("magik: missing <file>\n{USAGE}");
        return ExitCode::from(1);
    };
    let (vocab, doc, _) = match load(&path) {
        Ok(x) => x,
        Err(code) => return code,
    };
    let mut objects = Vec::new();
    for (i, q) in doc.queries.iter().enumerate() {
        match CompiledQuery::compile(q, Some(&doc.facts)) {
            Ok(cq) => {
                let mut stats = ExecStats::default();
                cq.answers(&doc.facts, &mut stats);
                if json {
                    objects.push(explain_json(&cq, Some(&stats), &vocab));
                } else {
                    if i > 0 {
                        println!();
                    }
                    print!("{}", explain_text(&cq, Some(&stats), &vocab));
                }
            }
            Err(e) => {
                if json {
                    objects.push(format!(
                        r#"{{"query":"{}","error":"{}"}}"#,
                        json_escape(&q.display(&vocab).to_string()),
                        json_escape(&e.to_string())
                    ));
                } else {
                    if i > 0 {
                        println!();
                    }
                    println!("cannot plan {}: {e}", q.display(&vocab));
                }
            }
        }
    }
    if json {
        println!("[{}]", objects.join(","));
    }
    ExitCode::SUCCESS
}

/// Feeds a parsed document's statements and facts through the engine's
/// normal request path (so in durable mode each item is write-ahead
/// logged like live traffic). Returns the number of items refused.
fn preload_document(engine: &Engine, vocab: &Vocabulary, doc: &Document) -> usize {
    let mut refused = 0;
    for stmt in doc.tcs.statements() {
        let line = format!("{}.", stmt.display(vocab));
        let reply = engine.handle(&line);
        if !reply.starts_with("ok") {
            eprintln!("magik: preload refused `{line}`: {reply}");
            refused += 1;
        }
    }
    for fact in doc.facts.iter_facts() {
        let line = format!("assert {}.", fact.display(vocab));
        let reply = engine.handle(&line);
        if !reply.starts_with("ok") {
            eprintln!("magik: preload refused `{line}`: {reply}");
            refused += 1;
        }
    }
    refused
}

/// Prints the one-line recovery banner for a durable open.
fn print_recovery(dir: &str, report: &RecoveryReport) {
    println!(
        "magik: recovered `{dir}`: epochs (tcs={}, data={}), {} from checkpoint, \
         {} op(s) replayed{}{}",
        report.tcs_epoch,
        report.data_epoch,
        if report.from_checkpoint {
            "seeded"
        } else {
            "not seeded"
        },
        report.replayed_ops,
        if report.discarded_bytes > 0 {
            format!(", {} torn byte(s) discarded", report.discarded_bytes)
        } else {
            String::new()
        },
        if report.checkpoints_skipped > 0 {
            format!(
                ", {} corrupt checkpoint generation(s) skipped",
                report.checkpoints_skipped
            )
        } else {
            String::new()
        },
    );
}

/// The flags `serve` and `replicate` share, with their defaults.
struct ServeFlags {
    addr: String,
    workers: usize,
    threads: usize,
    data_dir: Option<String>,
    durability: DurabilityOptions,
}

/// Parses `args` for `serve` or `replicate`: the shared flags, then
/// `extra` for the command's own arguments (it returns whether it took
/// `opt`, or the exit code of a bad value). `addr` is the command's
/// default address. `--threads` defaults to the `MAGIK_THREADS`
/// environment variable, and failing that to the machine's available
/// parallelism.
fn parse_serve_flags(
    args: &[String],
    addr: &str,
    mut extra: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, ExitCode>,
) -> Result<ServeFlags, ExitCode> {
    let mut flags = ServeFlags {
        addr: addr.to_string(),
        workers: 4,
        threads: std::env::var("MAGIK_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(magik::available_parallelism),
        data_dir: None,
        durability: DurabilityOptions::default(),
    };
    let fail = |msg: &str| {
        eprintln!("magik: {msg}");
        ExitCode::from(1)
    };
    let mut rest = args.iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--addr" => match rest.next() {
                Some(a) => flags.addr = a.clone(),
                None => return Err(fail("--addr requires HOST:PORT")),
            },
            "--workers" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => flags.workers = n,
                _ => return Err(fail("--workers requires a positive integer")),
            },
            "--threads" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => flags.threads = n,
                _ => return Err(fail("--threads requires a positive integer")),
            },
            "--data-dir" => match rest.next() {
                Some(d) => flags.data_dir = Some(d.clone()),
                None => return Err(fail("--data-dir requires a directory path")),
            },
            "--fsync" => match rest.next().and_then(|v| FsyncPolicy::parse(v)) {
                Some(policy) => flags.durability.fsync = policy,
                None => {
                    return Err(fail(
                        "--fsync requires `always`, `never` or `interval[:MILLIS]`",
                    ))
                }
            },
            "--checkpoint-every" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.durability.checkpoint_every = n,
                None => return Err(fail("--checkpoint-every requires a non-negative integer")),
            },
            "--segment-bytes" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => flags.durability.segment_bytes = n,
                _ => return Err(fail("--segment-bytes requires a positive integer")),
            },
            other => {
                if !extra(other, &mut rest)? {
                    return Err(fail(&format!("unknown option `{other}`\n{USAGE}")));
                }
            }
        }
    }
    Ok(flags)
}

/// `magik serve [--addr HOST:PORT] [--workers N] [--threads N]
/// [--data-dir DIR] [--fsync MODE] [--checkpoint-every N]
/// [--segment-bytes N] [file]` — run the TCP completeness service (see
/// `magik-server`), optionally preloading the TCS and facts of a
/// document. Blocks until killed.
///
/// `--workers` sizes the connection pool (one handler per live
/// connection); `--threads` sizes the *reasoning* pool the engine fans
/// parallel work out over (see [`parse_serve_flags`] for its default).
/// `--threads 1` reasons sequentially.
///
/// `--data-dir` turns on the durability layer: the directory is
/// recovered (checkpoint + verified WAL replay) before serving, and
/// every accepted mutation is logged before it is applied. A preload
/// file is only applied to a *virgin* directory — recovered state wins
/// over the file otherwise.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut file = None;
    let ServeFlags {
        addr,
        workers,
        threads,
        data_dir,
        durability,
    } = match parse_serve_flags(args, "127.0.0.1:7171", |opt, _| {
        let take = !opt.starts_with('-') && file.is_none();
        if take {
            file = Some(opt.to_string());
        }
        Ok(take)
    }) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let exec = magik::Executor::with_threads(threads);
    let preload = match &file {
        Some(path) => {
            let (vocab, doc, _) = match load(path) {
                Ok(x) => x,
                Err(code) => return code,
            };
            if !doc.queries.is_empty() {
                eprintln!(
                    "magik: note: `query` items in `{path}` are ignored by serve; \
                     send them as `check`/`eval` requests"
                );
            }
            Some((vocab, doc))
        }
        None => None,
    };
    let engine = match &data_dir {
        Some(dir) => {
            let (engine, report) =
                match Engine::open_durable(std::path::Path::new(dir), durability, exec) {
                    Ok(x) => x,
                    Err(e) => {
                        eprintln!("magik: cannot open data dir `{dir}`: {e}");
                        return ExitCode::from(2);
                    }
                };
            print_recovery(dir, &report);
            if let Some((vocab, doc)) = &preload {
                let virgin = !report.from_checkpoint
                    && report.replayed_ops == 0
                    && (report.tcs_epoch, report.data_epoch) == (0, 0);
                if virgin {
                    preload_document(&engine, vocab, doc);
                } else {
                    eprintln!(
                        "magik: note: `{dir}` already holds recovered state; \
                         the preload file is ignored"
                    );
                }
            }
            engine
        }
        None => match preload {
            Some((vocab, doc)) => Engine::with_session_on(vocab, doc.tcs, doc.facts, exec),
            None => Engine::with_session_on(
                Vocabulary::new(),
                magik::TcSet::new(Vec::new()),
                magik::Instance::new(),
                exec,
            ),
        },
    };
    let server = match Server::start(std::sync::Arc::new(engine), addr.as_str(), workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("magik: cannot bind `{addr}`: {e}");
            return ExitCode::from(1);
        }
    };
    let bound = server.local_addr();
    println!(
        "magik: serving on {bound} with {workers} workers and {threads} reasoning \
         threads (try `nc {} {}` then `ping`)",
        bound.ip(),
        bound.port()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `magik replicate --from HOST:PORT --data-dir DIR [--addr HOST:PORT]
/// [--workers N] [--threads N] [--fsync MODE] [--checkpoint-every N]
/// [--segment-bytes N]` — run a read-only replica of a primary started
/// with `magik serve --data-dir`. Blocks until killed.
///
/// Before serving, the replica compares its local position with the
/// primary: if the primary's retained WAL no longer covers that
/// position, the primary's newest checkpoint is downloaded and installed
/// first (`initial sync`). The local directory is then opened as a
/// replica engine, recovered through the exact same code path as a
/// primary restart, and a follower thread streams the primary's WAL,
/// applying each op and verifying it re-derives the epochs the primary
/// logged. The replica engine refuses mutations over the wire with
/// `err readonly …`; its `replication` request reports connection state
/// and epoch lag.
fn cmd_replicate(args: &[String]) -> ExitCode {
    let mut from: Option<String> = None;
    let ServeFlags {
        addr,
        workers,
        threads,
        data_dir,
        durability,
    } = match parse_serve_flags(args, "127.0.0.1:7172", |opt, rest| {
        if opt != "--from" {
            return Ok(false);
        }
        match rest.next() {
            Some(a) => from = Some(a.clone()),
            None => {
                eprintln!("magik: --from requires HOST:PORT");
                return Err(ExitCode::from(1));
            }
        }
        Ok(true)
    }) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let Some(from) = from else {
        eprintln!("magik: replicate requires --from HOST:PORT\n{USAGE}");
        return ExitCode::from(1);
    };
    let Some(dir) = data_dir else {
        eprintln!("magik: replicate requires --data-dir DIR (replicas replay through the same durable recovery path as a primary)\n{USAGE}");
        return ExitCode::from(1);
    };
    // Bootstrap: if the primary's retained log no longer reaches our
    // position, install its newest checkpoint before opening.
    match initial_sync(&from, std::path::Path::new(&dir)) {
        Ok(Some((te, de))) => {
            println!("magik: installed checkpoint (tcs={te}, data={de}) from {from}");
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("magik: initial sync with `{from}` failed: {e}");
            return ExitCode::from(2);
        }
    }
    let exec = magik::Executor::with_threads(threads);
    let (engine, report) = match Engine::open_replica(std::path::Path::new(&dir), durability, exec)
    {
        Ok(x) => x,
        Err(e) => {
            eprintln!("magik: cannot open data dir `{dir}`: {e}");
            return ExitCode::from(2);
        }
    };
    print_recovery(&dir, &report);
    let engine = std::sync::Arc::new(engine);
    let server = match Server::start(std::sync::Arc::clone(&engine), addr.as_str(), workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("magik: cannot bind `{addr}`: {e}");
            return ExitCode::from(1);
        }
    };
    let bound = server.local_addr();
    {
        let primary = from.clone();
        // Never raised: the replica runs until killed.
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::spawn(move || run_replica(&engine, &primary, &stop));
    }
    println!(
        "magik: replica of {from} serving read-only on {bound} with {workers} workers and \
         {threads} reasoning threads (try `nc {} {}` then `replication`)",
        bound.ip(),
        bound.port()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `magik recover --data-dir DIR [--verify]` — inspect a durable data
/// directory without modifying it: report the checkpoint recovery would
/// seed from, the WAL tail it would replay, and any torn bytes it would
/// discard. With `--verify`, additionally replay the tail into a scratch
/// engine and confirm every op re-derives exactly its logged epochs.
/// Exit codes: 0 recoverable, 1 usage error, 2 corrupt/unreadable.
fn cmd_recover(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut verify = false;
    let mut rest = args.iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--data-dir" => match rest.next() {
                Some(d) => dir = Some(d.clone()),
                None => {
                    eprintln!("magik: --data-dir requires a directory path");
                    return ExitCode::from(1);
                }
            },
            "--verify" => verify = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("magik: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(1);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("magik: recover requires --data-dir DIR\n{USAGE}");
        return ExitCode::from(1);
    };
    let path = std::path::Path::new(&dir);
    let recovery = match magik::storage::Store::peek(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("magik: `{dir}` is not recoverable: {e}");
            return ExitCode::from(2);
        }
    };
    match &recovery.checkpoint {
        Some(image) => println!(
            "checkpoint: epochs (tcs={}, data={}), {} fact(s), {} statement(s)",
            image.tcs_epoch,
            image.data_epoch,
            image.db.len(),
            image.tcs.len()
        ),
        None => println!("checkpoint: none (replay starts from an empty session)"),
    }
    if recovery.checkpoints_skipped > 0 {
        println!(
            "corrupt checkpoint generation(s) skipped: {}",
            recovery.checkpoints_skipped
        );
    }
    let (te, de) = recovery.final_epochs();
    println!(
        "wal tail: {} op(s) to replay over {} segment(s), reaching epochs (tcs={te}, data={de})",
        recovery.replayed_ops(),
        recovery.segments_scanned
    );
    if recovery.discarded_bytes > 0 {
        println!("torn tail: {} byte(s) discarded", recovery.discarded_bytes);
    }
    if verify {
        match Engine::verify_recovery(path, magik::Executor::Sequential) {
            Ok(report) => println!(
                "verify: OK — replay of {} op(s) reaches epochs (tcs={}, data={})",
                report.replayed_ops, report.tcs_epoch, report.data_epoch
            ),
            Err(e) => {
                eprintln!("magik: `{dir}` fails replay verification: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    if command == "analyze" {
        return cmd_analyze(&args[1..]);
    }
    if command == "explain-plan" {
        return cmd_explain_plan(&args[1..]);
    }
    if command == "serve" {
        return cmd_serve(&args[1..]);
    }
    if command == "replicate" {
        return cmd_replicate(&args[1..]);
    }
    if command == "recover" {
        return cmd_recover(&args[1..]);
    }
    if command == "repl" {
        let mut session = repl::Repl::new();
        let stdin = std::io::stdin();
        let mut input = stdin.lock();
        let stdout = std::io::stdout();
        let mut output = stdout.lock();
        if let Some(path) = args.get(1) {
            if session.load_file(path, &mut output).is_err() {
                return ExitCode::from(1);
            }
        }
        return match session.run(&mut input, &mut output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::from(1),
        };
    }
    let Some(path) = args.get(1) else {
        eprintln!("magik: missing <file>\n{USAGE}");
        return ExitCode::from(1);
    };

    // Options (`specialize`/`bounds` take -k; `check` takes --why).
    let mut k = 0usize;
    let mut naive = false;
    let mut why = false;
    let mut why_json = false;
    let mut rest = args[2..].iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "-k" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(v) => k = v,
                None => {
                    eprintln!("magik: -k requires a non-negative integer");
                    return ExitCode::from(1);
                }
            },
            "--naive" => naive = true,
            "--why" if command == "check" => why = true,
            "--format" if command == "check" => match rest.next().map(String::as_str) {
                Some("text") => why_json = false,
                Some("json") => why_json = true,
                _ => {
                    eprintln!("magik: --format requires `text` or `json`");
                    return ExitCode::from(1);
                }
            },
            other => {
                eprintln!("magik: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(1);
            }
        }
    }

    let (mut vocab, doc, src) = match load(path) {
        Ok(x) => x,
        Err(code) => return code,
    };
    match command.as_str() {
        "check" if why => cmd_check_why(&vocab, &doc, &src, why_json),
        "check" => cmd_check(&vocab, &doc),
        "generalize" => cmd_generalize(&vocab, &doc),
        "specialize" => cmd_specialize(&mut vocab, &doc, k, naive),
        "eval" => cmd_eval(&vocab, &doc),
        "bounds" => cmd_bounds(&mut vocab, &doc, k),
        "why" => cmd_why(&vocab, &doc, &src),
        "explain" => cmd_explain(&vocab, &doc),
        "simulate" => cmd_simulate(&vocab, &doc),
        other => {
            eprintln!("magik: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
