//! An interactive session: build up statements, facts and constraints,
//! and ask completeness questions about ad-hoc queries.

use std::io::{BufRead, Write};

use magik::{
    answers, count_bounds, explain_check, is_complete, is_complete_under, k_mcs, mcg, mcg_under,
    parse_document, parse_query, print_document, render_counterexample, render_explanation,
    DisplayWith, Document, KMcsOptions, Query, Vocabulary,
};

const REPL_HELP: &str = "commands:
  compl <atom> ; <cond>.        add a table-completeness statement
  fact <atom>.                  add a ground fact
  domain <pattern> in {..}.     add a finite-domain constraint
  query <q>.                    add a named query to the session
  load <file>                   load a document file into the session
  show                          print the session document
  check <q>.                    is the query complete?
  mcg <q>.                      minimal complete generalization
  mcs [k] <q>.                  k-MCSs (default k = 0)
  why <q>.                      per-atom explanation (+ counterexample)
  eval <q>.                     evaluate over the session facts
  bounds <q>.                   certain count bounds over the facts
  clear                         drop all session state
  help                          this text
  quit                          leave";

/// The interactive session state.
pub struct Repl {
    vocab: Vocabulary,
    doc: Document,
}

impl Repl {
    /// Creates an empty session.
    pub fn new() -> Self {
        Repl {
            vocab: Vocabulary::new(),
            doc: Document::default(),
        }
    }

    /// Loads a document file into the session (the `load` command).
    pub fn load_file(&mut self, path: &str, out: &mut dyn Write) -> std::io::Result<()> {
        self.dispatch(&format!("load {path}"), out).map(|_| ())
    }

    /// Runs the loop until EOF or `quit`, reading from `input` and writing
    /// to `output`.
    pub fn run(&mut self, input: &mut dyn BufRead, output: &mut dyn Write) -> std::io::Result<()> {
        let mut line = String::new();
        loop {
            write!(output, "magik> ")?;
            output.flush()?;
            line.clear();
            if input.read_line(&mut line)? == 0 {
                writeln!(output)?;
                return Ok(());
            }
            let line = line.trim();
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            match self.dispatch(line, output)? {
                Flow::Continue => {}
                Flow::Quit => return Ok(()),
            }
        }
    }

    fn parse_inline_query(&mut self, src: &str) -> Result<Query, String> {
        parse_query(src, &mut self.vocab).map_err(|e| e.to_string())
    }

    fn dispatch(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<Flow> {
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match cmd {
            "quit" | "exit" => return Ok(Flow::Quit),
            "help" => writeln!(out, "{REPL_HELP}")?,
            "clear" => {
                self.doc = Document::default();
                writeln!(out, "session cleared")?;
            }
            "show" => write!(out, "{}", print_document(&self.doc, &self.vocab))?,
            "load" => match std::fs::read_to_string(rest) {
                Ok(src) => match parse_document(&src, &mut self.vocab) {
                    Ok(loaded) => {
                        let (nq, nc, nf, nd) = (
                            loaded.queries.len(),
                            loaded.tcs.len(),
                            loaded.facts.len(),
                            loaded.constraints.domains().len(),
                        );
                        self.doc.queries.extend(loaded.queries);
                        for c in loaded.tcs.statements() {
                            self.doc.tcs.push(c.clone());
                        }
                        self.doc.facts.extend_from(&loaded.facts);
                        for d in loaded.constraints.domains() {
                            self.doc.constraints.push(d.clone());
                        }
                        writeln!(
                            out,
                            "loaded {nq} queries, {nc} statements, {nf} facts, {nd} constraints"
                        )?;
                    }
                    Err(e) => writeln!(out, "error: {e}")?,
                },
                Err(e) => writeln!(out, "error: cannot read `{rest}`: {e}")?,
            },
            "compl" | "fact" | "domain" | "query" => match parse_document(line, &mut self.vocab) {
                Ok(item) => {
                    self.doc.queries.extend(item.queries);
                    for c in item.tcs.statements() {
                        self.doc.tcs.push(c.clone());
                    }
                    self.doc.facts.extend_from(&item.facts);
                    for d in item.constraints.domains() {
                        self.doc.constraints.push(d.clone());
                    }
                    writeln!(out, "ok")?;
                }
                Err(e) => writeln!(out, "error: {e}")?,
            },
            "check" => match self.parse_inline_query(rest) {
                Ok(q) => {
                    let complete = if self.doc.constraints.is_empty() {
                        is_complete(&q, &self.doc.tcs)
                    } else {
                        is_complete_under(&q, &self.doc.tcs, &self.doc.constraints)
                    };
                    writeln!(out, "{}", if complete { "COMPLETE" } else { "INCOMPLETE" })?;
                }
                Err(e) => writeln!(out, "error: {e}")?,
            },
            "mcg" => match self.parse_inline_query(rest) {
                Ok(q) => {
                    let m = if self.doc.constraints.is_empty() {
                        mcg(&q, &self.doc.tcs)
                    } else {
                        mcg_under(&q, &self.doc.tcs, &self.doc.constraints)
                    };
                    match m {
                        Some(m) => writeln!(out, "{}", m.display(&self.vocab))?,
                        None => writeln!(out, "no complete generalization")?,
                    }
                }
                Err(e) => writeln!(out, "error: {e}")?,
            },
            "mcs" => {
                // Optional leading k.
                let (k, qsrc) = match rest.split_once(char::is_whitespace) {
                    Some((first, tail)) => match first.parse::<usize>() {
                        Ok(k) => (k, tail.trim()),
                        Err(_) => (0, rest),
                    },
                    None => (0, rest),
                };
                match self.parse_inline_query(qsrc) {
                    Ok(q) => {
                        let outcome =
                            k_mcs(&q, &self.doc.tcs, &mut self.vocab, KMcsOptions::new(k));
                        if outcome.queries.is_empty() {
                            writeln!(
                                out,
                                "no complete specialization within {} atoms",
                                q.size().saturating_add(k)
                            )?;
                        }
                        for m in &outcome.queries {
                            writeln!(out, "{}", m.display(&self.vocab))?;
                        }
                    }
                    Err(e) => writeln!(out, "error: {e}")?,
                }
            }
            "why" => match self.parse_inline_query(rest) {
                Ok(q) => {
                    let e = explain_check(&q, &self.doc.tcs);
                    write!(
                        out,
                        "{}",
                        render_explanation(&q, &self.doc.tcs, &e, &self.vocab)
                    )?;
                    if let Some(db) = &e.counterexample {
                        write!(out, "{}", render_counterexample(&q, db, &self.vocab))?;
                    }
                }
                Err(e) => writeln!(out, "error: {e}")?,
            },
            "eval" => match self.parse_inline_query(rest) {
                Ok(q) => match answers(&q, &self.doc.facts) {
                    Ok(ans) => {
                        for t in &ans {
                            writeln!(out, "{}", t.display(&self.vocab))?;
                        }
                        writeln!(out, "{} answer(s)", ans.len())?;
                    }
                    Err(e) => writeln!(out, "error: {e}")?,
                },
                Err(e) => writeln!(out, "error: {e}")?,
            },
            "bounds" => match self.parse_inline_query(rest) {
                Ok(q) => match count_bounds(&q, &self.doc.tcs, &self.doc.facts) {
                    Ok(b) => match b.upper {
                        Some(u) if b.exact => writeln!(out, "ideal count: exactly {u}")?,
                        Some(u) => writeln!(out, "ideal count: between {} and {u}", b.lower)?,
                        None => writeln!(out, "ideal count: at least {}", b.lower)?,
                    },
                    Err(e) => writeln!(out, "error: {e}")?,
                },
                Err(e) => writeln!(out, "error: {e}")?,
            },
            other => writeln!(out, "unknown command `{other}` (try `help`)")?,
        }
        Ok(Flow::Continue)
    }
}

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

enum Flow {
    Continue,
    Quit,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_script(script: &str) -> String {
        let mut repl = Repl::new();
        let mut input = std::io::BufReader::new(script.as_bytes());
        let mut output = Vec::new();
        repl.run(&mut input, &mut output).unwrap();
        String::from_utf8(output).unwrap()
    }

    #[test]
    fn session_builds_statements_and_checks() {
        let out = run_script(
            "compl school(S, primary, D) ; true.
             compl pupil(N, C, S) ; school(S, T, merano).
             check q(N) :- pupil(N, C, S), school(S, primary, merano).
             check q(N) :- pupil(N, C, S), school(S, primary, bolzano).
             quit",
        );
        assert!(out.contains("COMPLETE"));
        assert!(out.contains("INCOMPLETE"));
    }

    #[test]
    fn session_mcg_and_mcs() {
        let out = run_script(
            "compl school(S, primary, D) ; true.
             compl pupil(N, C, S) ; school(S, T, merano).
             compl learns(N, english) ; pupil(N, C, S), school(S, primary, D).
             mcg q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).
             mcs q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).
             quit",
        );
        assert!(out.contains("q(N) :- pupil(N, C, S), school(S, primary, merano)\n"));
        assert!(out.contains("learns(N, english)"));
    }

    #[test]
    fn mcs_with_the_largest_k_prints_a_saturated_atom_bound() {
        // No statements, so the search returns at once at any k; a
        // deadline, since walking every size up to |Q| + k never returned.
        let (tx, rx) = std::sync::mpsc::channel();
        let session = std::thread::spawn(move || {
            let _ = tx.send(run_script(&format!(
                "mcs {} q(X) :- p(X).\nquit",
                usize::MAX
            )));
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the session finishes within 10 s");
        session.join().expect("the session thread finished");
        let bound = format!("no complete specialization within {} atoms", usize::MAX);
        assert!(out.contains(&bound), "{out}");
    }

    #[test]
    fn session_eval_and_bounds() {
        let out = run_script(
            "compl school(S, primary, D) ; true.
             fact school(goethe, primary, merano).
             fact school(dante, middle, bolzano).
             eval q(S) :- school(S, T, D).
             bounds q(S) :- school(S, primary, D).
             quit",
        );
        assert!(out.contains("2 answer(s)"));
        assert!(out.contains("ideal count: exactly 1"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run_script(
            "check q(N) :- p(N.
             frobnicate
             help
             quit",
        );
        assert!(out.contains("error:"));
        assert!(out.contains("unknown command `frobnicate`"));
        assert!(out.contains("commands:"));
    }

    #[test]
    fn show_and_clear() {
        let out = run_script(
            "fact p(a).
             show
             clear
             show
             quit",
        );
        assert!(out.contains("fact p(a)."));
        assert!(out.contains("session cleared"));
    }
}
