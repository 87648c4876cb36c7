//! The request grammar (`PROTOCOL.md`), tokenized once.
//!
//! [`Request::parse`] splits a line, at any run of whitespace, into its
//! verb (the ten that `metrics` counts are looked up in [`OPS`]) and the
//! arguments the grammar spells out. The rest is the **payload**, trimmed
//! and otherwise untouched: only the verb's handler parses it, a read
//! into its snapshot's vocabulary overlay and a write into the writer's
//! vocabulary clone under the writer mutex, so no payload is parsed twice
//! or before its turn. The reactor answers `quit`, `frames` and
//! `replicate` and queues the rest as tokenized;
//! [`Engine::handle`](crate::Engine::handle) tokenizes and executes.

use crate::metrics::{Op, OPS};
use crate::net::Framing;

/// One tokenized request line.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Request {
    /// `check`, `why`, `generalize`, `eval`, `guaranteed`, `assert`,
    /// `retract` or `compl`, and its payload.
    Payload(Op, String),
    /// `specialize <k> <query>`.
    Specialize(usize, String),
    /// `analyze [state] [<query>]`: whether `state` was given, and the
    /// query text (empty when there is none).
    Analyze(bool, String),
    // The verbs with no arguments: any text after them is ignored.
    Metrics,
    Plans,
    Epochs,
    Replication,
    Ping,
    Quit,
    /// `frames [binary|line]`: the framing to switch to, `None` to probe
    /// the current one, or the unknown name given.
    Frames(Result<Option<Framing>, String>),
    /// `replicate <tcs-epoch> <data-epoch>`; `None` unless exactly two
    /// epochs are given.
    Replicate(Option<(u64, u64)>),
    /// A line the grammar refuses: the op it counts under in `metrics`,
    /// and the message of its `err proto` reply.
    Invalid(Op, String),
}

impl Request {
    /// Tokenizes one request line (see the module docs).
    pub(crate) fn parse(line: &str) -> Request {
        let (verb, rest) = token(line);
        let ops = &OPS[..Op::Other as usize];
        match ops
            .iter()
            .find(|(_, name)| *name == verb)
            .map(|&(op, _)| op)
        {
            Some(op @ Op::Specialize) => match token(rest) {
                (_, "") => Request::Invalid(op, "usage: specialize <k> <query>".to_string()),
                (k, query) => match k.parse() {
                    Ok(k) => Request::Specialize(k, query.to_string()),
                    Err(_) => Request::Invalid(op, format!("invalid k `{k}`")),
                },
            },
            Some(Op::Analyze) => match token(rest) {
                ("state", query) => Request::Analyze(true, query.to_string()),
                _ => Request::Analyze(false, rest.to_string()),
            },
            Some(op) => Request::Payload(op, rest.to_string()),
            None => match verb {
                "metrics" => Request::Metrics,
                "plans" => Request::Plans,
                "epochs" => Request::Epochs,
                "replication" => Request::Replication,
                "ping" => Request::Ping,
                "quit" => Request::Quit,
                "frames" => Request::Frames(match rest {
                    "" => Ok(None),
                    "binary" => Ok(Some(Framing::Binary)),
                    "line" => Ok(Some(Framing::Line)),
                    other => Err(other.to_string()),
                }),
                "replicate" => {
                    let mut epochs = rest.split_whitespace().map(str::parse);
                    Request::Replicate(match (epochs.next(), epochs.next(), epochs.next()) {
                        (Some(Ok(tcs)), Some(Ok(data)), None) => Some((tcs, data)),
                        _ => None,
                    })
                }
                "" => Request::Invalid(Op::Other, "empty request".to_string()),
                other => Request::Invalid(Op::Other, unknown(other)),
            },
        }
    }
}

/// The `err proto` message for a verb the engine does not serve.
pub(crate) fn unknown(verb: &str) -> String {
    format!("unknown command `{verb}`")
}

/// The first token of `text` and the text after it, both trimmed.
fn token(text: &str) -> (&str, &str) {
    let text = text.trim();
    text.split_once(char::is_whitespace)
        .map_or((text, ""), |(first, rest)| (first, rest.trim_start()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_every_form_at_any_whitespace() {
        let payload = |op, text: &str| Request::Payload(op, text.to_string());
        for (line, request) in [
            ("check q(X) :- p(X).", payload(Op::Check, "q(X) :- p(X).")),
            ("  assert\t p(a). ", payload(Op::Assert, "p(a).")),
            ("why", payload(Op::Why, "")),
            (
                "specialize \t 2\t\tq(X) :- p(X).",
                Request::Specialize(2, "q(X) :- p(X).".to_string()),
            ),
            ("analyze", Request::Analyze(false, String::new())),
            ("analyze state", Request::Analyze(true, String::new())),
            (
                "analyze state\tq(X) :- p(X).",
                Request::Analyze(true, "q(X) :- p(X).".to_string()),
            ),
            (
                "analyze stateq(X) :- p(X).",
                Request::Analyze(false, "stateq(X) :- p(X).".to_string()),
            ),
            ("metrics now", Request::Metrics),
            ("replication", Request::Replication),
            ("quit now", Request::Quit),
            ("frames", Request::Frames(Ok(None))),
            ("frames\tbinary", Request::Frames(Ok(Some(Framing::Binary)))),
            ("frames utf7", Request::Frames(Err("utf7".to_string()))),
            ("replicate 3  7", Request::Replicate(Some((3, 7)))),
            ("replicate x", Request::Replicate(None)),
            ("replicate 3 7 9", Request::Replicate(None)),
        ] {
            assert_eq!(Request::parse(line), request, "{line}");
        }
    }

    #[test]
    fn refusals_keep_their_op_and_message() {
        let invalid = |op, msg: &str| Request::Invalid(op, msg.to_string());
        for (line, request) in [
            ("", invalid(Op::Other, "empty request")),
            ("other", invalid(Op::Other, "unknown command `other`")),
            (
                "frobnicate x",
                invalid(Op::Other, "unknown command `frobnicate`"),
            ),
            (
                "specialize",
                invalid(Op::Specialize, "usage: specialize <k> <query>"),
            ),
            (
                "specialize 1",
                invalid(Op::Specialize, "usage: specialize <k> <query>"),
            ),
            (
                "specialize x q(X) :- p(X).",
                invalid(Op::Specialize, "invalid k `x`"),
            ),
        ] {
            assert_eq!(Request::parse(line), request, "{line}");
        }
    }
}
