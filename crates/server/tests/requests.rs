//! Request lines tokenize the same under any whitespace and never panic.
//!
//! A stream of requests, each one of the grammar's verbs with argument
//! text that is valid, truncated or arbitrary, is rendered twice with
//! different separators (spaces, tabs and runs of them) and fed to two
//! engines. Every reply must be one line starting `ok ` or `err `, and the
//! two engines must answer each request alike. `specialize`'s k stays
//! small on a session with statements; on a session with none, any k is
//! drawn, since that search stops after size 0.

use magik_server::Engine;
use proptest::prelude::*;

const QUERIES: [&str; 6] = [
    "q(N) :- pupil(N, C, S), school(S, primary, merano).",
    "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).",
    "q(S) :- school(S, T, bolzano)",
    "q(X) :- p(X), r(X).",
    "q(X, Y) :- edge(X, Y), edge(Y, X).",
    "r(X) :- learns(X, english), ghost(X).",
];

const ATOMS: [&str; 6] = [
    "pupil(anna, c1, hofer).",
    "school(hofer, primary, merano).",
    "learns(anna, english)",
    "edge(a, b).",
    "p(a).",
    "pupil(X, c1, hofer).",
];

const STATEMENTS: [&str; 4] = [
    "learns(N, english) ; pupil(N, C, S), school(S, primary, D).",
    "edge(X, Y) ; edge(Y, X).",
    "p(X) ; true",
    "r(X) ; p(X).",
];

/// The paper's running example: two statements and two facts.
const STATEMENT_SESSION: [&str; 4] = [
    "compl school(S, primary, D) ; true.",
    "compl pupil(N, C, S) ; school(S, T, merano).",
    "assert school(hofer, primary, merano).",
    "assert pupil(anna, c1, hofer).",
];

/// Facts and no statement.
const EMPTY_SESSION: [&str; 2] = ["assert school(hofer, primary, merano).", "assert p(a)."];

/// One of `pool`, a prefix of one, or arbitrary printable text.
fn text(pool: &'static [&'static str]) -> BoxedStrategy<String> {
    prop_oneof![
        (0..pool.len()).prop_map(move |i| pool[i].to_string()),
        (0..pool.len(), 0..64usize).prop_map(move |(i, cut)| {
            let valid = pool[i];
            valid[..cut % (valid.len() + 1)].to_string()
        }),
        "\\PC{0,24}",
    ]
    .boxed()
}

/// One of `words`.
fn word(words: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..words.len())
        .prop_map(move |i| words[i].to_string())
        .boxed()
}

/// A request's tokens: its verb, then its arguments, the last of which is
/// the payload (the only one that may hold whitespace). `k` draws
/// `specialize`'s k token; `compl` says whether the stream may add
/// statements.
fn request(k: BoxedStrategy<String>, compl: bool) -> BoxedStrategy<Vec<String>> {
    let verb = |v: &str| v.to_string();
    let mut arms = vec![
        (
            word(&["check", "why", "generalize", "eval"]),
            text(&QUERIES),
        )
            .prop_map(|(v, q)| vec![v, q])
            .boxed(),
        (k, text(&QUERIES))
            .prop_map(move |(k, q)| vec![verb("specialize"), k, q])
            .boxed(),
        (word(&["assert", "retract", "guaranteed"]), text(&ATOMS))
            .prop_map(|(v, a)| vec![v, a])
            .boxed(),
        prop_oneof![
            Just(vec![verb("analyze")]),
            Just(vec![verb("analyze"), verb("state")]),
            text(&QUERIES).prop_map(move |q| vec![verb("analyze"), q]),
            text(&QUERIES).prop_map(move |q| vec![verb("analyze"), verb("state"), q]),
        ]
        .boxed(),
        word(&[
            "metrics",
            "plans",
            "epochs",
            "replication",
            "ping",
            "quit",
            "frames",
        ])
        .prop_map(|v| vec![v])
        .boxed(),
        (word(&["frames"]), word(&["binary", "line", "utf7"]))
            .prop_map(|(v, f)| vec![v, f])
            .boxed(),
        ("[0-9x]{0,3}", "[0-9]{0,3}")
            .prop_map(move |(te, de)| vec![verb("replicate"), te, de])
            .boxed(),
        "[a-z]{1,8}".prop_map(|v| vec![v]).boxed(),
    ];
    if compl {
        arms.push(
            text(&STATEMENTS)
                .prop_map(move |s| vec![verb("compl"), s])
                .boxed(),
        );
    }
    proptest::strategy::Union::new(arms).boxed()
}

/// The whitespace of one rendering: before the line, after the verb,
/// after the next token, and after the line.
type Seps = (String, String, String, String);

fn seps() -> impl Strategy<Value = Seps> {
    ("[ \t]{0,2}", "[ \t]{1,3}", "[ \t]{1,3}", "[ \t]{0,2}")
}

/// A stream of requests, each with two renderings' separators.
fn stream(
    k: BoxedStrategy<String>,
    compl: bool,
) -> impl Strategy<Value = Vec<(Vec<String>, Seps, Seps)>> {
    proptest::collection::vec((request(k, compl), seps(), seps()), 1..12)
}

fn render(tokens: &[String], (lead, first, rest, trail): &Seps) -> String {
    let mut line = lead.clone();
    for (i, token) in tokens.iter().enumerate() {
        match i {
            0 => {}
            1 => line.push_str(first),
            _ => line.push_str(rest),
        }
        line.push_str(token);
    }
    line + trail
}

/// Feeds `session`, then both renderings of `stream`, to two engines.
fn answers_alike(session: &[&str], stream: &[(Vec<String>, Seps, Seps)]) {
    let (a, b) = (Engine::new(), Engine::new());
    for line in session {
        assert_eq!(a.handle(line), b.handle(line), "{line}");
    }
    for (tokens, seps_a, seps_b) in stream {
        let (line_a, line_b) = (render(tokens, seps_a), render(tokens, seps_b));
        let (reply_a, reply_b) = (a.handle(&line_a), b.handle(&line_b));
        for (line, reply) in [(&line_a, &reply_a), (&line_b, &reply_b)] {
            assert!(
                (reply.starts_with("ok ") || reply.starts_with("err ")) && !reply.contains('\n'),
                "{line:?} -> {reply:?}"
            );
        }
        // `metrics` reports latencies, which differ run to run.
        if tokens[0] != "metrics" {
            assert_eq!(reply_a, reply_b, "{line_a:?} vs {line_b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn requests_answer_alike_under_any_whitespace(
        stream in stream(word(&["0", "1", "+1", "01", "x", "-1", "1x"]), true),
    ) {
        answers_alike(&STATEMENT_SESSION, &stream);
    }

    #[test]
    fn any_k_answers_alike_on_a_session_with_no_statements(
        stream in stream(
            prop_oneof![
                (0..=usize::MAX).prop_map(|k| k.to_string()),
                (0..4usize).prop_map(|d| (usize::MAX - d).to_string()),
                word(&["0", "+1", "x", "-1"]),
            ]
            .boxed(),
            false,
        ),
    ) {
        answers_alike(&EMPTY_SESSION, &stream);
    }
}

#[test]
fn analyze_state_takes_any_whitespace_before_its_query() {
    let e = Engine::new();
    let spaced = e.handle("analyze state q(X) :- p(X), r(X).");
    assert!(spaced.starts_with("ok 2 warning[M022]"), "{spaced}");
    for line in [
        "analyze state\tq(X) :- p(X), r(X).",
        "analyze\t state  \t q(X) :- p(X), r(X).",
    ] {
        assert_eq!(e.handle(line), spaced, "{line:?}");
    }
}

#[test]
fn parse_errors_name_a_multibyte_character_whole() {
    let e = Engine::new();
    assert_eq!(
        e.handle("check q(N) :- pupil(N, C, S), \u{e9}(N)."),
        "err parse 1:25: unexpected character `\u{e9}`"
    );
    assert_eq!(
        e.handle("check \u{200b}q(N) :- pupil(N, C, S)."),
        "err parse 1:1: unexpected character `\\u{200b}`"
    );
}
