//! Seeded workload generation: the initial session and the request
//! streams the server receives as text.
//!
//! Every workload drives two *lanes*, one per connection. A lane is an
//! endless, seeded sequence of request lines. Requests whose replies
//! depend on the order of writes (the writes themselves, and `eval` /
//! `guaranteed` over churned facts) all travel on lane 0, whose requests
//! the server executes strictly in order; lane 1 carries only requests
//! whose replies no write of the workload can change. That keeps every
//! reply checkable against a sequential replay, whatever the interleaving
//! of the two connections.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use magik_completeness::{CanonicalQuery, TcSet};
use magik_relalg::{Atom, DisplayWith, Fact, Instance, Query, Term, Var, Vocabulary};
use magik_workload::paper::{school, SchoolWorkload};
use magik_workload::random::{acyclic_tcs, query, QueryShape, RandomQueryConfig, RandomTcsConfig};
use magik_workload::synth::{school_instance, SchoolDataConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The engine's verdict-cache capacity (`VERDICT_CACHE_CAP` in
/// `magik-server`): the `cold_reasoning` pool must exceed it.
pub const VERDICT_CACHE_CAP: usize = 1024;
/// The engine's `why`-cache capacity (`WHY_CACHE_CAP`).
pub const WHY_CACHE_CAP: usize = 256;
/// The engine's answer- and plan-cache capacities.
pub const ANSWER_CACHE_CAP: usize = 256;
/// See [`ANSWER_CACHE_CAP`].
pub const PLAN_CACHE_CAP: usize = 256;

/// Distinct canonical queries in the `cold_reasoning` pool: four times
/// the verdict cache, sixteen times the `why` cache.
pub const COLD_POOL: usize = 4 * VERDICT_CACHE_CAP;
/// The most churned facts `durable_churn` keeps asserted at once; the
/// instance stays within `[base, base + DURABLE_MAX_OUTSTANDING]` facts.
pub const DURABLE_MAX_OUTSTANDING: usize = 256;
/// The pupils `durable_churn` asserts and retracts facts about. A fixed
/// set, interned by the warm-up: the vocabulary, and with it every
/// checkpoint image, then keeps its size however many writes a run
/// makes.
pub const CHURN_PUPILS: usize = 512;
/// Seeds the session and the pools (not the streams).
const FIXED_SEED: u64 = 20130826;
/// Schools in the ~13 k-fact instance (20 pupils each, ~1.6 `learns`
/// facts per pupil).
const LARGE_SCHOOLS: usize = 250;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cached reads over the small school instance.
    HotReads,
    /// Cold reasoning over a query pool larger than the caches.
    ColdReasoning,
    /// Writes beside reads on the ~13 k-fact instance.
    DurableChurn,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotReads,
        Workload::ColdReasoning,
        Workload::DurableChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdReasoning => "cold_reasoning",
            Workload::DurableChurn => "durable_churn",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A protocol verb the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    /// `check <query>`
    Check,
    /// `why <query>`
    Why,
    /// `eval <query>`
    Eval,
    /// `generalize <query>`
    Generalize,
    /// `specialize <k> <query>`
    Specialize,
    /// `guaranteed <fact>`
    Guaranteed,
    /// `assert <fact>`
    Assert,
    /// `retract <fact>`
    Retract,
}

impl Verb {
    /// Every verb, in reporting order.
    pub const ALL: [Verb; 8] = [
        Verb::Check,
        Verb::Why,
        Verb::Eval,
        Verb::Generalize,
        Verb::Specialize,
        Verb::Guaranteed,
        Verb::Assert,
        Verb::Retract,
    ];

    /// The protocol keyword.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Check => "check",
            Verb::Why => "why",
            Verb::Eval => "eval",
            Verb::Generalize => "generalize",
            Verb::Specialize => "specialize",
            Verb::Guaranteed => "guaranteed",
            Verb::Assert => "assert",
            Verb::Retract => "retract",
        }
    }

    /// Mutations are writes; everything else is a read.
    pub fn is_write(self) -> bool {
        matches!(self, Verb::Assert | Verb::Retract)
    }
}

/// One generated request: its verb and the full request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The verb (also the line's first word).
    pub verb: Verb,
    /// The request line, without a trailing newline.
    pub line: String,
}

impl Request {
    fn new(verb: Verb, rest: &str) -> Request {
        Request {
            verb,
            line: format!("{} {rest}", verb.name()),
        }
    }

    /// The line after the verb, as the engine sees it.
    pub fn rest(&self) -> &str {
        self.line.split_once(' ').map_or("", |(_, rest)| rest)
    }
}

/// The session a workload starts from: what the engine's checkpoint
/// image holds.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// The interner (every name the instance and statements use).
    pub vocab: Vocabulary,
    /// The table-completeness statements.
    pub tcs: TcSet,
    /// The stored facts.
    pub db: Instance,
}

/// A generated workload: the initial session, the warm-up requests and
/// the pools the lane streams draw from.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The seed the lane streams are drawn from.
    pub seed: u64,
    /// The initial session.
    pub session: Session,
    /// Requests that bring a fresh engine to steady state: every query
    /// and fact text a lane can send is parsed once (so the vocabulary
    /// stops growing) and, on `hot_reads`, every cache is filled.
    pub warmup: Vec<Request>,
    pools: Arc<Pools>,
}

#[derive(Debug)]
struct Pools {
    /// Query texts, grouped: on `hot_reads` and `durable_churn` each
    /// group holds alpha-variants of one base query; on `cold_reasoning`
    /// there is one group per distinct canonical query.
    queries: Vec<Vec<String>>,
    /// Indices into `queries` that `eval` draws from.
    eval_queries: Vec<usize>,
    /// Indices into `queries` that `specialize` draws from.
    specialize_queries: Vec<usize>,
    /// Stored facts no write of the workload touches (for `guaranteed`
    /// and duplicate `assert`s).
    stable_facts: Vec<String>,
    /// Facts never stored (for `retract`s that change nothing).
    ghost_facts: Vec<String>,
    /// `durable_churn`: schools new pupils enrol at.
    schools: Vec<String>,
}

/// The mix of one lane: verbs and their weights.
type Mix = &'static [(Op, u32)];

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(Verb),
    /// `assert` of a stored fact (`ok duplicate`) or `retract` of a
    /// ghost fact (`ok absent`): the write path without a state change,
    /// so every cache stays warm.
    NoopWrite,
    /// A real `assert`/`retract` from the churn generator.
    Churn,
}

const HOT_MIX: Mix = &[
    (Op::Read(Verb::Check), 30),
    (Op::Read(Verb::Why), 20),
    (Op::Read(Verb::Eval), 20),
    (Op::Read(Verb::Guaranteed), 15),
    (Op::NoopWrite, 15),
];
const COLD_MIX: Mix = &[
    (Op::Read(Verb::Check), 30),
    (Op::Read(Verb::Why), 20),
    (Op::Read(Verb::Generalize), 15),
    (Op::Read(Verb::Specialize), 10),
    (Op::NoopWrite, 25),
];
const CHURN_MIX: Mix = &[
    (Op::Churn, 55),
    (Op::Read(Verb::Eval), 30),
    (Op::Read(Verb::Guaranteed), 15),
];
const STABLE_READ_MIX: Mix = &[
    (Op::Read(Verb::Check), 60),
    (Op::Read(Verb::Guaranteed), 40),
];

/// The base queries of `hot_reads` and the cached checks of
/// `durable_churn`: the paper's `Q_ppb` and `Q_pbl` and six neighbours
/// over the same schema, of both polarities.
const SCHOOL_QUERIES: [&str; 8] = [
    "q(N) :- pupil(N, C, S), school(S, primary, merano).",
    "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).",
    "q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
    "q(N) :- learns(N, english), pupil(N, C, S), school(S, primary, D).",
    "q(S) :- school(S, primary, D).",
    "q(N, L) :- learns(N, L), pupil(N, c1, S).",
    "q(N) :- pupil(N, c1, S), school(S, middle, merano).",
    "q(N) :- learns(N, english), pupil(N, C, S), school(S, primary, merano).",
];
/// The `SCHOOL_QUERIES` that `eval` draws from.
const SCHOOL_EVAL: [usize; 5] = [0, 1, 2, 4, 6];
const ALPHA_VARIANTS: usize = 8;

impl Spec {
    /// Generates `workload` for `seed`. The session and the pools are
    /// the same for every seed, so runs with different seeds measure the
    /// same service state; the seed draws the request streams.
    pub fn generate(workload: Workload, seed: u64) -> Spec {
        let mut rng = StdRng::seed_from_u64(FIXED_SEED);
        let w = school();
        let mut vocab = w.vocab.clone();
        let schools = match workload {
            Workload::HotReads => SchoolDataConfig::default().schools,
            _ => LARGE_SCHOOLS,
        };
        let db = school_instance(
            &w,
            &mut vocab,
            SchoolDataConfig {
                schools,
                seed: rng.next_u64(),
                ..SchoolDataConfig::default()
            },
        );
        let mut tcs = w.tcs.clone();
        let mut pools = Pools {
            queries: Vec::new(),
            eval_queries: Vec::new(),
            specialize_queries: Vec::new(),
            stable_facts: Vec::new(),
            ghost_facts: Vec::new(),
            schools: Vec::new(),
        };
        match workload {
            Workload::HotReads | Workload::DurableChurn => {
                pools.queries = school_query_variants(&mut vocab, &mut rng);
                pools.eval_queries = SCHOOL_EVAL.to_vec();
            }
            Workload::ColdReasoning => {
                let block = acyclic_tcs(
                    RandomTcsConfig {
                        statements: 8,
                        relations: 6,
                        max_condition: 2,
                        seed: rng.next_u64(),
                    },
                    &mut vocab,
                );
                tcs = tcs
                    .statements()
                    .iter()
                    .chain(block.statements())
                    .cloned()
                    .collect();
                let pool = cold_pool(&w, &mut vocab, &mut rng);
                pools.specialize_queries = (0..pool.len()).filter(|&i| pool[i].1 <= 2).collect();
                pools.queries = pool.into_iter().map(|(text, _)| vec![text]).collect();
            }
        }
        pools.stable_facts = sample_facts(&db, &vocab, 64, &mut rng);
        pools.ghost_facts = (0..16)
            .map(|i| format!("pupil(ghost{i}, c{}, school{})", i % 5, i % schools))
            .collect();
        pools.schools = (0..schools).map(|i| format!("school{i}")).collect();
        let warmup = warmup(workload, &pools);
        Spec {
            workload,
            seed,
            session: Session { vocab, tcs, db },
            warmup,
            pools: Arc::new(pools),
        }
    }

    /// The endless request stream of `lane` (0 or 1).
    pub fn lane(&self, lane: usize) -> LaneStream {
        let mix = match (self.workload, lane) {
            (Workload::HotReads, _) => HOT_MIX,
            (Workload::ColdReasoning, _) => COLD_MIX,
            (Workload::DurableChurn, 0) => CHURN_MIX,
            (Workload::DurableChurn, _) => STABLE_READ_MIX,
        };
        LaneStream {
            workload: self.workload,
            rng: StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(lane as u64 + 1),
            ),
            mix,
            pools: Arc::clone(&self.pools),
            churn: Churn::default(),
        }
    }

    /// The number of distinct queries (canonical forms on
    /// `cold_reasoning`, base queries elsewhere) the lanes draw from.
    pub fn distinct_queries(&self) -> usize {
        self.pools.queries.len()
    }
}

/// Picks one of `n` indices with skew: index `⌊n·u²⌋` for uniform `u`,
/// so the first quarter of the pool draws half of all requests.
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((u * u * n as f64) as usize).min(n - 1)
}

/// `SCHOOL_QUERIES` as groups of alpha-variants: variables renamed and
/// body atoms shuffled, so each group shares one canonical form.
fn school_query_variants(vocab: &mut Vocabulary, rng: &mut StdRng) -> Vec<Vec<String>> {
    SCHOOL_QUERIES
        .iter()
        .map(|src| {
            let q = magik_parser::parse_query(src, vocab).expect("base queries parse");
            (0..ALPHA_VARIANTS)
                .map(|v| {
                    let variant = alpha_variant(&q, v, vocab, rng);
                    format!("{}.", variant.display(vocab))
                })
                .collect()
        })
        .collect()
}

fn alpha_variant(q: &Query, variant: usize, vocab: &mut Vocabulary, rng: &mut StdRng) -> Query {
    const LETTERS: [&str; 6] = ["A", "B", "K", "P", "V", "W"];
    let mut names: HashMap<Var, Var> = HashMap::new();
    let mut rename = |t: &Term, vocab: &mut Vocabulary| match *t {
        Term::Var(v) => {
            let next = names.len();
            Term::Var(*names.entry(v).or_insert_with(|| {
                vocab.var(&format!(
                    "{}{next}",
                    LETTERS[(variant + next) % LETTERS.len()]
                ))
            }))
        }
        c @ Term::Cst(_) => c,
    };
    let head = q.head.iter().map(|t| rename(t, vocab)).collect();
    let mut body: Vec<Atom> = q
        .body
        .iter()
        .map(|a| Atom::new(a.pred, a.args.iter().map(|t| rename(t, vocab)).collect()))
        .collect();
    for i in (1..body.len()).rev() {
        body.swap(i, rng.gen_range(0..=i));
    }
    Query::new(q.name, head, body)
}

/// `COLD_POOL` queries with pairwise distinct canonical forms, each with
/// its body size: half over the school schema with random constants,
/// half random shapes over the `acyclic_tcs` relations.
fn cold_pool(w: &SchoolWorkload, vocab: &mut Vocabulary, rng: &mut StdRng) -> Vec<(String, usize)> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(COLD_POOL);
    while pool.len() < COLD_POOL {
        let q = if rng.gen_bool(0.5) {
            school_family_query(w, vocab, rng)
        } else {
            let shapes = [QueryShape::Chain, QueryShape::Star, QueryShape::Random];
            query(
                RandomQueryConfig {
                    shape: shapes[rng.gen_range(0..shapes.len())],
                    atoms: rng.gen_range(1..=3),
                    relations: 6,
                    constant_prob: 0.25,
                    seed: rng.next_u64(),
                },
                vocab,
            )
        };
        let body_vars: HashSet<Term> = q.body.iter().flat_map(|a| a.args.iter().copied()).collect();
        if !q.head.iter().all(|t| body_vars.contains(t)) {
            continue; // unsafe: a head variable the body does not bind
        }
        if seen.insert(CanonicalQuery::of(&q)) {
            pool.push((format!("{}.", q.display(vocab)), q.size()));
        }
    }
    pool
}

fn school_family_query(w: &SchoolWorkload, vocab: &mut Vocabulary, rng: &mut StdRng) -> Query {
    let (n, c, s, t, d, l) = (
        vocab.var("N"),
        vocab.var("C"),
        vocab.var("S"),
        vocab.var("T"),
        vocab.var("D"),
        vocab.var("L"),
    );
    let mut pick = |vocab: &mut Vocabulary, var: Var, options: &[String]| {
        if rng.gen_bool(0.6) {
            Term::Var(var)
        } else {
            Term::Cst(vocab.cst(&options[rng.gen_range(0..options.len())]))
        }
    };
    let strings = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let codes: Vec<String> = (0..5).map(|i| format!("c{i}")).collect();
    let names: Vec<String> = (0..LARGE_SCHOOLS).map(|i| format!("school{i}")).collect();
    let types = strings(&["primary", "middle"]);
    let districts = strings(&["merano", "bolzano", "brixen"]);
    let langs = strings(&["english", "german", "italian", "ladin"]);
    let pupil = Atom::new(
        w.pupil,
        vec![Term::Var(n), pick(vocab, c, &codes), Term::Var(s)],
    );
    let school_atom = Atom::new(
        w.school,
        vec![
            Term::Var(s),
            pick(vocab, t, &types),
            pick(vocab, d, &districts),
        ],
    );
    let learns = Atom::new(w.learns, vec![Term::Var(n), pick(vocab, l, &langs)]);
    let school_named = Atom::new(
        w.school,
        vec![pick(vocab, s, &names), Term::Var(t), Term::Var(d)],
    );
    let (head, body) = match rng.gen_range(0..5) {
        0 => (vec![Term::Var(n)], vec![pupil, school_atom]),
        1 => (vec![Term::Var(n)], vec![pupil, school_atom, learns]),
        2 => (vec![Term::Var(n)], vec![learns, pupil]),
        3 => (vec![Term::Var(t)], vec![school_named]),
        _ => (vec![Term::Var(s)], vec![school_atom]),
    };
    Query::new(vocab.sym("q"), head, body)
}

fn sample_facts(db: &Instance, vocab: &Vocabulary, n: usize, rng: &mut StdRng) -> Vec<String> {
    let facts: Vec<Fact> = db.iter_facts().collect();
    (0..n)
        .map(|_| {
            facts[rng.gen_range(0..facts.len())]
                .display(vocab)
                .to_string()
        })
        .collect()
}

fn warmup(workload: Workload, pools: &Pools) -> Vec<Request> {
    let mut out = Vec::new();
    match workload {
        Workload::HotReads | Workload::DurableChurn => {
            for (i, group) in pools.queries.iter().enumerate() {
                for text in group {
                    out.push(Request::new(Verb::Check, text));
                }
                if workload == Workload::HotReads {
                    out.push(Request::new(Verb::Why, &group[0]));
                    if pools.eval_queries.contains(&i) {
                        out.push(Request::new(Verb::Eval, &group[0]));
                    }
                }
            }
        }
        Workload::ColdReasoning => {
            // Least drawn first: the least recently used entries are
            // evicted, so the verdict and `why` caches end up holding
            // the most drawn queries, as under the stream itself, and the
            // hit ratios need no further warming up.
            for group in pools.queries.iter().rev() {
                out.push(Request::new(Verb::Check, &group[0]));
            }
            for group in pools.queries[..WHY_CACHE_CAP].iter().rev() {
                out.push(Request::new(Verb::Why, &group[0]));
            }
        }
    }
    for fact in &pools.stable_facts {
        out.push(Request::new(Verb::Guaranteed, fact));
    }
    for fact in &pools.ghost_facts {
        out.push(Request::new(Verb::Guaranteed, fact));
    }
    if workload == Workload::DurableChurn {
        for i in 0..CHURN_PUPILS {
            let fact = format!("learns({}, english)", churn_pupil(i));
            out.push(Request::new(Verb::Guaranteed, &fact));
        }
    }
    out
}

/// The churn generator's state: facts asserted and not yet retracted.
#[derive(Debug, Default, Clone)]
struct Churn {
    outstanding: Vec<String>,
    present: HashSet<String>,
}

/// The name of churned pupil `i`.
fn churn_pupil(i: usize) -> String {
    format!("newpupil{i}")
}

/// An endless, seeded request stream for one lane.
#[derive(Debug, Clone)]
pub struct LaneStream {
    workload: Workload,
    rng: StdRng,
    mix: Mix,
    pools: Arc<Pools>,
    churn: Churn,
}

impl LaneStream {
    /// The next request of the lane.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Request {
        let total: u32 = self.mix.iter().map(|(_, w)| w).sum();
        let mut ticket = self.rng.gen_range(0..total);
        let op = self
            .mix
            .iter()
            .find(|(_, w)| {
                if ticket < *w {
                    true
                } else {
                    ticket -= w;
                    false
                }
            })
            .map(|(op, _)| *op)
            .expect("weights cover the ticket");
        match op {
            Op::Read(verb) => self.read(verb),
            Op::NoopWrite => {
                let p = &self.pools;
                if self.rng.gen_bool(0.5) {
                    let fact = &p.stable_facts[self.rng.gen_range(0..p.stable_facts.len())];
                    Request::new(Verb::Assert, &format!("{fact}."))
                } else {
                    let fact = &p.ghost_facts[self.rng.gen_range(0..p.ghost_facts.len())];
                    Request::new(Verb::Retract, &format!("{fact}."))
                }
            }
            Op::Churn => self.churn(),
        }
    }

    fn query_text(&mut self, group: usize) -> String {
        let variants = &self.pools.queries[group];
        variants[self.rng.gen_range(0..variants.len())].clone()
    }

    fn read(&mut self, verb: Verb) -> Request {
        let p = Arc::clone(&self.pools);
        match verb {
            Verb::Guaranteed => {
                // Lane 0 of `durable_churn` also asks about churned facts.
                if !self.churn.outstanding.is_empty() && self.rng.gen_bool(0.5) {
                    let i = self.rng.gen_range(0..self.churn.outstanding.len());
                    let fact = self.churn.outstanding[i].clone();
                    return Request::new(verb, &fact);
                }
                let fact = &p.stable_facts[self.rng.gen_range(0..p.stable_facts.len())];
                Request::new(verb, fact)
            }
            Verb::Eval => {
                let group = p.eval_queries[self.rng.gen_range(0..p.eval_queries.len())];
                let text = self.query_text(group);
                Request::new(verb, &text)
            }
            Verb::Specialize => {
                let i = skewed(&mut self.rng, p.specialize_queries.len());
                let k = self.rng.gen_range(0..2);
                Request::new(
                    verb,
                    &format!("{k} {}", p.queries[p.specialize_queries[i]][0]),
                )
            }
            _ => {
                let group = match self.workload {
                    Workload::ColdReasoning => skewed(&mut self.rng, p.queries.len()),
                    _ => self.rng.gen_range(0..p.queries.len()),
                };
                let text = self.query_text(group);
                Request::new(verb, &text)
            }
        }
    }

    /// One real write: a retract of an earlier assert when the band is
    /// full (or by coin flip), otherwise an assert of a `pupil` or
    /// `learns` fact of one of the [`CHURN_PUPILS`] churned pupils.
    fn churn(&mut self) -> Request {
        let c = &mut self.churn;
        let full = c.outstanding.len() >= DURABLE_MAX_OUTSTANDING;
        if full || (!c.outstanding.is_empty() && self.rng.gen_bool(0.5)) {
            let i = self.rng.gen_range(0..c.outstanding.len());
            let fact = c.outstanding.swap_remove(i);
            c.present.remove(&fact);
            return Request::new(Verb::Retract, &format!("{fact}."));
        }
        const LANGS: [&str; 4] = ["english", "german", "italian", "ladin"];
        let pupil = churn_pupil(self.rng.gen_range(0..CHURN_PUPILS));
        let fact = if self.rng.gen_bool(0.4) {
            let schools = &self.pools.schools;
            let school = &schools[self.rng.gen_range(0..schools.len())];
            let code = self.rng.gen_range(0..5);
            format!("pupil({pupil}, c{code}, {school})")
        } else {
            let lang = LANGS[self.rng.gen_range(0..LANGS.len())];
            format!("learns({pupil}, {lang})")
        };
        if c.present.contains(&fact) {
            // Already asserted: retract it instead, still a real write.
            let i = c
                .outstanding
                .iter()
                .position(|f| *f == fact)
                .expect("tracked");
            c.outstanding.swap_remove(i);
            c.present.remove(&fact);
            return Request::new(Verb::Retract, &format!("{fact}."));
        }
        c.outstanding.push(fact.clone());
        c.present.insert(fact.clone());
        Request::new(Verb::Assert, &format!("{fact}."))
    }
}
