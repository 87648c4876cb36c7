//! One benchmark run: set the service up, drive it, crash it, recover
//! it, check every reply, and report.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use magik_exec::Executor;
use magik_server::{DurabilityOptions, Engine, Server};
use magik_storage::{CheckpointImage, FsyncPolicy, Store, StoreOptions, WalRecord};

use crate::gen::{LaneStream, Request, Session, Spec, Verb, Workload};
use crate::load::{drive, Conn, LaneLog, Pacing, Replies, Sample, WINDOW_SECS};
use crate::shadow::{CacheCaps, Outcome, Shadow};
use crate::stats::{median, peak_rss_mb, quantile, ratio, timed};
use crate::trace::{self, Tracer};

/// WAL appends reach the disk at most this long after they are written
/// (`FsyncPolicy::Interval`); recorded in `BENCHMARK.json`.
pub const FSYNC_INTERVAL: Duration = Duration::from_millis(50);
/// A checkpoint is taken every this many logged writes; several complete
/// in every `durable_churn` run.
pub const CHECKPOINT_EVERY: u64 = 128;
/// Logged writes past the last checkpoint when the service crashes, so
/// every recovery replays the same number of ops.
const CRASH_TAIL_OPS: u64 = 32;
/// Request workers in the service's pool.
const SERVER_WORKERS: usize = 2;
/// Latency windows hold at least this many samples on average, so a
/// window's p99 is not just its maximum.
const WINDOW_SAMPLES: usize = 200;
/// Pause before each timed set-up or recovery round, so the rounds
/// spread over their share of the run.
const ROUND_GAP: Duration = Duration::from_millis(100);
/// Share of `--seconds` under load; set-up and recovery rounds take the
/// rest.
const LOAD_SHARE: f64 = 0.75;
/// The load alternates a closed-loop and an open-loop slice in cycles
/// of about this many seconds. The shared host's speed shifts by 10-30%
/// for a few seconds at a time; one long phase per kind would sit in
/// whichever speed its stretch of the run had, while cycles spread each
/// kind over the whole run.
const CYCLE_SECS: f64 = 3.0;
/// Share of each cycle in closed loop.
const CLOSED_SHARE: f64 = 0.4;
/// Set-up rounds after the crash, at least (each with one recovery).
const MIN_ROUNDS: usize = 5;
/// Recoveries of a crash image of the running service after each cycle
/// of the load.
const RECOVERIES_PER_CYCLE: usize = 2;
/// The quantile of a run's recovery times reported as `recovery_s`. A
/// recovery takes milliseconds, and the shared host runs each one in
/// one of two speed modes about 1.5x apart; the share of rounds in each
/// mode changes from run to run, which moves the median between the
/// modes. The fast end is steady: a few of the run's 25 to 40 rounds
/// land in the fast mode in every run.
const RECOVERY_QUANTILE: f64 = 0.05;
/// Recovery rounds of a traced run.
const TRACE_RECOVERIES: usize = 9;
/// The epochs of every workload's initial checkpoint image.
const INITIAL_EPOCHS: (u64, u64) = (3, 0);

/// How one workload is driven.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Open-loop rate over both connections, requests/s.
    rate: f64,
    /// Closed-loop pipelining window of each connection (0: the
    /// connection sends nothing in closed loop).
    windows: [usize; 2],
    /// Requests in the traced replay.
    trace_requests: usize,
}

fn params(w: Workload) -> Params {
    match w {
        Workload::HotReads => Params {
            rate: 2000.0,
            windows: [16, 16],
            trace_requests: 4000,
        },
        Workload::ColdReasoning => Params {
            rate: 300.0,
            windows: [8, 8],
            trace_requests: 1500,
        },
        Workload::DurableChurn => Params {
            rate: 200.0,
            // Lane 0 alone: with lane 1's cached reads beside it, the
            // count is mostly those reads, and the worker pool gives
            // them either most of its time or, for seconds at a stretch,
            // only the gaps between lane 0's writes (2x to 5x fewer).
            windows: [4, 0],
            trace_requests: 1200,
        },
    }
}

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Interval(FSYNC_INTERVAL),
        segment_bytes: 64 << 20,
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

fn store_options() -> StoreOptions {
    let d = durability();
    StoreOptions {
        fsync: d.fsync,
        segment_bytes: d.segment_bytes,
        checkpoints_kept: 2,
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Where scratch data and span files go.
    pub out_dir: PathBuf,
    /// The benchmark executable, started with [`RECOVER_FLAG`] for each
    /// timed recovery.
    pub exe: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Human-readable context (sample counts, bases).
    pub note: String,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: error or wrong replies, timeouts, failed
    /// durability checks.
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// Figures printed for reading but not part of the JSON result.
    pub info: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    fn info(&mut self, line: String) {
        self.info.push(line);
    }

    fn fail(&mut self, problem: String) {
        self.fail_n(1, problem);
    }

    fn fail_n(&mut self, requests: u64, problem: String) {
        self.failed += requests;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    /// The human-readable lines, then the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>14.3} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for line in &self.info {
            let _ = writeln!(out, "{line}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "FAILED: {p}");
        }
        let _ = writeln!(
            out,
            "failed_ratio {:.6} ({} of {} attempted)",
            ratio(self.failed as f64, self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Scratch directories of one run.
struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(cfg: &Config) -> Dirs {
        let root = cfg.out_dir.join(format!(
            "{}-{}-{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the run's scratch directory");
        Dirs { root }
    }

    fn get(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from).expect("read directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// Writes the workload's initial session as a checkpoint image: the
/// durable engine loads it instead of replaying thousands of asserts.
fn write_image(session: Session, dir: &Path) {
    let (mut store, _) = Store::open(dir, store_options()).expect("open image store");
    store
        .checkpoint(&CheckpointImage {
            vocab: session.vocab,
            tcs: session.tcs,
            db: session.db,
            tcs_epoch: INITIAL_EPOCHS.0,
            data_epoch: INITIAL_EPOCHS.1,
        })
        .expect("write image");
}

extern "C" {
    fn sync();
}

/// Flushes every dirty page to disk. Set-up and recovery fsync the WAL;
/// on a journaling file system that fsync also writes out whatever else
/// the run left dirty (copied images, logs), so each timed round starts
/// from a clean page cache instead.
fn flush_file_system() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

fn open_engine(dir: &Path) -> Arc<Engine> {
    let (engine, _) =
        Engine::open_durable(dir, durability(), Executor::Sequential).expect("open durable engine");
    Arc::new(engine)
}

/// Parses the engine's `metrics` reply into numbers.
fn engine_metrics(engine: &Engine) -> HashMap<String, f64> {
    engine
        .handle("metrics")
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Logged writes the engine has applied since it opened the initial
/// image.
fn applied_writes(engine: &Engine) -> u64 {
    engine.epochs().1 - INITIAL_EPOCHS.1
}

/// Waits until the background checkpointer has finished the
/// checkpoints the applied writes trigger (or stops making progress).
fn await_checkpoints(engine: &Engine) {
    let expected = (applied_writes(engine) / CHECKPOINT_EVERY) as f64;
    let mut last = -1.0;
    let mut since = Instant::now();
    loop {
        let count = engine_metrics(engine)
            .get("checkpoint.count")
            .copied()
            .unwrap_or(0.0);
        if count >= expected || since.elapsed() > Duration::from_secs(2) {
            return;
        }
        if count != last {
            last = count;
            since = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A running service: the durable engine behind the event-loop front
/// end.
struct Service {
    engine: Arc<Engine>,
    server: Server,
}

/// Opens the engine from a fresh copy of the image, starts the server
/// and warms it up over TCP. Returns the service and the seconds to
/// ready.
fn set_up(spec: &Spec, dirs: &Dirs, report: &mut Report) -> (Service, f64) {
    let live = dirs.get("live");
    copy_dir(&dirs.get("image"), &live);
    flush_file_system();
    let start = Instant::now();
    let engine = open_engine(&live);
    let server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", SERVER_WORKERS).expect("start server");
    let mut conn = Conn::connect(server.local_addr()).expect("connect");
    let mut warmup = spec.warmup.iter().cloned();
    let mut replies = Replies::default();
    let log = drive(
        &mut conn,
        &mut || warmup.next(),
        Pacing::Closed {
            window: 32,
            until: start + Duration::from_secs(3600),
        },
        start,
        &mut replies,
    );
    let secs = start.elapsed().as_secs_f64();
    fail_unsound("warm-up", &replies, log.unanswered, report);
    (Service { engine, server }, secs)
}

/// Fails the requests of a phase whose replies are only checked for
/// soundness: those without a reply, with an error reply or with an
/// invalid certificate.
fn fail_unsound(phase: &str, replies: &Replies, unanswered: usize, report: &mut Report) {
    let unsound = replies.unsound();
    if unsound > 0 {
        report.fail_n(
            unsound,
            format!("{unsound} {phase} replies were errors or invalid certificates"),
        );
    }
    if unanswered > 0 {
        report.fail_n(
            unanswered as u64,
            format!("{unanswered} {phase} requests unanswered"),
        );
    }
}

/// Drives both connections through one phase in parallel, one thread
/// each, adding every reply to its lane's record; returns each lane's
/// log.
fn phase(
    conns: &mut [Conn; 2],
    lanes: &mut [LaneStream; 2],
    replies: &mut [Replies; 2],
    pacing: impl Fn(usize) -> Pacing + Sync,
    origin: Instant,
) -> [LaneLog; 2] {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes.iter_mut())
            .zip(replies.iter_mut())
            .enumerate()
            .map(|(i, ((conn, lane), replies))| {
                let pacing = pacing(i);
                s.spawn(move || drive(conn, &mut || Some(lane.next()), pacing, origin, replies))
            })
            .collect();
        let mut logs = handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"));
        [logs.next().expect("lane 0"), logs.next().expect("lane 1")]
    })
}

/// Drives both connections in closed loop for `secs`, each with its
/// window.
fn closed_phase(
    conns: &mut [Conn; 2],
    lanes: &mut [LaneStream; 2],
    replies: &mut [Replies; 2],
    windows: [usize; 2],
    secs: f64,
) -> [LaneLog; 2] {
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(secs);
    phase(
        conns,
        lanes,
        replies,
        |lane| Pacing::Closed {
            window: windows[lane],
            until,
        },
        origin,
    )
}

/// Fails the requests of a phase that never got a reply.
fn fail_unanswered(logs: &[LaneLog; 2], report: &mut Report) {
    for (lane, log) in logs.iter().enumerate() {
        if log.unanswered > 0 {
            report.attempted += log.unanswered as u64;
            report.fail_n(
                log.unanswered as u64,
                format!("lane {lane}: {} requests timed out", log.unanswered),
            );
        }
    }
}

fn open_pacing(p: Params, secs: f64, origin: Instant) -> impl Fn(usize) -> Pacing + Sync {
    let interval = Duration::from_secs_f64(2.0 / p.rate);
    let count = (secs * p.rate / 2.0) as usize;
    move |lane| Pacing::Open {
        start: origin + Duration::from_millis(20) + interval * lane as u32 / 2,
        interval,
        count,
    }
}

/// Splits `(t, value)` samples over `[0, span)` seconds into windows of
/// at least [`WINDOW_SECS`] holding [`WINDOW_SAMPLES`] samples on
/// average; samples at or past `span` fall in the last window.
fn windows(samples: &[(f64, f64)], span: f64) -> Vec<Vec<f64>> {
    let n = ((span / WINDOW_SECS) as usize)
        .min(samples.len() / WINDOW_SAMPLES)
        .max(1);
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        out[((t / span * n as f64) as usize).min(n - 1)].push(v);
    }
    out
}

fn latency_note(xs: &[f64]) -> String {
    format!(
        "(p50 {:.1} us, p99 {:.1} us, n={})",
        quantile(xs, 0.5),
        quantile(xs, 0.99),
        xs.len()
    )
}

/// What one recovery round measured.
struct Recovery {
    /// `Engine::open_durable` on the crash image, s.
    secs: f64,
    /// `Store::peek` (the storage scan alone) on the same image, s.
    load_s: f64,
    replayed_ops: u64,
}

/// Copies the live directory to the crash image, as a crash at this
/// instant would leave it (no shutdown record, no final checkpoint).
/// Waits for the background checkpoints first, so the image's WAL tail
/// is the writes since the last checkpoint boundary. Returns the last
/// acknowledged epochs, where every recovery of the image must land.
fn crash_image(engine: &Engine, dirs: &Dirs) -> (u64, u64) {
    await_checkpoints(engine);
    let acked = engine.epochs();
    copy_dir(&dirs.get("live"), &dirs.get("crash"));
    acked
}

/// Takes the final crash image and stops the live service. Returns the
/// last acknowledged epochs.
///
/// With `flushed` set, a second copy also loses every WAL byte after the
/// write known to be flushed; its recovery must reach at least that
/// write and at most the last acknowledged one.
fn crash(
    service: Service,
    dirs: &Dirs,
    flushed: Option<(u64, u64)>,
    report: &mut Report,
) -> (u64, u64) {
    let acked = crash_image(&service.engine, dirs);
    let crash = dirs.get("crash");
    service.server.stop();
    drop(service.engine);
    if let Some(flushed) = flushed {
        let lost = dirs.get("powerloss");
        copy_dir(&crash, &lost);
        let cut = lose_unflushed(&lost, flushed);
        match Engine::verify_recovery(&lost, Executor::Sequential) {
            Ok(r) if cut && (flushed..=acked).contains(&(r.tcs_epoch, r.data_epoch)) => {}
            Ok(r) => report.fail(format!(
                "after losing unflushed writes recovery reached {:?}; flushed {flushed:?}, \
                 acknowledged {acked:?} (cut: {cut})",
                (r.tcs_epoch, r.data_epoch)
            )),
            Err(e) => report.fail(format!(
                "recovery after losing unflushed writes failed: {e}"
            )),
        }
    }
    acked
}

/// The hidden command-line flag that runs [`recover_round`].
pub const RECOVER_FLAG: &str = "--recover-round";

/// One timed recovery of the data directory `dir`, as run by a child
/// process: the storage scan alone (`Store::peek`), then
/// `Engine::open_durable`. Returns the line the child prints: seconds
/// of recovery, seconds of the scan, ops replayed, and the recovered
/// epochs.
pub fn recover_round(dir: &Path) -> String {
    let (peek, load_s) = timed(|| Store::peek(dir));
    peek.expect("the crash image scans");
    let (opened, secs) = timed(|| Engine::open_durable(dir, durability(), Executor::Sequential));
    let (engine, rec) = opened.expect("the crash image recovers");
    let (tcs, data) = engine.epochs();
    format!("{secs} {load_s} {} {tcs} {data}", rec.replayed_ops)
}

/// Recovers a fresh copy of the crash image once, timed, in a child
/// process: a crashed service recovers in a new process, with none of
/// this one's allocations to reuse, and the recovered engine does not
/// count in this process's memory high-water mark. Each round starts
/// from the same files (recovery adds a WAL segment to the directory it
/// opens) and from a clean page cache. Returns `None` when the round
/// failed.
fn recover_once(
    exe: &Path,
    dirs: &Dirs,
    acked: (u64, u64),
    report: &mut Report,
) -> Option<Recovery> {
    let dir = dirs.get("recovering");
    copy_dir(&dirs.get("crash"), &dir);
    flush_file_system();
    let out = match std::process::Command::new(exe)
        .arg(RECOVER_FLAG)
        .arg(&dir)
        .output()
    {
        Ok(out) if out.status.success() => out,
        Ok(out) => {
            report.fail(format!(
                "recovery round failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
            return None;
        }
        Err(e) => {
            report.fail(format!("recovery round did not start: {e}"));
            return None;
        }
    };
    let line = String::from_utf8_lossy(&out.stdout);
    let f: Vec<f64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    let [secs, load_s, replayed, tcs, data] = f[..] else {
        report.fail(format!("recovery round printed `{}`", line.trim()));
        return None;
    };
    if (tcs as u64, data as u64) != acked {
        report.fail(format!(
            "recovered epochs {:?} differ from the last acknowledged {acked:?}",
            (tcs, data)
        ));
    }
    Some(Recovery {
        secs,
        load_s,
        replayed_ops: replayed as u64,
    })
}

/// Truncates the copy's newest WAL segment right after the record at
/// `epochs`, leaving a torn fragment of the next frame: what a power
/// loss leaves when nothing after that record reached the disk.
fn lose_unflushed(dir: &Path, epochs: (u64, u64)) -> bool {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read crash image")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .collect();
    segments.sort();
    let Some(last) = segments.last() else {
        return false;
    };
    let bytes = std::fs::read(last).expect("read segment");
    let mut pos = 8; // segment magic
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        let rec = WalRecord::decode_payload(&bytes[pos + 8..end]).expect("logged record");
        if matches!(rec, WalRecord::Op { .. }) && rec.epochs() == epochs {
            let cut = (end + 3).min(bytes.len());
            std::fs::write(last, &bytes[..cut]).expect("truncate segment");
            return true;
        }
        pos = end;
    }
    false
}

/// `durable_churn`'s end of load: a write that must be flushed (sent
/// after a full fsync interval of silence), then writes up to a fixed
/// distance past the last checkpoint. Returns the flushed write's
/// epochs.
fn barrier_and_tail(
    conn: &mut Conn,
    lane: &mut LaneStream,
    engine: &Engine,
    replies: &mut Replies,
    report: &mut Report,
) -> (u64, u64) {
    std::thread::sleep(FSYNC_INTERVAL + Duration::from_millis(20));
    let mut flushed = None;
    loop {
        let req = lane.next();
        let outcome = match conn.round_trip(&req) {
            Ok(reply) => Outcome::of_reply(req.verb, &reply),
            Err(e) => {
                report.fail(format!("tail request failed: {e}"));
                return flushed.unwrap_or_default();
            }
        };
        replies.push(req.verb, outcome);
        if outcome.is_applied_write() {
            match flushed {
                None => flushed = Some(engine.epochs()),
                Some(_) if applied_writes(engine) % CHECKPOINT_EVERY == CRASH_TAIL_OPS => break,
                Some(_) => {}
            }
        }
    }
    flushed.expect("set before the loop ends")
}

/// On `durable_churn`, [`barrier_and_tail`] on lane 0: returns the
/// flushed write's epochs. Other workloads log no writes and need no
/// tail.
fn tail(
    workload: Workload,
    conns: &mut [Conn; 2],
    lanes: &mut [LaneStream; 2],
    engine: &Engine,
    replies: &mut [Replies; 2],
    report: &mut Report,
) -> Option<(u64, u64)> {
    (workload == Workload::DurableChurn).then(|| {
        barrier_and_tail(
            &mut conns[0],
            &mut lanes[0],
            engine,
            &mut replies[0],
            report,
        )
    })
}

/// Checks every recorded reply against a sequential replay of the same
/// lane streams through a shadow session over `session`. A chunk whose
/// digest differs fails all its requests; in a matching chunk, the
/// unsound replies fail.
fn verify(spec: &Spec, session: &Session, lanes: &[Replies; 2], report: &mut Report) {
    let mut shadow = Shadow::new(session, INITIAL_EPOCHS, CacheCaps::MEMO);
    let mut memo: HashMap<String, Outcome> = HashMap::new();
    let mut off = Tracer::off();
    for (lane, got) in lanes.iter().enumerate() {
        let mut stream = spec.lane(lane);
        let mut expected = Replies::default();
        for _ in 0..got.count() {
            let req = stream.next();
            // k-MCS and MCG results are not cached by the service; the
            // checker memoizes them by request text.
            let outcome = if matches!(req.verb, Verb::Generalize | Verb::Specialize) {
                *memo
                    .entry(req.line.clone())
                    .or_insert_with(|| shadow.handle(&req, &mut off))
            } else {
                shadow.handle(&req, &mut off)
            };
            expected.push(req.verb, outcome);
        }
        let mut first = 0;
        for (g, e) in got.chunks().iter().zip(expected.chunks()) {
            let span = format!("lane {lane} requests {first}..{}", first + g.len);
            if g.digest != e.digest {
                report.fail_n(
                    g.len.into(),
                    format!("{span}: replies differ from the shadow session's"),
                );
            } else if g.unsound > 0 {
                report.fail_n(
                    g.unsound.into(),
                    format!(
                        "{span}: {} error replies or invalid certificates",
                        g.unsound
                    ),
                );
            }
            first += g.len;
        }
    }
}

/// Runs the untraced benchmark: end-to-end metrics.
pub fn run(cfg: &Config) -> Report {
    let p = params(cfg.workload);
    let mut spec = Spec::generate(cfg.workload, cfg.seed);
    let dirs = Dirs::new(cfg);
    // The image takes the generator's copy of the session, so the
    // process's memory high-water mark is the service's; the checker
    // generates the session again after the run.
    write_image(std::mem::take(&mut spec.session), &dirs.get("image"));
    let mut report = Report::default();

    // The first set-up is the one put under load; the other timed rounds
    // run after the crash. Every set-up's threads leave allocator arenas
    // behind, so rounds before the load would raise the memory
    // high-water mark with their number.
    let (service, secs) = set_up(&spec, &dirs, &mut report);
    let mut setups = vec![secs];
    let addr = service.server.local_addr();
    let mut conns = [
        Conn::connect(addr).expect("connect"),
        Conn::connect(addr).expect("connect"),
    ];
    let mut lanes = [spec.lane(0), spec.lane(1)];
    let mut replies = [Replies::default(), Replies::default()];

    // The load: cycles of a closed-loop slice (throughput at a fixed
    // pipelining window) and an open-loop slice (latency at the
    // workload's fixed rate, from due time).
    let load_secs = cfg.seconds * LOAD_SHARE;
    let cycles = ((load_secs / CYCLE_SECS).round() as usize).max(1);
    let closed_secs = load_secs / cycles as f64 * CLOSED_SHARE;
    let open_secs = load_secs / cycles as f64 - closed_secs;
    let window_secs = WINDOW_SECS.min(closed_secs);
    let mut rates = Vec::new();
    let mut completed = 0u64;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut lags = Vec::new();
    let mut recoveries = Vec::new();
    // One closed-loop slice first, not counted: the warm-up requests do
    // no writes, so the first checkpoint and the write path's first
    // allocations would otherwise fall in the first measured slice.
    let warm = closed_phase(&mut conns, &mut lanes, &mut replies, p.windows, closed_secs);
    fail_unanswered(&warm, &mut report);
    for cycle in 0..cycles {
        let closed = closed_phase(&mut conns, &mut lanes, &mut replies, p.windows, closed_secs);
        fail_unanswered(&closed, &mut report);
        // Whole windows before the slice's end only: the drain after it
        // is not counted.
        rates.extend((0..((closed_secs / window_secs) as usize).max(1)).map(|w| {
            let n: u32 = closed
                .iter()
                .map(|l| l.completed.get(w).copied().unwrap_or(0))
                .sum();
            f64::from(n) / window_secs
        }));
        completed += closed
            .iter()
            .flat_map(|l| &l.completed)
            .map(|&n| u64::from(n))
            .sum::<u64>();

        let origin = Instant::now();
        let open = phase(
            &mut conns,
            &mut lanes,
            &mut replies,
            open_pacing(p, open_secs, origin),
            origin,
        );
        fail_unanswered(&open, &mut report);
        // Due times on one clock over every open-loop slice.
        let offset = cycle as f64 * open_secs;
        for log in &open {
            for s in &log.samples {
                lags.push(s.lag_us());
                let lat = if s.outcome.is_sound() {
                    s.latency_us()
                } else {
                    f64::INFINITY
                };
                let kind = if s.verb.is_write() {
                    &mut writes
                } else {
                    &mut reads
                };
                kind.push((offset + s.due_secs(), lat));
            }
            reads.extend(std::iter::repeat_n(
                (offset + open_secs, f64::INFINITY),
                log.unanswered,
            ));
        }

        // Crash images of the running service, recovered in between
        // slices, so the recoveries also spread over the whole run.
        tail(
            cfg.workload,
            &mut conns,
            &mut lanes,
            &service.engine,
            &mut replies,
            &mut report,
        );
        let acked = crash_image(&service.engine, &dirs);
        for _ in 0..RECOVERIES_PER_CYCLE {
            std::thread::sleep(ROUND_GAP);
            recoveries.extend(recover_once(&cfg.exe, &dirs, acked, &mut report));
        }
    }
    let rss = peak_rss_mb();

    let flushed = tail(
        cfg.workload,
        &mut conns,
        &mut lanes,
        &service.engine,
        &mut replies,
        &mut report,
    );
    drop(conns);
    let applied = applied_writes(&service.engine);
    let acked = crash(service, &dirs, flushed, &mut report);

    // Set-up rounds, each with one more recovery of the final crash
    // image, over the rest of the run.
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * (1.0 - LOAD_SHARE));
    while setups.len() <= MIN_ROUNDS || Instant::now() < deadline {
        std::thread::sleep(ROUND_GAP);
        recoveries.extend(recover_once(&cfg.exe, &dirs, acked, &mut report));
        std::thread::sleep(ROUND_GAP);
        let (s, secs) = set_up(&spec, &dirs, &mut report);
        setups.push(secs);
        s.server.stop();
    }

    report.attempted += replies.iter().map(Replies::count).sum::<u64>();
    let session = Spec::generate(cfg.workload, cfg.seed).session;
    verify(&spec, &session, &replies, &mut report);

    let rec_secs: Vec<f64> = recoveries.iter().map(|r| r.secs).collect();
    let n_setup = setups.len();
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "(median of {n_setup} set-ups, quartiles {:.4} to {:.4} s)",
            quantile(&setups, 0.25),
            quantile(&setups, 0.75)
        ),
    );
    report.metric(
        "throughput_rps",
        median(&rates),
        "req/s",
        format!(
            "(median of {} windows over {cycles} slices; {completed} replies, windows {:?})",
            rates.len(),
            p.windows
        ),
    );
    let open_total = open_secs * cycles as f64;
    for (kind, xs) in [("read", &reads), ("write", &writes)] {
        let per_window = windows(xs, open_total);
        let p50s: Vec<f64> = per_window.iter().map(|w| quantile(w, 0.5)).collect();
        let p99s: Vec<f64> = per_window.iter().map(|w| quantile(w, 0.99)).collect();
        let all: Vec<f64> = xs.iter().map(|&(_, l)| l).collect();
        report.metric(
            &format!("{kind}_p50_us"),
            median(&p50s),
            "us",
            format!(
                "(median of {} windows; pooled {})",
                p50s.len(),
                latency_note(&all)
            ),
        );
        report.info(format!(
            "{kind}_p99_us {:.1} us (median of {} windows, from {:.0} to {:.0} us; pooled p99 {:.1} us over {} samples)",
            median(&p99s),
            p99s.len(),
            quantile(&p99s, 0.0),
            quantile(&p99s, 1.0),
            quantile(&all, 0.99),
            all.len()
        ));
    }
    report.info(format!(
        "open loop {} req/s, generator lag p99 {:.1} us, applied writes {applied}",
        p.rate,
        quantile(&lags, 0.99)
    ));
    report.metric(
        "recovery_s",
        quantile(&rec_secs, RECOVERY_QUANTILE),
        "s",
        format!(
            "(5th percentile of {}, quartiles {:.4} to {:.4} s; {} ops replayed)",
            rec_secs.len(),
            quantile(&rec_secs, 0.25),
            quantile(&rec_secs, 0.75),
            recoveries.last().map_or(0, |r| r.replayed_ops)
        ),
    );
    report.metric("peak_rss_mb", rss, "MB", String::new());
    report
}

fn handle_span(verb: Verb) -> &'static str {
    match verb {
        Verb::Check => "engine.handle.check",
        Verb::Why => "engine.handle.why",
        Verb::Eval => "engine.handle.eval",
        Verb::Generalize => "engine.handle.generalize",
        Verb::Specialize => "engine.handle.specialize",
        Verb::Guaranteed => "engine.handle.guaranteed",
        Verb::Assert => "engine.handle.assert",
        Verb::Retract => "engine.handle.retract",
    }
}

/// A fresh engine and shadow at the state of a freshly set-up service:
/// image loaded, warm-up replayed through both.
fn fresh_pair(spec: &Spec, dirs: &Dirs, name: &str) -> (Arc<Engine>, Shadow) {
    let engine_dir = dirs.get(&format!("{name}-engine"));
    let shadow_dir = dirs.get(&format!("{name}-shadow"));
    copy_dir(&dirs.get("image"), &engine_dir);
    copy_dir(&dirs.get("image"), &shadow_dir);
    let engine = open_engine(&engine_dir);
    let mut shadow = Shadow::new(&spec.session, INITIAL_EPOCHS, CacheCaps::ENGINE);
    shadow.attach_store(&shadow_dir, store_options(), CHECKPOINT_EVERY);
    let mut off = Tracer::off();
    for req in &spec.warmup {
        engine.handle(&req.line);
        shadow.handle(req, &mut off);
    }
    (engine, shadow)
}

/// Replays `seq` through `engine` and `shadow`, each request once
/// through `Engine::handle` and once through the shadow's layer calls.
/// Returns the replies' outcomes and the elapsed seconds.
fn replay(
    engine: &Engine,
    shadow: &mut Shadow,
    seq: &[Request],
    tr: &mut Tracer,
) -> (Vec<(Outcome, Outcome)>, f64) {
    let start = Instant::now();
    let mut out = Vec::with_capacity(seq.len());
    for (i, req) in seq.iter().enumerate() {
        tr.set_request(i as u64);
        let root = tr.begin("request");
        let reply = tr.span(handle_span(req.verb), || engine.handle(&req.line));
        let sh = tr.begin("shadow");
        let predicted = shadow.handle(req, tr);
        tr.end(sh);
        tr.end(root);
        out.push((Outcome::of_reply(req.verb, &reply), predicted));
    }
    (out, start.elapsed().as_secs_f64())
}

/// Runs the traced benchmark: per-layer metrics.
pub fn run_traced(cfg: &Config) -> Report {
    let p = params(cfg.workload);
    let spec = Spec::generate(cfg.workload, cfg.seed);
    let dirs = Dirs::new(cfg);
    write_image(spec.session.clone(), &dirs.get("image"));
    let mut report = Report::default();
    let (service, _) = set_up(&spec, &dirs, &mut report);
    let addr = service.server.local_addr();
    let mut lanes = [spec.lane(0), spec.lane(1)];
    let seq: Vec<Request> = (0..p.trace_requests).map(|i| lanes[i % 2].next()).collect();

    // Window 1 over TCP: the round trip of every request of `seq`.
    let mut conns = [
        Conn::connect(addr).expect("connect"),
        Conn::connect(addr).expect("connect"),
    ];
    let mut rtts = Vec::with_capacity(seq.len());
    let mut tcp_outcomes = Vec::with_capacity(seq.len());
    for req in &seq {
        let start = Instant::now();
        let outcome = match conns[0].round_trip(req) {
            Ok(reply) => Outcome::of_reply(req.verb, &reply),
            Err(_) => Outcome::Error,
        };
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
        tcp_outcomes.push(outcome);
    }

    // A short open-loop phase: how late the generator runs.
    let open_secs = cfg.seconds * 0.4;
    let origin = Instant::now();
    let mut replies = [Replies::default(), Replies::default()];
    let open = phase(
        &mut conns,
        &mut lanes,
        &mut replies,
        open_pacing(p, open_secs, origin),
        origin,
    );
    let lags: Vec<f64> = open
        .iter()
        .flat_map(|l| l.samples.iter().map(Sample::lag_us))
        .collect();
    for (log, replies) in open.iter().zip(&replies) {
        report.attempted += replies.count() + log.unanswered as u64;
        fail_unsound("open-loop", replies, log.unanswered, &mut report);
    }
    drop(conns);
    let acked = crash(service, &dirs, None, &mut report);
    let rounds: Vec<Recovery> = (0..TRACE_RECOVERIES)
        .filter_map(|_| {
            std::thread::sleep(ROUND_GAP);
            recover_once(&cfg.exe, &dirs, acked, &mut report)
        })
        .collect();
    let recovery_s = median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>());
    let load_s = median(&rounds.iter().map(|r| r.load_s).collect::<Vec<_>>());
    let replayed_ops = rounds.last().map_or(0, |r| r.replayed_ops);

    // The same sequence in-process, untraced and traced, each on a
    // fresh engine and shadow.
    let untraced_secs = {
        let (engine, mut shadow) = fresh_pair(&spec, &dirs, "untraced");
        replay(&engine, &mut shadow, &seq, &mut Tracer::off()).1
    };
    let (engine, mut shadow) = fresh_pair(&spec, &dirs, "traced");
    let before = engine_metrics(&engine);
    let counts_before = shadow.counts();
    let mut tr = Tracer::on();
    let (outcomes, traced_secs) = replay(&engine, &mut shadow, &seq, &mut tr);
    await_checkpoints(&engine);
    let after = engine_metrics(&engine);
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let counts = shadow.counts();

    report.attempted += 2 * seq.len() as u64;
    for (i, (req, ((got, predicted), tcp))) in seq
        .iter()
        .zip(outcomes.iter().zip(&tcp_outcomes))
        .enumerate()
    {
        if got != predicted || tcp != predicted || !got.is_sound() {
            report.fail(format!(
                "trace request {i} `{}`: engine {got:?}, over TCP {tcp:?}, shadow {predicted:?}",
                req.line
            ));
        }
    }
    let mirrored = [
        (
            "verdict_cache",
            counts.verdict.0 - counts_before.verdict.0,
            counts.verdict.1 - counts_before.verdict.1,
        ),
        (
            "answer_cache",
            counts.answer.0 - counts_before.answer.0,
            counts.answer.1 - counts_before.answer.1,
        ),
        (
            "plan_cache",
            counts.plan.0 - counts_before.plan.0,
            counts.plan.1 - counts_before.plan.1,
        ),
        (
            "cert.cache",
            counts.why.0 - counts_before.why.0,
            counts.why.1 - counts_before.why.1,
        ),
    ];
    for (cache, hits, misses) in mirrored {
        let (eh, em) = (
            delta(&format!("{cache}.hits")),
            delta(&format!("{cache}.misses")),
        );
        // The per-layer split describes the engine only if the shadow
        // probed, missed and computed on the same requests.
        if (eh, em) != (hits as f64, misses as f64) {
            report.fail(format!(
                "the shadow's {cache} made {hits} hits and {misses} misses, \
                 the engine's {eh} and {em}"
            ));
        }
    }

    let spans = tr.spans();
    let summary = trace::summarize(spans);
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let name = cfg.workload.name();
    std::fs::write(
        cfg.out_dir.join(format!("spans-{name}.tsv")),
        trace::render_spans(spans),
    )
    .expect("write span file");
    std::fs::write(
        cfg.out_dir.join(format!("layers-{name}.tsv")),
        trace::render_summary(&summary),
    )
    .expect("write layer summary");

    let mut handle_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| trace::is_handle(s.name)) {
        handle_us.insert(s.request, s.duration() as f64 / 1e3);
    }
    let overhead: Vec<f64> = rtts
        .iter()
        .enumerate()
        .filter_map(|(i, rtt)| handle_us.get(&(i as u64)).map(|h| rtt - h))
        .collect();
    report.metric(
        "net.overhead_us",
        median(&overhead),
        "us",
        format!(
            "(median of {} window-1 round trips minus Engine::handle)",
            overhead.len()
        ),
    );
    report.metric(
        "loadgen.lag_p99_us",
        quantile(&lags, 0.99),
        "us",
        format!("(n={})", lags.len()),
    );
    for verb in Verb::ALL {
        let stat = summary
            .layers
            .get(handle_span(verb))
            .cloned()
            .unwrap_or_default();
        report.metric(
            &format!("engine.handle_us.{}", verb.name()),
            stat.median_us,
            "us",
            format!("(calls={})", stat.calls),
        );
    }
    report.metric(
        "engine.unaccounted_us",
        summary.unaccounted_median_us(),
        "us",
        format!(
            "(requests={}; handle {:.0} us = layers {:.0} us + unaccounted {:.0} us)",
            summary.unaccounted_us.len(),
            summary.handle_total_us,
            summary.layer_total_us,
            summary.unaccounted_us.iter().sum::<f64>()
        ),
    );
    for (metric, cache) in [
        ("cache.verdict.hit_ratio", "verdict_cache"),
        ("cache.answer.hit_ratio", "answer_cache"),
        ("cache.plan.hit_ratio", "plan_cache"),
        ("cache.cert.hit_ratio", "cert.cache"),
    ] {
        let (h, m) = (
            delta(&format!("{cache}.hits")),
            delta(&format!("{cache}.misses")),
        );
        report.metric(
            metric,
            ratio(h, h + m),
            "ratio",
            format!("(hits={h} misses={m})"),
        );
    }
    for (metric, layer) in [
        ("parser.parse_us", "parser.parse"),
        ("completeness.canon_us", "completeness.canon"),
        ("completeness.check_us", "completeness.check"),
        ("completeness.certify_us", "completeness.certify"),
        ("completeness.mcg_us", "completeness.mcg"),
        ("completeness.k_mcs_us", "completeness.k_mcs"),
        ("cert.check_us", "cert.check"),
        ("exec.compile_us", "exec.compile"),
        ("exec.answers_us", "exec.answers"),
        ("relalg.cow_write_us", "relalg.cow_write"),
        ("datalog.insert_us", "datalog.insert"),
        ("datalog.retract_us", "datalog.retract"),
        ("storage.append_us", "storage.append"),
    ] {
        let stat = summary.layers.get(layer).cloned().unwrap_or_default();
        report.metric(
            metric,
            stat.median_us,
            "us",
            format!("(calls={})", stat.calls),
        );
    }
    let unify = counts.unify_calls - counts_before.unify_calls;
    report.metric(
        "completeness.k_mcs.unify_calls",
        unify as f64,
        "count",
        String::new(),
    );
    let answers = (counts.answers_executed - counts_before.answers_executed) as f64;
    let scanned = delta("exec.scanned");
    report.metric(
        "exec.scanned_per_answer",
        ratio(scanned, answers),
        "ratio",
        format!("(scanned={scanned} answers={answers})"),
    );
    let (over, rederived) = (delta("dred.overdeleted"), delta("dred.rederived"));
    report.metric("datalog.dred.overdeleted", over, "count", String::new());
    report.metric(
        "datalog.dred.rederive_ratio",
        ratio(rederived, over),
        "ratio",
        format!("(rederived={rederived})"),
    );
    let appends = delta("wal.appends");
    report.metric(
        "storage.wal_bytes_per_op",
        ratio(delta("wal.bytes"), appends),
        "B/op",
        format!("(appends={appends})"),
    );
    report.metric(
        "storage.fsyncs_per_op",
        ratio(delta("wal.fsyncs"), appends),
        "1/op",
        String::new(),
    );
    let ckpt = summary
        .layers
        .get("storage.checkpoint")
        .cloned()
        .unwrap_or_default();
    report.metric(
        "storage.checkpoint_ms",
        ckpt.median_us / 1e3,
        "ms",
        format!("(calls={})", ckpt.calls),
    );
    report.metric(
        "storage.checkpoints",
        delta("checkpoint.count"),
        "count",
        String::new(),
    );
    report.metric(
        "storage.load_s",
        load_s,
        "s",
        format!("(median of {TRACE_RECOVERIES})"),
    );
    report.metric(
        "storage.replayed_ops",
        replayed_ops as f64,
        "count",
        String::new(),
    );
    report.metric(
        "engine.replay_s",
        recovery_s - load_s,
        "s",
        format!("(recovery {recovery_s:.4} s minus load, medians)"),
    );
    report.metric(
        "trace.overhead_pct",
        ratio(traced_secs - untraced_secs, untraced_secs) * 100.0,
        "%",
        format!("(traced {traced_secs:.3} s vs untraced {untraced_secs:.3} s)"),
    );
    report
}
