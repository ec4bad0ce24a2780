//! The two workloads as the command line runs them.
//!
//! Every untraced run prints every end-to-end metric. A workload measures
//! its own path at full size; the other paths run beside it as probes
//! (13 days of a 1,008-server fleet, eight landings of 1,000 commits on a
//! 600-entry tree, forty-eight passes of 42 chunks of serving), so their
//! metrics are real measurements of the same code on a smaller input. The
//! serving path is a probe in both workloads. The three paths take turns
//! in sixty rounds, each round doing a sixtieth of every path's work:
//! the host's speed drifts over seconds, and interleaving makes every path
//! sample the whole run instead of one window. `setup_s` is the
//! workload's own setup; `peak_rss_mb` is the peak of the whole process.
//!
//! The amount of work is fixed by `--seconds` (sized so a whole run,
//! checks included, takes about that long on a 2-vCPU x86 VM), never by
//! the clock, so runs of the same seed do identical work and their
//! counters repeat exactly.
//!
//! A traced run (`--trace 1`) measures every path untraced and then
//! traced on the same inputs: the workload's own path on one day of the
//! fleet or one landing's commits, the others as smaller probes. It prints
//! every path's share table and tracing overhead and reports the per-layer
//! metrics.

use std::fmt::Write as _;

use crate::report::{median, peak_rss_mb, repeat_setup, time_setup, Metrics, ShareTable, Tally};
use crate::{commit, fleet, serve};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 20,000-server diurnal commit day.
    FleetDay,
    /// Closed-loop commits on a 5,000-entry tree.
    CommitStream,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_day" => Some(Workload::FleetDay),
            "commit_stream" => Some(Workload::CommitStream),
            _ => None,
        }
    }
}

/// End-to-end metric names, in print order.
pub const END_TO_END: [&str; 13] = [
    "setup_s",
    "peak_rss_mb",
    "fleet_sim_speed",
    "fleet_proxy_updates_per_s",
    "fleet_propagation_p50_ms",
    "fleet_propagation_p9999_ms",
    "commit_p50_ms",
    "commit_p99_ms",
    "commits_per_s",
    "serve_checks_per_s",
    "serve_pull_p50_us",
    "serve_pull_p99_us",
    "serve_update_p50_us",
];

/// Tracing-overhead metric names, printed last in a traced run.
pub const TRACE_METRICS: [&str; 3] = [
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_s",
];

/// Setups made per run, so `setup_s` is a median.
const SETUPS: usize = 3;
/// Rounds an untraced run interleaves its paths in. A round's slice of
/// serving is shorter than a pass, so the passes of one op fall in as
/// many separate stretches of the run.
const ROUNDS: u64 = 60;
/// A fleet setup is timed after every this many rounds, twenty times a
/// run: enough for a steady median, while each one builds a second
/// 20k-node fleet beside the running day, which costs time and memory.
const FLEET_SETUP_EVERY: u64 = 3;
/// Seconds the probes and the checks take together on the reference host
/// (a 2-vCPU x86 VM). The rest of `--seconds` goes to the workload's own
/// path, so a whole run, checks included, takes about `--seconds`.
const PROBES_S: f64 = 15.0;
/// Work of the workload's own path per second left after the probes:
/// 20,000-node days (one takes about 10 s), commits on the 5,000-entry
/// tree (its setups and checks included).
const DAYS_PER_S: f64 = 0.1;
const COMMITS_PER_S: f64 = 140.0;
/// Probe work: 1,008-node days, commits per replay (p99 needs ten
/// samples beyond it) and replays, chunks of serving per pass. The commit
/// and serve p99s take each op at its fastest replay, so they need a
/// replay in a quiet stretch of the host for all but 1% of the ops: more,
/// shorter replays give them that.
const PROBE_DAYS: usize = 13;
const PROBE_COMMITS: usize = 1_000;
const PROBE_LANDINGS: usize = 8;
const PROBE_CHUNKS: usize = 42;
/// Probe work of a traced run: commits, chunks of serving.
const TRACE_PROBE_COMMITS: usize = 500;
const TRACE_PROBE_CHUNKS: usize = 1_000;

/// The workload's own work for a run of `seconds`: `per_s` per second
/// left after the probes, and at least `min`.
fn own_work(per_s: f64, seconds: f64, min: usize) -> usize {
    ((per_s * (seconds - PROBES_S).max(0.0)).round() as usize).max(min)
}

/// What a run prints: a correctness tally, its metrics, and readable
/// lines for the log.
#[derive(Debug, Default)]
pub struct Output {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics, in print order.
    pub metrics: Metrics,
    /// Human-readable lines.
    pub text: String,
}

/// One path of an untraced run with its fixed amount of work.
enum Path {
    Fleet(fleet::Fleet),
    Commit(commit::Replays),
    Serve(serve::Replays),
}

impl Path {
    /// Does the path's work up to `round` of `ROUNDS`.
    fn run_to(&mut self, round: u64) {
        let part = |total: usize| (total as u64 * round / ROUNDS) as usize;
        match self {
            Path::Fleet(f) => f.run_to(f.total_steps() * round / ROUNDS),
            Path::Commit(c) => c.run_to(part(c.total())),
            Path::Serve(s) => s.run_to(part(s.total())),
        }
    }

    /// Checks the path's outputs and returns its end-to-end metrics.
    fn report(self, label: &str, out: &mut Output) -> Metrics {
        match self {
            Path::Fleet(f) => {
                let shape = f.shape();
                let d = f.finish();
                let _ = writeln!(out.text, "{}", fleet::describe(label, shape, &d));
                out.tally.merge(d.tally.clone());
                fleet::end_to_end(&d)
            }
            Path::Commit(c) => {
                let _ = writeln!(out.text, "{}", commit::describe(label, c.tree(), &c.done));
                out.tally.merge(c.check());
                commit::end_to_end(&c.done)
            }
            Path::Serve(s) => {
                let _ = writeln!(out.text, "{}", serve::describe(label, &s.done));
                out.tally.merge(s.check());
                serve::end_to_end(&s.done)
            }
        }
    }
}

/// An untraced run: the workload's own path at full size and the other
/// two as probes, interleaved in rounds.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let probe_fleet = || Path::Fleet(fleet::Fleet::new(fleet::PROBE, seed, PROBE_DAYS));
    let probe_commit = || {
        let corpus = commit::Corpus::new(commit::PROBE, seed);
        let first = commit::setup(&corpus);
        Path::Commit(commit::Replays::new(
            corpus,
            commit::PROBE,
            seed,
            PROBE_COMMITS,
            PROBE_LANDINGS,
            first,
        ))
    };
    let probe_serve = || {
        Path::Serve(serve::Replays::new(
            serve::World::new(seed),
            seed,
            PROBE_CHUNKS,
        ))
    };

    // The workload's own path, after its timed setups. A fleet setup takes
    // milliseconds, so it is also timed after every `FLEET_SETUP_EVERY`th
    // round and its median samples the whole run; a commit setup (the cold
    // compile of the tree) is timed `SETUPS` times up front.
    let fleet_setup =
        |sched: &fleet::Schedule| time_setup(|| fleet::setup(fleet::DAY, sched, seed, false));
    let (mut setup_s, mut paths, labels, fleet_sched) = match w {
        Workload::FleetDay => {
            let f = fleet::Fleet::new(fleet::DAY, seed, own_work(DAYS_PER_S, seconds, 1));
            let sched = f.schedule().clone();
            (
                (0..SETUPS).map(|_| fleet_setup(&sched)).collect(),
                [Path::Fleet(f), probe_commit(), probe_serve()],
                ["fleet_day", "commit probe", "serve probe"],
                Some(sched),
            )
        }
        Workload::CommitStream => {
            let corpus = commit::Corpus::new(commit::STREAM, seed);
            let (times, state) = repeat_setup(SETUPS, || commit::setup(&corpus));
            // Each replay lands its share of the commits.
            let per_landing = COMMITS_PER_S / commit::LANDINGS as f64;
            let commits = own_work(per_landing, seconds, commit::MIN_COMMITS);
            (
                times,
                [
                    Path::Commit(commit::Replays::new(
                        corpus,
                        commit::STREAM,
                        seed,
                        commits,
                        commit::LANDINGS,
                        state,
                    )),
                    probe_fleet(),
                    probe_serve(),
                ],
                ["commit_stream", "fleet probe", "serve probe"],
                None,
            )
        }
    };
    for round in 1..=ROUNDS {
        for p in paths.iter_mut().rev() {
            p.run_to(round);
        }
        if let Some(sched) = fleet_sched
            .as_ref()
            .filter(|_| round % FLEET_SETUP_EVERY == 0)
        {
            setup_s.push(fleet_setup(sched));
        }
    }
    // Each later landing of the commit stream set up a fresh tree too.
    if let Path::Commit(c) = &paths[0] {
        setup_s.extend(&c.setup_s);
    }
    // The peak of the whole process over the measured work, probes
    // included. The checks come after: the commit landings' legacy
    // rebuilds and the serving path's optimizer-off replay.
    let rss = peak_rss_mb();
    let mut all = Metrics::default();
    for (p, label) in paths.into_iter().zip(labels) {
        all.extend(p.report(label, &mut out));
    }
    out.metrics.push("setup_s", median(&setup_s), "s");
    out.metrics.push("peak_rss_mb", rss, "MiB");
    for name in &END_TO_END[2..] {
        let m = all
            .0
            .iter()
            .find(|m| m.name == *name)
            .expect("every end-to-end metric comes from one path");
        out.metrics.0.push(m.clone());
    }
    out
}

/// One path measured untraced and then traced on the same inputs.
struct TracedPath {
    layer: Metrics,
    table: ShareTable,
    untraced_s: f64,
    traced_s: f64,
}

fn trace_fleet(shape: fleet::Shape, seed: u64, out: &mut Output) -> TracedPath {
    let t = fleet::traced(shape, seed);
    out.tally.merge(t.plain.tally.clone());
    out.tally.merge(t.traced.tally.clone());
    let same = t.plain.events == t.traced.events
        && t.plain.proxy_updates == t.traced.proxy_updates
        && t.plain.p50_ms == t.traced.p50_ms;
    out.tally.record(1, u64::from(!same), || {
        "fleet: the profiled day diverged from the plain one".to_string()
    });
    TracedPath {
        layer: fleet::per_layer(&t),
        table: fleet::share_table(&t.traced),
        untraced_s: t.plain.wall_s,
        traced_s: t.traced.wall_s,
    }
}

fn trace_commit(tree: commit::Tree, n: usize, seed: u64, out: &mut Output) -> TracedPath {
    let corpus = commit::Corpus::new(tree, seed);
    let pass = |traced: bool| {
        let mut state = commit::setup(&corpus);
        let mut stream = commit::Stream::new(tree, seed);
        let mut pass = commit::Pass::default();
        commit::run(&mut state, &mut stream, &mut pass, n, traced);
        (pass, state)
    };
    let (plain, a) = pass(false);
    drop(a);
    let (traced, b) = pass(true);
    out.tally.merge(plain.tally.clone());
    out.tally.merge(traced.tally.clone());
    let same = (
        plain.compiled,
        plain.candidates,
        plain.skipped,
        plain.drained,
    ) == (
        traced.compiled,
        traced.candidates,
        traced.skipped,
        traced.drained,
    );
    out.tally.record(1, u64::from(!same), || {
        "commit: the traced pass compiled or drained differently".to_string()
    });
    out.tally.merge(commit::check_final(&commit::landed(&b)));
    TracedPath {
        layer: commit::per_layer(&plain, &traced, &b),
        table: commit::share_table(&traced),
        untraced_s: plain.wall_s,
        traced_s: traced.wall_s,
    }
}

fn trace_serve(chunks: usize, seed: u64, out: &mut Output) -> TracedPath {
    let world = serve::World::new(seed);
    let pass = |traced: bool| {
        let mut stack = serve::setup(&world, true);
        let mut stream = serve::Stream::new(seed);
        let mut pass = serve::Pass::default();
        serve::run(&mut stack, &world, &mut stream, &mut pass, chunks, traced);
        pass
    };
    let plain = pass(false);
    let traced = pass(true);
    let same = plain.hashes() == traced.hashes();
    out.tally.record(0, u64::from(!same), || {
        "serve: the traced pass answered differently".to_string()
    });
    out.tally.merge(serve::check_replay(&world, seed, &plain));
    TracedPath {
        layer: serve::per_layer(&traced),
        table: serve::share_table(&traced),
        untraced_s: plain.wall_s(),
        traced_s: traced.wall_s(),
    }
}

/// A traced run: every path measured untraced and then traced on the same
/// inputs, one after another. The workload's own path runs on one day of
/// the fleet or one landing's commits; the others run as smaller probes,
/// so every layer reports measured numbers. The `trace.*` metrics are the
/// workload's own path's.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let own = |x: Workload| w == x;
    let f = trace_fleet(
        if own(Workload::FleetDay) {
            fleet::DAY
        } else {
            fleet::PROBE
        },
        seed,
        &mut out,
    );
    let (tree, commits) = if own(Workload::CommitStream) {
        (
            commit::STREAM,
            own_work(
                COMMITS_PER_S / commit::LANDINGS as f64,
                seconds,
                commit::MIN_COMMITS,
            ),
        )
    } else {
        (commit::PROBE, TRACE_PROBE_COMMITS)
    };
    let c = trace_commit(tree, commits, seed, &mut out);
    let s = trace_serve(TRACE_PROBE_CHUNKS, seed, &mut out);
    for (label, p) in [("fleet", &f), ("commit", &c), ("serve", &s)] {
        let _ = write!(out.text, "{}", p.table.render());
        let _ = writeln!(
            out.text,
            "{label} tracing overhead: {:.4} s (traced {:.4} s - untraced {:.4} s)",
            p.traced_s - p.untraced_s,
            p.traced_s,
            p.untraced_s
        );
    }
    let mine = match w {
        Workload::FleetDay => &f,
        Workload::CommitStream => &c,
    };
    let (untraced_s, traced_s) = (mine.untraced_s, mine.traced_s);
    for p in [f, c, s] {
        out.metrics.extend(p.layer);
    }
    out.metrics.push(TRACE_METRICS[0], untraced_s, "s");
    out.metrics.push(TRACE_METRICS[1], traced_s, "s");
    out.metrics
        .push(TRACE_METRICS[2], traced_s - untraced_s, "s");
    out
}
