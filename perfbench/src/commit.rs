//! `commit_stream`: one closed-loop mutator landing seeded commits on a
//! config tree of about 5,000 entries, each followed by a tailer drain.
//!
//! The mix follows §6.1 of the paper: most commits are small. Of every 20
//! commits, 12 edit one entry (gitstore and the tailer dominate), 7
//! rewrite a raw config through `Mutator::update_raw` (no compile;
//! automation writes most raw configs), and 1 edits a hot shared module
//! that ripples to about 100 dependents (cdsl dominates). Directory widths
//! follow a Zipf law whose widest directory holds 1,000 entries, as `repro
//! compile`'s flat `app/` does, so the tailer's cost in wide directories
//! shows. Latency runs from submit until the drain returns. Only
//! `configerator`, `cdsl` and `gitstore` work here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use configerator::service::compiled_path;
use configerator::{
    CommitReport, CompileOptions, ConfigUpdate, ConfigeratorService, GitTailer, Mutator,
};
use gitstore::repo::{Change, Repository};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::report::{median, percentile, ratio, repeat_setup, Metrics, ShareTable, Tally};

/// The shape of a generated config tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tree {
    /// Entry configs (`.cconf`).
    pub entries: usize,
    /// Width of the widest directory; directory `k` (from 1) holds about
    /// `widest / k^0.9` entries.
    pub widest: usize,
    /// Entries importing the hot module.
    pub hot_dependents: usize,
    /// Raw configs the mutator rewrites.
    pub raws: usize,
}

/// The measured tree: 5,000 entries, about 10,000 repository files.
pub const STREAM: Tree = Tree {
    entries: 5_000,
    widest: 1_000,
    hot_dependents: 100,
    raws: 400,
};

/// The tree probed when another workload is measured.
pub const PROBE: Tree = Tree {
    entries: 600,
    widest: 120,
    hot_dependents: 12,
    raws: 60,
};

/// Commits each replay of the measured stream lands at least: p99 needs
/// ten samples beyond it.
pub const MIN_COMMITS: usize = 1_000;

const MODULES: usize = 8;
const SCHEMAS: usize = 4;
const MOD_FUNCS: usize = 25;
const HOT_FUNCS: usize = 120;
const HOT_PATH: &str = "shared/hot.cinc";
const RAW_DIRS: [&str; 4] = ["traffic", "weights", "limits", "quota"];

/// Entry paths, directory by directory (`dNN/eNNNN.cconf`).
pub fn entry_paths(tree: Tree) -> Vec<String> {
    let mut out = Vec::with_capacity(tree.entries);
    let mut k = 1usize;
    while out.len() < tree.entries {
        let width = ((tree.widest as f64 / (k as f64).powf(0.9)).round() as usize).max(4);
        let width = width.min(tree.entries - out.len());
        for i in 0..width {
            out.push(format!("d{k:02}/e{i:04}.cconf"));
        }
        k += 1;
    }
    out
}

fn module_path(m: usize) -> String {
    format!("shared/mod{m}.cinc")
}

fn func_block(prefix: &str, count: usize, salt: u64) -> String {
    let mut out = String::with_capacity(count * 160);
    for i in 0..count {
        let k = salt + i as u64;
        let _ = writeln!(out, "def {prefix}_f{i}(x, scale={}):", 1 + k % 7);
        let _ = writeln!(out, "    base = x * scale + {k}");
        let _ = writeln!(out, "    if base > {}:", 50 + k % 50);
        let _ = writeln!(out, "        return base - x + 1");
        let _ = writeln!(out, "    return base + {}", k % 5);
    }
    out
}

fn hot_src(version: u64) -> String {
    let mut out = func_block("hot", HOT_FUNCS, 17);
    for i in 0..16 {
        let _ = writeln!(out, "HOT_C{i} = {}", 1_000 + version * 100 + i);
    }
    out
}

fn module_src(m: usize) -> String {
    let mut out = func_block(&format!("m{m}"), MOD_FUNCS, 7 * m as u64);
    for i in 0..8 {
        let _ = writeln!(out, "M{m}_C{i} = {}", 10 * (m as u64 + 1) + i);
    }
    out
}

/// The static description of one entry, fixed by the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryShape {
    module_a: usize,
    module_b: usize,
    schema: usize,
    hot: bool,
}

fn entry_src(e: usize, s: EntryShape, version: u64) -> String {
    let (a, b) = (s.module_a, s.module_b);
    let mut out = String::new();
    let _ = writeln!(out, "import \"{}\"", module_path(a));
    let _ = writeln!(out, "import \"{}\"", module_path(b));
    if s.hot {
        let _ = writeln!(out, "import \"{HOT_PATH}\"");
    }
    let _ = writeln!(out, "schema \"schemas/conf{}.schema\"", s.schema);
    let weight = if s.hot {
        format!(
            "hot_f{}(M{a}_C1) + HOT_C{} + {version}",
            e % HOT_FUNCS,
            e % 16
        )
    } else {
        format!("m{a}_f{}(M{a}_C1) + M{b}_C2 + {version}", e % MOD_FUNCS)
    };
    let _ = writeln!(
        out,
        "export_if_last(Conf{} {{ name: \"entry{e}\", weight: {weight} }})",
        s.schema
    );
    out
}

fn raw_name(i: usize) -> String {
    format!("{}/r{i:03}.json", RAW_DIRS[i % RAW_DIRS.len()])
}

fn raw_content(i: usize, version: u64) -> String {
    format!(
        "{{\"shard\": {i}, \"weight\": {}, \"version\": {version}}}",
        version % 97
    )
}

/// The seeded tree: entry shapes and the full initial source map.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    paths: Vec<String>,
    shapes: Vec<EntryShape>,
    /// Every source file at version 0, keyed by path.
    pub initial: BTreeMap<String, String>,
}

impl Corpus {
    /// Generates the tree for `seed`: which modules and schema each entry
    /// uses, which entries import the hot module, and every source file.
    pub fn new(tree: Tree, seed: u64) -> Corpus {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        let paths = entry_paths(tree);
        let mut shapes: Vec<EntryShape> = (0..paths.len())
            .map(|_| {
                let module_a = rng.gen_range(0..MODULES);
                EntryShape {
                    module_a,
                    module_b: (module_a + 1 + rng.gen_range(0..MODULES - 1)) % MODULES,
                    schema: rng.gen_range(0..SCHEMAS),
                    hot: false,
                }
            })
            .collect();
        let mut hot = 0;
        while hot < tree.hot_dependents.min(paths.len()) {
            let e = rng.gen_range(0..paths.len());
            if !shapes[e].hot {
                shapes[e].hot = true;
                hot += 1;
            }
        }
        let mut files = BTreeMap::new();
        files.insert(HOT_PATH.to_string(), hot_src(0));
        for m in 0..MODULES {
            files.insert(module_path(m), module_src(m));
        }
        for s in 0..SCHEMAS {
            files.insert(
                format!("schemas/conf{s}.schema"),
                format!("struct Conf{s} {{ 1: string name 2: i64 weight = 10 }}"),
            );
            files.insert(
                format!("schemas/conf{s}.cvalidator"),
                "def validate(cfg):\n    require(cfg.weight >= 0, \"weight must be nonnegative\")"
                    .to_string(),
            );
        }
        for (e, p) in paths.iter().enumerate() {
            files.insert(p.clone(), entry_src(e, shapes[e], 0));
        }
        Corpus {
            paths,
            shapes,
            initial: files,
        }
    }
}

/// What one commit of the stream does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Rewrite entry `i` (a single-entry source commit).
    Entry(usize),
    /// Rewrite raw config `i` through the mutator.
    Raw(usize),
    /// Edit the hot shared module.
    Hot,
}

/// One commit: its kind and the version number its content carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What is edited.
    pub kind: OpKind,
    /// Content version (the op's index in the stream, from 1).
    pub version: u64,
}

/// Commits per block of the stream. Every block holds exactly
/// `BLOCK_ENTRIES` entry edits, `BLOCK_RAWS` raw updates and one hot-module
/// edit (60%, 35% and 5%) in seeded order, so every seed lands the same mix.
const BLOCK: usize = 20;
const BLOCK_ENTRIES: usize = 12;
const BLOCK_RAWS: usize = 7;

/// The seeded, unbounded commit stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SmallRng,
    tree: Tree,
    next: u64,
    /// What is left of the current block, as kind codes: 0 entry, 1 raw,
    /// 2 hot.
    block: Vec<u8>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(tree: Tree, seed: u64) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_C0DE),
            tree,
            next: 1,
            block: Vec::new(),
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.block.is_empty() {
            self.block = (0..BLOCK)
                .map(|i| match i {
                    i if i < BLOCK_ENTRIES => 0,
                    i if i < BLOCK_ENTRIES + BLOCK_RAWS => 1,
                    _ => 2,
                })
                .collect();
            self.block.shuffle(&mut self.rng);
        }
        let kind = match self.block.pop() {
            Some(0) => OpKind::Entry(self.rng.gen_range(0..self.tree.entries)),
            Some(1) => OpKind::Raw(self.rng.gen_range(0..self.tree.raws)),
            _ => OpKind::Hot,
        };
        let op = Op {
            kind,
            version: self.next,
        };
        self.next += 1;
        Some(op)
    }
}

/// A landed tree ready for the stream, plus what its setup measured.
pub struct State {
    svc: ConfigeratorService,
    tailer: GitTailer,
    mutator: Mutator,
    corpus: Corpus,
    /// The sources the benchmark expects at head.
    sources: BTreeMap<String, String>,
    /// The raw configs the benchmark expects at head.
    raws: BTreeMap<String, String>,
    /// Report of the cold commit of the whole tree.
    pub cold: CommitReport,
    /// Wall seconds of the cold commit.
    pub cold_wall_s: f64,
    /// What the service landed, replayed by traced passes to time
    /// `Repository::commit` on its own.
    shadow: Option<Repository>,
}

/// Lands the whole tree in one cold commit and drains it once.
pub fn setup(corpus: &Corpus) -> State {
    let changes: BTreeMap<String, Option<String>> = corpus
        .initial
        .iter()
        .map(|(p, s)| (p.clone(), Some(s.clone())))
        .collect();
    let start = Instant::now();
    let mut svc = ConfigeratorService::new();
    let cold = svc
        .commit_source("bench", "seed tree", changes)
        .expect("the generated tree compiles");
    let cold_wall_s = start.elapsed().as_secs_f64();
    let mut tailer = GitTailer::new();
    tailer.drain(&svc);
    State {
        svc,
        tailer,
        mutator: Mutator::new("bench"),
        corpus: corpus.clone(),
        sources: corpus.initial.clone(),
        raws: BTreeMap::new(),
        cold,
        cold_wall_s,
        shadow: None,
    }
}

/// What a pass over the stream measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Commits attempted.
    pub commits: usize,
    /// Submit-to-drain latency per commit, seconds, in stream order.
    pub latency_s: Vec<f64>,
    /// The kind of each commit, parallel to `latency_s`.
    pub kinds: Vec<OpKind>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Σ `check_changes` wall (traced passes only).
    pub plan_s: f64,
    /// Σ shadow `Repository::commit` wall (traced passes only).
    pub gitstore_s: f64,
    /// Σ `GitTailer::drain` wall.
    pub drain_s: f64,
    /// Config updates the drains emitted.
    pub drained: u64,
    /// Summed compile statistics of every landed commit.
    pub compiled: u64,
    /// Σ candidates.
    pub candidates: u64,
    /// Σ fingerprint skips.
    pub skipped: u64,
    /// Σ parse-cache hits.
    pub parse_hits: u64,
    /// Σ parse-cache misses.
    pub parse_misses: u64,
    /// Σ compile CPU, µs.
    pub compile_us: u64,
    /// Σ verify wall, µs.
    pub verify_us: u64,
    /// Files in the repository at the end.
    pub files: usize,
    /// Correctness of every commit and drain.
    pub tally: Tally,
}

/// Checks that a drain emitted exactly the commit's updated configs with
/// their artifact bytes.
fn drain_matches(svc: &ConfigeratorService, report: &CommitReport, ups: &[ConfigUpdate]) -> bool {
    let mut want = report.updated_configs.clone();
    want.sort();
    let mut got: Vec<&str> = ups.iter().map(|u| u.name.as_str()).collect();
    got.sort_unstable();
    want == got
        && ups.iter().all(|u| {
            !u.deleted
                && svc
                    .artifact(&u.name)
                    .is_some_and(|a| a.json.as_bytes() == &u.data[..])
        })
}

/// The git change set a landed commit wrote, rebuilt from its inputs and
/// report: the edited file plus every changed artifact.
fn landed_changes(svc: &ConfigeratorService, edited: Change, report: &CommitReport) -> Vec<Change> {
    let mut out = vec![edited];
    if report.stats.candidates > 0 {
        for name in &report.updated_configs {
            let json = &svc
                .artifact(name)
                .expect("updated config has an artifact")
                .json;
            out.push(Change::put(compiled_path(name), json.clone()));
        }
    }
    out
}

/// A repository holding what the cold commit landed, for timing
/// `Repository::commit` on the same change sets the service lands.
fn shadow_repo(state: &State) -> Repository {
    let mut changes: Vec<Change> = state
        .sources
        .iter()
        .map(|(p, s)| Change::put(format!("source/{p}"), s.clone()))
        .collect();
    for name in state.svc.config_names() {
        let json = &state.svc.artifact(&name).expect("listed").json;
        changes.push(Change::put(compiled_path(&name), json.clone()));
    }
    let mut repo = Repository::new();
    repo.commit("bench", "shadow", 0, changes)
        .expect("shadow seed commit");
    repo
}

/// Runs the stream on `state` until `pass` holds `commits` commits. A
/// traced call also times the plan (`check_changes`) before each source
/// commit and replays each landed change set into a shadow repository.
pub fn run(state: &mut State, stream: &mut Stream, pass: &mut Pass, commits: usize, traced: bool) {
    if traced && state.shadow.is_none() {
        state.shadow = Some(shadow_repo(state));
    }
    let start = Instant::now();
    while pass.commits < commits {
        let op = stream.next().expect("the stream is unbounded");
        pass.commits += 1;
        pass.kinds.push(op.kind);

        // The edit, built before the clock starts.
        let (path, content) = match op.kind {
            OpKind::Entry(e) => (
                state.corpus.paths[e].clone(),
                entry_src(e, state.corpus.shapes[e], op.version),
            ),
            OpKind::Hot => (HOT_PATH.to_string(), hot_src(op.version)),
            OpKind::Raw(i) => (raw_name(i), raw_content(i, op.version)),
        };
        let is_raw = matches!(op.kind, OpKind::Raw(_));
        if traced && !is_raw {
            let changes = BTreeMap::from([(path.clone(), Some(content.clone()))]);
            // A plan that fails also fails the commit below, which counts it.
            let t = Instant::now();
            let _ = state.svc.check_changes(&changes);
            pass.plan_s += t.elapsed().as_secs_f64();
        }

        let t0 = Instant::now();
        let landed = if is_raw {
            let next = content.clone();
            state
                .mutator
                .update_raw(&mut state.svc, &path, "raw update", |_| next)
        } else {
            state
                .mutator
                .set_source(&mut state.svc, &path, "edit", &content)
        };
        let t1 = Instant::now();
        let ups = state.tailer.drain(&state.svc);
        let t2 = Instant::now();
        pass.latency_s.push((t2 - t0).as_secs_f64());
        pass.drain_s += (t2 - t1).as_secs_f64();
        pass.drained += ups.len() as u64;

        let report = match landed {
            Ok(r) => r,
            Err(e) => {
                pass.tally
                    .record(1, 1, || format!("commit {} did not land: {e}", op.version));
                continue;
            }
        };
        let ok = drain_matches(&state.svc, &report, &ups);
        pass.tally.record(1, u64::from(!ok), || {
            format!(
                "commit {}: the drain did not emit exactly its updated configs",
                op.version
            )
        });
        let s = report.stats;
        pass.compiled += s.compiled as u64;
        pass.candidates += s.candidates as u64;
        pass.skipped += s.skipped as u64;
        pass.parse_hits += s.parse_hits;
        pass.parse_misses += s.parse_misses;
        pass.compile_us += s.compile_us;
        pass.verify_us += s.verify_us;

        let edited = if is_raw {
            state.raws.insert(path.clone(), content.clone());
            Change::put(format!("raw/{path}"), content)
        } else {
            state.sources.insert(path.clone(), content.clone());
            Change::put(format!("source/{path}"), content)
        };
        if let Some(repo) = state.shadow.as_mut().filter(|_| traced) {
            let changes = landed_changes(&state.svc, edited, &report);
            let t = Instant::now();
            let res = repo.commit("bench", "replay", op.version, changes);
            pass.gitstore_s += t.elapsed().as_secs_f64();
            pass.tally.record(0, u64::from(res.is_err()), || {
                format!("commit {}: shadow replay failed", op.version)
            });
        }
    }
    pass.wall_s += start.elapsed().as_secs_f64();
    pass.files = state.svc.repo().file_count();
}

/// What a landing left at head: the sources and raw configs the benchmark
/// expects, and every artifact the service holds. It outlives the
/// landing's service, so the legacy rebuild that checks it runs after the
/// service is dropped and adds nothing to the run's peak memory.
pub struct Landed {
    sources: BTreeMap<String, String>,
    raws: BTreeMap<String, String>,
    artifacts: BTreeMap<String, String>,
}

/// Records what `state` holds at head.
pub fn landed(state: &State) -> Landed {
    let artifacts = state
        .svc
        .config_names()
        .into_iter()
        .map(|n| {
            let json = state.svc.artifact(&n).expect("listed").json.clone();
            (n, json)
        })
        .collect();
    Landed {
        sources: state.sources.clone(),
        raws: state.raws.clone(),
        artifacts,
    }
}

/// Rebuilds the expected sources from scratch with the legacy pipeline
/// (serial, no cache, no fingerprint skips, no verifier) and checks every
/// artifact, compiled and raw, against what the service held.
pub fn check_final(landed: &Landed) -> Tally {
    let mut fresh = ConfigeratorService::with_options(CompileOptions::legacy());
    let changes = landed
        .sources
        .iter()
        .map(|(p, s)| (p.clone(), Some(s.clone())))
        .collect();
    let mut tally = Tally::default();
    if let Err(e) = fresh.commit_source("bench", "rebuild", changes) {
        tally.record(1, 1, || format!("legacy rebuild failed: {e}"));
        return tally;
    }
    let compiled = fresh.config_names();
    let bad = compiled
        .iter()
        .filter(|n| fresh.artifact(n).map(|a| &a.json) != landed.artifacts.get(*n))
        .count() as u64;
    tally.record(compiled.len() as u64, bad, || {
        format!("{bad} artifacts differ from a from-scratch legacy rebuild")
    });
    let bad_raw = landed
        .raws
        .iter()
        .filter(|(n, c)| landed.artifacts.get(*n) != Some(*c))
        .count() as u64;
    let listed = landed.artifacts.len();
    let expected = compiled.len() + landed.raws.len();
    let extra = listed.abs_diff(expected) as u64;
    tally.record(landed.raws.len() as u64, bad_raw + extra, || {
        format!(
            "{bad_raw} raw configs differ; the service lists {listed} configs, expected {expected}"
        )
    });
    tally
}

fn p50_ms_of(pass: &Pass, pred: impl Fn(OpKind) -> bool) -> f64 {
    let v: Vec<f64> = pass
        .latency_s
        .iter()
        .zip(&pass.kinds)
        .filter(|(_, k)| pred(**k))
        .map(|(l, _)| l * 1e3)
        .collect();
    median(&v)
}

/// Landings of the workload's own stream in a run, each in its own
/// stretch of the run.
pub const LANDINGS: usize = 4;

/// The seeded stream landed several times, each time on a freshly set up
/// tree: one replay in each stretch of a run.
pub struct Replays {
    corpus: Corpus,
    tree: Tree,
    seed: u64,
    commits: usize,
    landings: usize,
    current: Option<(State, Stream, Pass)>,
    /// Finished replays.
    pub done: Vec<Pass>,
    /// What each finished replay left at head.
    landed: Vec<Landed>,
    /// Wall seconds of each setup a later replay made.
    pub setup_s: Vec<f64>,
    /// Correctness of every commit.
    pub tally: Tally,
}

impl Replays {
    /// `landings` replays of `commits` commits each; the first starts on
    /// `first`, a state already set up from `corpus`.
    pub fn new(
        corpus: Corpus,
        tree: Tree,
        seed: u64,
        commits: usize,
        landings: usize,
        first: State,
    ) -> Replays {
        Replays {
            corpus,
            tree,
            seed,
            commits,
            landings,
            current: Some((first, Stream::new(tree, seed), Pass::default())),
            done: Vec::new(),
            landed: Vec::new(),
            setup_s: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Commits in every replay together.
    pub fn total(&self) -> usize {
        self.landings * self.commits
    }

    /// The tree replayed.
    pub fn tree(&self) -> Tree {
        self.tree
    }

    /// Lands commits until `target` of all replays' commits have landed.
    /// A replay that completes records what it landed and is dropped.
    pub fn run_to(&mut self, target: usize) {
        let target = target.min(self.total());
        loop {
            let so_far = self.done.len() * self.commits;
            let (state, stream, pass) = match self.current.as_mut() {
                Some(c) => c,
                None if so_far < target => {
                    let (times, state) = repeat_setup(1, || setup(&self.corpus));
                    self.setup_s.extend(times);
                    self.current
                        .insert((state, Stream::new(self.tree, self.seed), Pass::default()))
                }
                None => return,
            };
            if so_far + pass.commits >= target {
                return;
            }
            run(
                state,
                stream,
                pass,
                (target - so_far).min(self.commits),
                false,
            );
            if pass.commits == self.commits {
                let (state, _, pass) = self.current.take().expect("a replay is in progress");
                self.tally.merge(pass.tally.clone());
                self.landed.push(landed(&state));
                self.done.push(pass);
            }
        }
    }

    /// The correctness of every commit, then the legacy rebuild check of
    /// each finished replay's tree.
    pub fn check(&self) -> Tally {
        let mut tally = self.tally.clone();
        for l in &self.landed {
            tally.merge(check_final(l));
        }
        tally
    }
}

/// Each commit's latency in its fastest replay, seconds. Neighbours on a
/// shared host slow this process in phases of a second or more, while the
/// replays land identical commits in different stretches of a run, so the
/// fastest shows the commit path's own speed.
pub fn steady_latency_s(replays: &[Pass]) -> Vec<f64> {
    let n = replays.iter().map(|p| p.latency_s.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            replays
                .iter()
                .map(|p| p.latency_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The commit path's end-to-end metrics over the steady latencies.
pub fn end_to_end(replays: &[Pass]) -> Metrics {
    let steady = steady_latency_s(replays);
    let mut ms: Vec<f64> = steady.iter().map(|s| s * 1e3).collect();
    let busy: f64 = steady.iter().sum();
    let mut m = Metrics::default();
    m.push("commit_p50_ms", percentile(&mut ms, 50.0), "ms");
    m.push("commit_p99_ms", percentile(&mut ms, 99.0), "ms");
    m.push("commits_per_s", ratio(steady.len() as f64, busy), "1/s");
    m
}

/// One-line summary with sample counts: each replay, then the steady
/// latencies the end-to-end metrics use.
pub fn describe(label: &str, tree: Tree, replays: &[Pass]) -> String {
    let pcts = |lat: &[f64]| {
        let mut ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
        format!(
            "p50 {:.3} ms p99 {:.3} ms",
            percentile(&mut ms, 50.0),
            percentile(&mut ms, 99.0)
        )
    };
    let mut out = String::new();
    let _ = write!(out, "{label}: {} entries", tree.entries);
    for (i, p) in replays.iter().enumerate() {
        let count = |f: fn(&OpKind) -> bool| p.kinds.iter().filter(|k| f(k)).count();
        let _ = write!(
            out,
            "; replay {}: {} files, {} commits ({} entry, {} raw, {} hot), {}",
            i + 1,
            p.files,
            p.commits,
            count(|k| matches!(k, OpKind::Entry(_))),
            count(|k| matches!(k, OpKind::Raw(_))),
            count(|k| matches!(k, OpKind::Hot)),
            pcts(&p.latency_s)
        );
    }
    let steady = steady_latency_s(replays);
    let _ = write!(
        out,
        "; fastest replay per commit: {} over {} samples",
        pcts(&steady),
        steady.len()
    );
    out
}

/// The share table of a traced pass.
pub fn share_table(traced: &Pass) -> ShareTable {
    ShareTable::new(
        "commit_stream share of traced wall",
        traced.wall_s,
        vec![
            ("configerator plan (check_changes)".into(), traced.plan_s),
            ("gitstore commit (shadow replay)".into(), traced.gitstore_s),
            ("configerator tailer drain".into(), traced.drain_s),
        ],
        "remainder (commit_source, mutator, checks)",
    )
}

/// The per-layer metrics of `configerator`, `cdsl` and `gitstore`: counts
/// and latencies by kind from the untraced pass, plan/commit/drain walls
/// from the traced one, parallelism from the traced setup's cold commit.
pub fn per_layer(plain: &Pass, traced: &Pass, state: &State) -> Metrics {
    let cold = state.cold.stats;
    let compile_wall = state.cold_wall_s - cold.verify_us as f64 / 1e6;
    let parallelism = ratio(cold.compile_us as f64 / 1e6, compile_wall);
    let mut m = Metrics::default();
    m.push("configerator.plan_s", traced.plan_s, "s");
    m.push("cdsl.verify_s", plain.verify_us as f64 / 1e6, "s");
    m.push("cdsl.compile_cpu_s", plain.compile_us as f64 / 1e6, "s");
    m.push(
        "cdsl.parse_hit_ratio",
        ratio(
            plain.parse_hits as f64,
            (plain.parse_hits + plain.parse_misses) as f64,
        ),
        "ratio",
    );
    m.push(
        "configerator.fingerprint_skip_ratio",
        ratio(plain.skipped as f64, plain.candidates as f64),
        "ratio",
    );
    m.push(
        "configerator.entries_compiled",
        plain.compiled as f64,
        "count",
    );
    m.push(
        "commit.hot_edit_p50_ms",
        p50_ms_of(plain, |k| k == OpKind::Hot),
        "ms",
    );
    m.push("gitstore.commit_s", traced.gitstore_s, "s");
    m.push("gitstore.files", traced.files as f64, "count");
    m.push("configerator.tailer_drain_s", traced.drain_s, "s");
    m.push(
        "configerator.tailer_updates",
        traced.drained as f64,
        "count",
    );
    m.push(
        "commit.entry_edit_p50_ms",
        p50_ms_of(plain, |k| matches!(k, OpKind::Entry(_))),
        "ms",
    );
    m.push(
        "commit.raw_update_p50_ms",
        p50_ms_of(plain, |k| matches!(k, OpKind::Raw(_))),
        "ms",
    );
    m.push(
        "configerator.cold_compile_parallelism",
        parallelism,
        "ratio",
    );
    m
}
