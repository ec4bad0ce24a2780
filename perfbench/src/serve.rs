//! The serving path: a single-thread, closed-loop read path over a seeded
//! user stream, run as a probe beside each workload.
//!
//! One serving stack (a MobileConfig server over a Gatekeeper runtime
//! over an in-process Laser store) answers, in stream order: Gatekeeper
//! `check` calls over 40 projects, some gated by `laser()` restraints;
//! MobileConfig `pull_session` calls from clients whose caches are warm or
//! cold; and writes at a fixed ratio, project configs pushed through
//! `update_project_json` and Laser `stream_upsert` batches, so the serving
//! cost of an update shows. Only `gatekeeper`, `laser` and `mobileconfig`
//! work here. A run serves the stream in `PASSES` passes, each on a
//! freshly built stack, and counts each op at its fastest pass.

use std::time::Instant;

use gatekeeper::context::mix64;
use gatekeeper::prelude::*;
use laser::Laser;
use mobileconfig::server::PullReply;
use mobileconfig::{Binding, FieldType, MobileConfigServer, MobileSchema, TranslationLayer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{percentile, ratio, Metrics, ShareTable, Tally};

/// Gatekeeper projects.
const PROJECTS: usize = 40;
/// Users in the request stream.
const USERS: usize = 20_000;
/// MobileConfig clients (client `c` is user `c`); each pulls about once
/// in 20,000 ops. Only the project mix below has a source (`repro
/// fig15`'s 40 projects, a quarter Laser-backed); every other ratio here
/// is an unverified assumption, sized so one pass holds enough samples of
/// each op kind (see README.md, "Serving traffic mix").
const CLIENTS: usize = 1_000;
/// Ops per generated chunk; a chunk is generated before it is timed.
pub const CHUNK: usize = 4_096;
/// One op in this many is a pull.
const PULL_EVERY: u64 = 20;
/// One op in this many is a project config update.
const UPDATE_EVERY: u64 = 1_000;
/// One op in this many is a Laser upsert batch.
const UPSERT_EVERY: u64 = 20_000;
/// One pull in this many comes from a client with a cold cache (a fresh
/// session).
const COLD_EVERY: u64 = 10;
/// Entries per Laser upsert batch.
const UPSERT_BATCH: usize = 64;
/// Laser memory-tier capacity, below the ~80k keys `laser()` restraints read.
const LASER_MEMORY: usize = 16_384;
const DATASETS: [&str; 2] = ["trending", "affinity"];
const MODELS: [&str; 4] = ["feed", "video", "groups", "ads"];
const COUNTRIES: [&str; 8] = ["US", "BR", "IN", "DE", "JP", "GB", "FR", "MX"];
const DEVICES: [&str; 4] = ["Pixel 6", "iPhone 12", "Galaxy S21", "Moto G"];
const APPS: [&str; 3] = ["messenger", "instagram", "lite"];
/// Projects bound to MobileConfig fields (projects `0..MOBILE_FIELDS`).
const MOBILE_FIELDS: usize = 8;
const MOBILE_CONFIG: &str = "MainApp";

fn project_name(p: usize) -> String {
    format!("proj{p:02}")
}

/// Restraint of kind `kind` (0..10) with seeded parameters.
fn restraint(kind: usize, negate: bool, rng: &mut SmallRng) -> RestraintSpec {
    let pick = |rng: &mut SmallRng, list: &[&str], n: usize| -> Vec<String> {
        (0..n)
            .map(|_| list[rng.gen_range(0..list.len())].to_string())
            .collect()
    };
    let kind = match kind {
        0 => RestraintKind::Employee,
        1 => RestraintKind::Country(pick(rng, &COUNTRIES, 3)),
        2 => RestraintKind::DeviceModel(pick(rng, &DEVICES, 2)),
        3 => RestraintKind::MobileApp(pick(rng, &APPS, 2)),
        4 => RestraintKind::MinAppVersion(rng.gen_range(1..4), rng.gen_range(0..10)),
        5 => RestraintKind::MinFriends(rng.gen_range(0..500)),
        6 => RestraintKind::MinAccountAgeDays(rng.gen_range(0..365)),
        7 => RestraintKind::IdMod {
            modulus: 100,
            remainder: rng.gen_range(0..100),
        },
        8 => RestraintKind::NewUser,
        _ => RestraintKind::Always,
    };
    if negate {
        RestraintSpec::not(kind)
    } else {
        RestraintSpec::of(kind)
    }
}

/// Project `p`: one to three rules of one to three restraints, every
/// fourth project with a `laser()` restraint first in its first rule. The
/// shape and restraint kinds follow from `p`, so every seed serves the same
/// mix of work; the seed draws the restraints' parameters.
fn project(p: usize, rng: &mut SmallRng) -> Project {
    let rules = (0..1 + p % 3)
        .map(|r| {
            let mut rs: Vec<RestraintSpec> = (0..1 + (p / 3 + r) % 3)
                .map(|i| restraint((p + 3 * r + 7 * i) % 10, (p + r + i).is_multiple_of(5), rng))
                .collect();
            if p.is_multiple_of(4) && r == 0 {
                rs.insert(
                    0,
                    RestraintSpec::of(RestraintKind::Laser {
                        dataset: DATASETS[p / 4 % DATASETS.len()].to_string(),
                        project: MODELS[p / 4 % MODELS.len()].to_string(),
                        threshold: 0.5,
                    }),
                );
            }
            Rule::new(rs, rng.gen_range(0.05..1.0))
        })
        .collect();
    Project::new(&project_name(p), rules)
}

fn user(id: usize, rng: &mut SmallRng) -> UserContext {
    let mut u =
        UserContext::with_id(id as u64).country(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]);
    u.locale = format!("{}_{}", "en", u.country);
    u.employee = rng.gen_range(0..500) == 0;
    u.new_user = rng.gen_range(0..20) == 0;
    u.friend_count = rng.gen_range(0..1_000);
    u.account_age_days = rng.gen_range(0..2_000);
    if rng.gen_range(0..3) > 0 {
        u = u
            .device(DEVICES[rng.gen_range(0..DEVICES.len())])
            .mobile_app(APPS[rng.gen_range(0..APPS.len())]);
        u.app_version = Some((rng.gen_range(1..5), rng.gen_range(0..10)));
    }
    u
}

fn laser_entries(rng: &mut SmallRng, n: usize) -> Vec<(String, f64)> {
    (0..n)
        .map(|_| {
            let model = MODELS[rng.gen_range(0..MODELS.len())];
            (
                format!("{model}-{}", rng.gen_range(0..USERS)),
                rng.gen::<f64>(),
            )
        })
        .collect()
}

/// The seeded world the stream runs against: projects, users and the
/// initial Laser datasets.
#[derive(Debug, Clone)]
pub struct World {
    projects: Vec<Project>,
    users: Vec<UserContext>,
    datasets: Vec<Vec<(String, f64)>>,
}

impl World {
    /// Generates the world for `seed`.
    pub fn new(seed: u64) -> World {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6A7E_5E12);
        let projects = (0..PROJECTS).map(|p| project(p, &mut rng)).collect();
        let users = (0..USERS).map(|u| user(u, &mut rng)).collect();
        // Every model scores about a third of the users.
        let datasets = DATASETS
            .iter()
            .map(|_| laser_entries(&mut rng, USERS * MODELS.len() / 3))
            .collect();
        World {
            projects,
            users,
            datasets,
        }
    }
}

/// The serving stack and the client sessions.
pub struct Stack {
    server: MobileConfigServer,
    schema_hash: u64,
    sessions: Vec<u64>,
}

/// Builds the stack; `optimize` is the Gatekeeper cost-based optimizer.
pub fn setup(world: &World, optimize: bool) -> Stack {
    let mut laser = Laser::new(LASER_MEMORY);
    for (ds, entries) in DATASETS.iter().zip(&world.datasets) {
        laser.load_dataset(ds, entries.clone());
    }
    let mut rt = Runtime::new(laser);
    rt.set_optimize(optimize);
    for p in &world.projects {
        rt.update_project(p.clone());
    }
    let mut fields: Vec<(String, FieldType)> = (0..MOBILE_FIELDS)
        .map(|f| (format!("flag{f}"), FieldType::Bool))
        .collect();
    fields.push(("batch".into(), FieldType::Int));
    fields.push(("quality".into(), FieldType::Float));
    let field_refs: Vec<(&str, FieldType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = MobileSchema::new(MOBILE_CONFIG, &field_refs);
    let mut t = TranslationLayer::new();
    for f in 0..MOBILE_FIELDS {
        t.bind(
            MOBILE_CONFIG,
            &format!("flag{f}"),
            Binding::Gatekeeper {
                project: project_name(f),
            },
        );
    }
    t.bind(
        MOBILE_CONFIG,
        "batch",
        Binding::Constant(ParamValue::Int(20)),
    );
    t.bind(
        MOBILE_CONFIG,
        "quality",
        Binding::Constant(ParamValue::Float(0.8)),
    );
    let mut server = MobileConfigServer::new(t, rt);
    let schema_hash = schema.hash();
    server.register_schema(schema);
    let sessions = (0..CLIENTS)
        .map(|_| server.open_session(schema_hash))
        .collect();
    Stack {
        server,
        schema_hash,
        sessions,
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `check(project, users[user])`.
    Check {
        /// Project index.
        project: u8,
        /// User index.
        user: u32,
    },
    /// A pull by client `client`; a cold client opens a fresh session.
    Pull {
        /// Client index.
        client: u32,
        /// Whether the client's cache is cold.
        cold: bool,
    },
    /// A project config pushed as JSON.
    Update(String),
    /// A Laser stream upsert into dataset `dataset`.
    Upsert {
        /// Dataset index.
        dataset: u8,
        /// The batch.
        entries: Vec<(String, f64)>,
    },
}

/// The seeded, unbounded request stream, produced a chunk at a time.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SmallRng,
    next: u64,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed ^ 0x5E7E_0001),
            next: 0,
        }
    }

    /// The next `CHUNK` ops.
    pub fn chunk(&mut self, world: &World) -> Vec<Op> {
        (0..CHUNK).map(|_| self.op(world)).collect()
    }

    fn op(&mut self, world: &World) -> Op {
        let i = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        if i % UPSERT_EVERY == UPSERT_EVERY - 1 {
            Op::Upsert {
                dataset: rng.gen_range(0..DATASETS.len()) as u8,
                entries: laser_entries(rng, UPSERT_BATCH),
            }
        } else if i % UPDATE_EVERY == UPDATE_EVERY / 2 {
            let p = rng.gen_range(0..PROJECTS);
            let mut next = world.projects[p].clone();
            for rule in &mut next.rules {
                rule.pass_prob = rng.gen_range(0.05..1.0);
            }
            Op::Update(next.to_config_json())
        } else if i.is_multiple_of(PULL_EVERY) {
            Op::Pull {
                client: rng.gen_range(0..CLIENTS) as u32,
                cold: (i / PULL_EVERY).is_multiple_of(COLD_EVERY),
            }
        } else {
            // Skewed toward low user ids: a few users make much of the
            // traffic, so Laser's memory tier has something to hold.
            let x: f64 = rng.gen();
            Op::Check {
                project: rng.gen_range(0..PROJECTS) as u8,
                user: ((x * x * x) * USERS as f64) as u32,
            }
        }
    }
}

/// What one chunk of the stream measured.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    /// Check ops.
    pub checks: u64,
    /// Σ wall of check ops (timed per run of consecutive checks when
    /// untraced, per check when traced), seconds.
    pub check_s: f64,
    /// Pull latencies, seconds.
    pub pull_s: Vec<f64>,
    /// `update_project_json` latencies, seconds.
    pub update_s: Vec<f64>,
    /// `stream_upsert` latencies, seconds.
    pub upsert_s: Vec<f64>,
    /// Wall of the chunk, seconds.
    pub wall_s: f64,
    /// Hash of every answer in the chunk.
    pub hash: u64,
}

/// What a pass over the stream measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ops run.
    pub ops: u64,
    /// One record per chunk, in stream order.
    pub chunks: Vec<Chunk>,
    /// Gatekeeper checks, including those pulls make.
    pub gk_checks: u64,
    /// Restraint evaluations.
    pub restraint_evals: u64,
    /// Restraint cost units.
    pub cost_units: u64,
    /// Laser memory-tier hits.
    pub laser_memory_hits: u64,
    /// Laser flash reads.
    pub laser_flash_reads: u64,
    /// Laser reads of absent keys.
    pub laser_misses: u64,
    /// Pulls answered `NotModified`.
    pub not_modified: u64,
    /// Pulls handled.
    pub pulls: u64,
    /// Reply bytes.
    pub reply_bytes: u64,
    /// Updates rejected (a correct stack rejects none).
    pub tally: Tally,
}

impl Pass {
    /// The answer hash of every chunk.
    pub fn hashes(&self) -> Vec<u64> {
        self.chunks.iter().map(|c| c.hash).collect()
    }

    /// Wall seconds of every chunk, chunk generation excluded.
    pub fn wall_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.wall_s).sum()
    }
}

/// Totals over a set of chunks.
#[derive(Debug, Default)]
pub struct Sum {
    /// Check ops.
    pub checks: u64,
    /// Σ check time, seconds.
    pub check_s: f64,
    /// Σ chunk wall, seconds.
    pub wall_s: f64,
    /// Pull latencies, seconds.
    pub pull_s: Vec<f64>,
    /// `update_project_json` latencies, seconds.
    pub update_s: Vec<f64>,
    /// `stream_upsert` latencies, seconds.
    pub upsert_s: Vec<f64>,
}

impl<'a> FromIterator<&'a Chunk> for Sum {
    fn from_iter<I: IntoIterator<Item = &'a Chunk>>(chunks: I) -> Sum {
        let mut s = Sum::default();
        for c in chunks {
            s.checks += c.checks;
            s.check_s += c.check_s;
            s.wall_s += c.wall_s;
            s.pull_s.extend(&c.pull_s);
            s.update_s.extend(&c.update_s);
            s.upsert_s.extend(&c.upsert_s);
        }
        s
    }
}

/// Each op's time in its fastest pass: the passes serve the identical
/// stream on identically built stacks, so op `j` of chunk `i` does the
/// same work in each. Neighbours on a shared host slow this process in
/// phases of a second or more, and the passes run in different stretches
/// of a run, so the fastest shows the stack's own speed. Every op counts,
/// wherever it falls relative to an update. A run of consecutive checks is
/// timed as one span, so check time is taken per chunk.
pub fn fastest_per_op(passes: &[Pass]) -> Sum {
    let n = passes.iter().map(|p| p.chunks.len()).min().unwrap_or(0);
    let min_each = |i: usize, field: fn(&Chunk) -> &Vec<f64>| -> Vec<f64> {
        let len = passes
            .iter()
            .map(|p| field(&p.chunks[i]).len())
            .min()
            .unwrap_or(0);
        (0..len)
            .map(|j| {
                passes
                    .iter()
                    .map(|p| field(&p.chunks[i])[j])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let mut s = Sum::default();
    for i in 0..n {
        let min_of = |field: fn(&Chunk) -> f64| {
            passes
                .iter()
                .map(|p| field(&p.chunks[i]))
                .fold(f64::INFINITY, f64::min)
        };
        s.checks += passes[0].chunks[i].checks;
        s.check_s += min_of(|c| c.check_s);
        s.wall_s += min_of(|c| c.wall_s);
        s.pull_s.extend(min_each(i, |c| &c.pull_s));
        s.update_s.extend(min_each(i, |c| &c.update_s));
        s.upsert_s.extend(min_each(i, |c| &c.upsert_s));
    }
    s
}

/// Passes over the stream in a run, each in its own stretch of the run.
pub const PASSES: usize = 48;

/// The seeded stream served `PASSES` times, each time by a freshly set up
/// stack: one pass in each stretch of a run.
pub struct Replays {
    world: World,
    seed: u64,
    chunks: usize,
    current: Option<(Stack, Stream, Pass)>,
    /// Finished passes.
    pub done: Vec<Pass>,
}

impl Replays {
    /// `PASSES` passes of `chunks` chunks each over the stream for `seed`.
    pub fn new(world: World, seed: u64, chunks: usize) -> Replays {
        Replays {
            world,
            seed,
            chunks,
            current: None,
            done: Vec::new(),
        }
    }

    /// Chunks in every pass together.
    pub fn total(&self) -> usize {
        PASSES * self.chunks
    }

    /// Serves chunks until `target` of all passes' chunks are served. A
    /// pass that completes drops its stack.
    pub fn run_to(&mut self, target: usize) {
        let target = target.min(self.total());
        loop {
            let served = self.done.len() * self.chunks;
            let (stack, stream, pass) = match self.current.as_mut() {
                Some(c) => c,
                None if served < target => self.current.insert((
                    setup(&self.world, true),
                    Stream::new(self.seed),
                    Pass::default(),
                )),
                None => return,
            };
            if served + pass.chunks.len() >= target {
                return;
            }
            let want = (target - served).min(self.chunks);
            run(stack, &self.world, stream, pass, want, false);
            if pass.chunks.len() == self.chunks {
                let (_, _, pass) = self.current.take().expect("a pass is in progress");
                self.done.push(pass);
            }
        }
    }

    /// Checks the answers: every pass answers as the first does, and the
    /// first matches a replay with the optimizer off.
    pub fn check(&self) -> Tally {
        let Some(first) = self.done.first() else {
            return Tally::default();
        };
        let mut tally = check_replay(&self.world, self.seed, first);
        for p in &self.done[1..] {
            tally.merge(p.tally.clone());
            let bad = p
                .chunks
                .iter()
                .zip(&first.chunks)
                .filter(|(a, b)| a.hash != b.hash)
                .count() as u64;
            tally.record(p.ops, bad * CHUNK as u64, || {
                format!("{bad} chunks answer differently in a repeated pass")
            });
        }
        tally
    }
}

fn reply_hash(r: Option<PullReply>) -> u64 {
    match r {
        Some(PullReply::Values { hash, .. }) => hash,
        Some(PullReply::NotModified) => 1,
        Some(PullReply::UnknownSchema) => 2,
        None => 3,
    }
}

/// Runs the stream on `stack` until `pass` holds `chunks` chunks. An
/// untraced call times pulls and updates one by one and checks per run of
/// consecutive checks; a traced call times every op.
pub fn run(
    stack: &mut Stack,
    world: &World,
    stream: &mut Stream,
    pass: &mut Pass,
    chunks: usize,
    traced: bool,
) {
    while pass.chunks.len() < chunks {
        let ops = stream.chunk(world);
        let mut c = Chunk::default();
        let start = Instant::now();
        let mut run_start: Option<Instant> = None;
        for op in ops {
            if !matches!(op, Op::Check { .. }) {
                if let Some(t) = run_start.take() {
                    c.check_s += t.elapsed().as_secs_f64();
                }
            }
            let v = match op {
                Op::Check { project, user } => {
                    let t = if traced { Some(Instant::now()) } else { None };
                    if !traced && run_start.is_none() {
                        run_start = Some(Instant::now());
                    }
                    let ok = stack.server.gatekeeper_mut().check(
                        &world.projects[project as usize].name,
                        &world.users[user as usize],
                    );
                    if let Some(t) = t {
                        c.check_s += t.elapsed().as_secs_f64();
                    }
                    c.checks += 1;
                    u64::from(ok)
                }
                Op::Pull { client, cold } => {
                    let client = client as usize;
                    let t = Instant::now();
                    if cold {
                        stack.sessions[client] = stack.server.open_session(stack.schema_hash);
                    }
                    let reply = stack
                        .server
                        .pull_session(stack.sessions[client], &world.users[client]);
                    c.pull_s.push(t.elapsed().as_secs_f64());
                    reply_hash(reply)
                }
                Op::Update(json) => {
                    let t = Instant::now();
                    let res = stack.server.gatekeeper_mut().update_project_json(&json);
                    c.update_s.push(t.elapsed().as_secs_f64());
                    pass.tally.record(0, u64::from(res.is_err()), || {
                        format!("project update rejected: {res:?}")
                    });
                    u64::from(res.is_ok())
                }
                Op::Upsert { dataset, entries } => {
                    let t = Instant::now();
                    stack
                        .server
                        .gatekeeper_mut()
                        .laser_mut()
                        .stream_upsert(DATASETS[dataset as usize], entries);
                    c.upsert_s.push(t.elapsed().as_secs_f64());
                    0
                }
            };
            c.hash = mix64(c.hash ^ v);
            pass.ops += 1;
        }
        if let Some(t) = run_start.take() {
            c.check_s += t.elapsed().as_secs_f64();
        }
        c.wall_s = start.elapsed().as_secs_f64();
        pass.chunks.push(c);
    }
    let gk = stack.server.gatekeeper_mut().stats();
    pass.gk_checks = gk.checks;
    pass.restraint_evals = gk.restraint_evals;
    pass.cost_units = gk.cost_units;
    let ls = stack.server.gatekeeper_mut().laser_mut().stats();
    pass.laser_memory_hits = ls.memory_hits;
    pass.laser_flash_reads = ls.flash_reads;
    pass.laser_misses = ls.misses;
    let ms = stack.server.stats();
    pass.not_modified = ms.not_modified;
    pass.pulls = ms.pulls;
    pass.reply_bytes = ms.reply_bytes;
}

/// Replays the same stream for as many chunks on a stack with the
/// optimizer off and compares the result hash of every chunk: reordering
/// restraints must never change an answer.
pub fn check_replay(world: &World, seed: u64, pass: &Pass) -> Tally {
    let mut stack = setup(world, false);
    let mut stream = Stream::new(seed);
    let mut replay = Pass::default();
    run(
        &mut stack,
        world,
        &mut stream,
        &mut replay,
        pass.chunks.len(),
        false,
    );
    let bad = pass
        .chunks
        .iter()
        .zip(&replay.chunks)
        .filter(|(a, b)| a.hash != b.hash)
        .count() as u64;
    let mut tally = pass.tally.clone();
    tally.record(pass.ops, bad * CHUNK as u64, || {
        format!("{bad} chunks answer differently with the optimizer off")
    });
    tally
}

fn pct_us(v: &[f64], p: f64) -> f64 {
    percentile(&mut v.to_vec(), p) * 1e6
}

/// The serving path's end-to-end metrics, each op at its fastest pass.
pub fn end_to_end(passes: &[Pass]) -> Metrics {
    let s = fastest_per_op(passes);
    let updates: Vec<f64> = s.update_s.iter().chain(&s.upsert_s).copied().collect();
    let mut m = Metrics::default();
    m.push(
        "serve_checks_per_s",
        ratio(s.checks as f64, s.check_s),
        "1/s",
    );
    m.push("serve_pull_p50_us", pct_us(&s.pull_s, 50.0), "us");
    m.push("serve_pull_p99_us", pct_us(&s.pull_s, 99.0), "us");
    m.push("serve_update_p50_us", pct_us(&updates, 50.0), "us");
    m
}

/// One-line summary with sample counts: every pass together, then each op
/// at its fastest pass, which the end-to-end metrics use.
pub fn describe(label: &str, passes: &[Pass]) -> String {
    let line = |s: &Sum| {
        let updates: Vec<f64> = s.update_s.iter().chain(&s.upsert_s).copied().collect();
        format!(
            "{} checks at {:.0}/s, pulls p50 {:.2} us p99 {:.2} us over {} samples, \
             updates p50 {:.2} us over {} samples",
            s.checks,
            ratio(s.checks as f64, s.check_s),
            pct_us(&s.pull_s, 50.0),
            pct_us(&s.pull_s, 99.0),
            s.pull_s.len(),
            pct_us(&updates, 50.0),
            updates.len()
        )
    };
    let all: Sum = passes.iter().flat_map(|p| &p.chunks).collect();
    format!(
        "{label}: {} passes of {} ops; every pass: {}; fastest pass per op: {}",
        passes.len(),
        passes.first().map_or(0, |p| p.ops),
        line(&all),
        line(&fastest_per_op(passes))
    )
}

/// The share table of a traced pass.
pub fn share_table(traced: &Pass) -> ShareTable {
    let s: Sum = traced.chunks.iter().collect();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    ShareTable::new(
        "serving path share of traced wall",
        s.wall_s,
        vec![
            ("gatekeeper checks".into(), s.check_s),
            ("mobileconfig pulls".into(), sum(&s.pull_s)),
            (
                "updates (project json + laser upsert)".into(),
                sum(&s.update_s) + sum(&s.upsert_s),
            ),
        ],
        "remainder (loop, hashing, timers)",
    )
}

/// The per-layer metrics of `gatekeeper`, `laser` and `mobileconfig` from
/// every chunk of a traced pass.
pub fn per_layer(p: &Pass) -> Metrics {
    let s: Sum = p.chunks.iter().collect();
    let reads = (p.laser_memory_hits + p.laser_flash_reads + p.laser_misses) as f64;
    let mut m = Metrics::default();
    m.push(
        "gatekeeper.check_ns",
        ratio(s.check_s * 1e9, s.checks as f64),
        "ns",
    );
    m.push(
        "gatekeeper.restraint_evals_per_check",
        ratio(p.restraint_evals as f64, p.gk_checks as f64),
        "count",
    );
    m.push(
        "gatekeeper.cost_units_per_check",
        ratio(p.cost_units as f64, p.gk_checks as f64),
        "count",
    );
    m.push(
        "laser.memory_hit_ratio",
        ratio(p.laser_memory_hits as f64, reads),
        "ratio",
    );
    m.push("laser.flash_reads", p.laser_flash_reads as f64, "count");
    m.push("gatekeeper.update_us", pct_us(&s.update_s, 50.0), "us");
    m.push("laser.upsert_us", pct_us(&s.upsert_s, 50.0), "us");
    m.push("mobileconfig.pull_us", pct_us(&s.pull_s, 50.0), "us");
    m.push(
        "mobileconfig.not_modified_ratio",
        ratio(p.not_modified as f64, p.pulls as f64),
        "ratio",
    );
    m.push(
        "mobileconfig.reply_bytes_per_pull",
        ratio(p.reply_bytes as f64, p.pulls as f64),
        "bytes",
    );
    m
}
