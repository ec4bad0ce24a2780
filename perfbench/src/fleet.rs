//! `fleet_day`: the diurnal commit day replayed over a Zeus distribution
//! tree on the simulator.
//!
//! A seeded day of config writes (`CommitProcess::hourly_series(1, seed)`,
//! one modeled hour per simulated second, scaled to at most 12 writes/s)
//! goes to four paths that every proxy watches. Lease healthchecks run
//! beside the write fan-out in the same run. Only `simnet` and `zeus` do
//! work here.
//!
//! End to end, a user of the replay sees how fast a simulated day passes
//! (`fleet_sim_speed`, simulated seconds per wall second), how many proxy
//! cache updates it delivers per wall second, and the propagation delay
//! from commit to proxy cache. The delays are virtual time: they repeat
//! exactly per seed and move only if the protocol changes. Raw events/s
//! is not an end-to-end metric, because a large share of the counted
//! events are `Arrive` hops inside the engine.

use std::time::Instant;

use bytes::Bytes;
use simnet::prelude::*;
use workload::commits::CommitProcess;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::metrics as zm;

use crate::report::{median, percentile, ratio, Metrics, ShareTable, Tally};

/// A symmetric fleet: regions × clusters per region × servers per cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Regions.
    pub regions: usize,
    /// Clusters per region.
    pub clusters: usize,
    /// Servers per cluster.
    pub servers: usize,
}

impl Shape {
    /// Number of servers in the fleet.
    pub fn nodes(self) -> usize {
        self.regions * self.clusters * self.servers
    }
}

/// The measured fleet: 20,000 servers.
pub const DAY: Shape = Shape {
    regions: 4,
    clusters: 10,
    servers: 500,
};

/// The fleet probed when another workload is measured: 1,008 servers.
pub const PROBE: Shape = Shape {
    regions: 3,
    clusters: 4,
    servers: 84,
};

/// Config paths written and watched by every proxy.
const PATHS: usize = 4;
/// Simulated microseconds per modeled hour.
const HOUR_US: u64 = 1_000_000;
/// The busiest hour is scaled to this many writes per simulated second.
const MAX_WRITES_PER_S: f64 = 12.0;
/// Simulated time after the last hour for the tree to settle.
const DRAIN_US: u64 = 5_000_000;

/// One scheduled write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    /// Simulated time of the write.
    pub at_us: u64,
    /// Path index in `0..PATHS`.
    pub path: usize,
    /// Sequence number; the payload is `v<seq>`.
    pub seq: u64,
}

/// A day of writes and the time the replay runs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Writes in time order.
    pub writes: Vec<Write>,
    /// Simulated end of the day.
    pub horizon_us: u64,
}

/// The seeded write day. Its size is fixed by the model (the expected
/// day scaled so the expected peak hour holds `MAX_WRITES_PER_S`); the
/// seed's sampled hourly counts only decide how the writes spread over
/// the hours, so every seed replays about the same amount of work.
pub fn schedule(seed: u64) -> Schedule {
    let process = CommitProcess::default();
    let hours = process.hourly_series(1, seed);
    let rates: Vec<f64> = (0..24).map(|h| process.rate(0, h)).collect();
    let peak = rates.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
    let total = (rates.iter().sum::<f64>() * MAX_WRITES_PER_S / peak).round() as u64;
    let per_hour = apportion(total, &hours, MAX_WRITES_PER_S as u64);
    let mut writes = Vec::new();
    let mut seq = 0u64;
    for (h, &n) in per_hour.iter().enumerate() {
        let start = HOUR_US + h as u64 * HOUR_US;
        for k in 0..n {
            writes.push(Write {
                at_us: start + k * (HOUR_US / n),
                path: seq as usize % PATHS,
                seq,
            });
            seq += 1;
        }
    }
    Schedule {
        writes,
        horizon_us: HOUR_US + hours.len() as u64 * HOUR_US + DRAIN_US,
    }
}

/// Splits `total` over slots in proportion to `weights` by largest
/// remainder, at most `cap` per slot.
fn apportion(total: u64, weights: &[u64], cap: u64) -> Vec<u64> {
    let sum = weights.iter().sum::<u64>().max(1);
    let mut out: Vec<u64> = weights
        .iter()
        .map(|&w| (total * w / sum).min(cap))
        .collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(total * weights[i] % sum), i));
    let mut left = total.saturating_sub(out.iter().sum());
    while left > 0 && out.iter().any(|&n| n < cap) {
        for &i in &order {
            if left > 0 && out[i] < cap {
                out[i] += 1;
                left -= 1;
            }
        }
    }
    out
}

fn path_name(i: usize) -> String {
    format!("fleet/{i}")
}

fn payload(seq: u64) -> Bytes {
    Bytes::from(format!("v{seq}"))
}

/// A fleet with the day's writes scheduled, ready to run.
pub struct Day {
    sim: Sim,
    zeus: ZeusDeployment,
    /// Wall seconds of each `advance` so far.
    step_wall_s: Vec<f64>,
}

/// Builds the simulator, installs the Zeus tree and schedules `sched`.
/// `profile` turns on the simulator's per-dispatch profiler; otherwise
/// only the lean queue statistics are kept.
pub fn setup(shape: Shape, sched: &Schedule, seed: u64, profile: bool) -> Day {
    let topo = Topology::symmetric(shape.regions, shape.clusters, shape.servers);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    if profile {
        sim.enable_profiler();
    } else {
        sim.enable_queue_stats();
    }
    let cfg = DeployConfig {
        subscriptions: (0..PATHS).map(path_name).collect(),
        ..DeployConfig::default()
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    for w in &sched.writes {
        zeus.write_current(
            &mut sim,
            SimTime(w.at_us),
            &path_name(w.path),
            payload(w.seq),
        );
    }
    Day {
        sim,
        zeus,
        step_wall_s: Vec::new(),
    }
}

impl Day {
    /// Runs the simulator up to `to_us` of simulated time, timing it.
    pub fn advance(&mut self, to_us: u64) {
        let start = Instant::now();
        self.sim.run_until(SimTime(to_us));
        self.step_wall_s.push(start.elapsed().as_secs_f64());
    }

    /// Simulated microseconds replayed so far.
    pub fn now_us(&self) -> u64 {
        self.sim.now().0
    }
}

/// One (actor kind, event class) cell of the profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Actor kind, e.g. `zeus.proxy`.
    pub kind: &'static str,
    /// Event class label, e.g. `deliver`.
    pub class: &'static str,
    /// Dispatches.
    pub events: u64,
    /// Wall seconds inside the handler.
    pub wall_s: f64,
}

/// What one replayed day produced.
#[derive(Debug, Clone)]
pub struct DayRun {
    /// Wall seconds spent in `Sim::run_until`.
    pub wall_s: f64,
    /// The same, step by step.
    pub step_wall_s: Vec<f64>,
    /// Simulated seconds replayed.
    pub sim_s: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Cache-changing notifies applied at proxies.
    pub proxy_updates: u64,
    /// Propagation samples (one per proxy update).
    pub samples: u64,
    /// Median propagation delay, virtual ms.
    pub p50_ms: f64,
    /// 99.99th percentile propagation delay, virtual ms.
    pub p9999_ms: f64,
    /// Bytes the network model carried.
    pub bytes_sent: u64,
    /// Peak event-queue depth.
    pub queue_peak: usize,
    /// Mean event-queue depth per event.
    pub queue_mean: f64,
    /// Lease renewals processed by observers.
    pub lease_renewals: u64,
    /// Frame-loss repairs.
    pub lease_repairs: u64,
    /// Leases expired.
    pub lease_expiries: u64,
    /// Profiler cells (empty unless profiled).
    pub cells: Vec<Cell>,
    /// Correctness: every path converged and every update was sampled.
    pub tally: Tally,
}

/// Runs `day` to the horizon of `sched` and checks the result.
pub fn run_day(mut day: Day, sched: &Schedule) -> DayRun {
    day.advance(sched.horizon_us);
    finish_day(day, sched)
}

/// Checks a day that has reached its horizon and collects its counters.
fn finish_day(day: Day, sched: &Schedule) -> DayRun {
    let Day {
        sim,
        zeus,
        step_wall_s,
    } = day;
    let m = sim.metrics();
    let proxy_updates = m.counter(zm::PROXY_UPDATES);
    let mut delays: Vec<f64> = m.samples(zm::PROPAGATION_S).to_vec();
    let samples = delays.len() as u64;
    let p50_ms = percentile(&mut delays, 50.0) * 1e3;
    let p9999_ms = percentile(&mut delays, 99.99) * 1e3;

    let mut tally = Tally::default();
    for p in 0..PATHS {
        let writes = sched.writes.iter().filter(|w| w.path == p).count() as u64;
        let Some(last) = sched.writes.iter().rev().find(|w| w.path == p) else {
            continue;
        };
        let cov = zeus.coverage(&sim, &path_name(p), &payload(last.seq));
        tally.record(writes, if cov == 1.0 { 0 } else { writes }, || {
            format!(
                "fleet: path {p} ends at coverage {cov} of its last write v{}",
                last.seq
            )
        });
    }
    if samples != proxy_updates {
        let n = sched.writes.len() as u64;
        tally.record(0, n, || {
            format!("fleet: {samples} propagation samples for {proxy_updates} proxy updates")
        });
    }

    let prof = sim.profiler();
    let cells = prof
        .cells()
        .map(|(kind, class, c)| Cell {
            kind,
            class: class.label(),
            events: c.events,
            wall_s: c.wall_ns as f64 / 1e9,
        })
        .collect();
    DayRun {
        wall_s: step_wall_s.iter().sum(),
        step_wall_s,
        sim_s: sched.horizon_us as f64 / 1e6,
        events: sim.events_processed(),
        proxy_updates,
        samples,
        p50_ms,
        p9999_ms,
        bytes_sent: m.counter(simnet::stats::names::BYTES_SENT),
        queue_peak: prof.queue_peak(),
        queue_mean: prof.queue_mean(),
        lease_renewals: m.counter(zm::LEASE_RENEWALS),
        lease_repairs: m.counter(zm::LEASE_REPAIRS),
        lease_expiries: m.counter(zm::LEASE_EXPIRIES),
        cells,
        tally,
    }
}

/// Simulated microseconds one step of a sliced replay advances.
const STEP_US: u64 = 1_000_000;

/// A fixed number of untraced days of one fleet shape, replayed in steps
/// so other work can interleave with them.
pub struct Fleet {
    shape: Shape,
    seed: u64,
    sched: Schedule,
    days: usize,
    current: Option<Day>,
    steps_done: u64,
    /// The days replayed to their horizon.
    pub runs: Vec<DayRun>,
}

impl Fleet {
    /// `days` days of `shape` replaying the seeded day.
    pub fn new(shape: Shape, seed: u64, days: usize) -> Fleet {
        Fleet {
            shape,
            seed,
            sched: schedule(seed),
            days: days.max(1),
            current: None,
            steps_done: 0,
            runs: Vec::new(),
        }
    }

    /// The fleet's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The seeded write day.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Steps in the whole replay.
    pub fn total_steps(&self) -> u64 {
        self.days as u64 * self.sched.horizon_us.div_ceil(STEP_US)
    }

    /// Replays until `steps` steps (at most the whole replay) have run,
    /// setting up each day when it starts.
    pub fn run_to(&mut self, steps: u64) {
        while self.steps_done < steps.min(self.total_steps()) {
            let day = match self.current.as_mut() {
                Some(d) => d,
                None => self
                    .current
                    .insert(setup(self.shape, &self.sched, self.seed, false)),
            };
            let to = (day.now_us() + STEP_US).min(self.sched.horizon_us);
            day.advance(to);
            self.steps_done += 1;
            if to == self.sched.horizon_us {
                let d = self.current.take().expect("a day is in progress");
                self.runs.push(finish_day(d, &self.sched));
            }
        }
    }

    /// Replays what is left, then checks every day: each converged, and
    /// each replayed the first exactly.
    pub fn finish(mut self) -> Days {
        self.run_to(self.total_steps());
        let mut tally = Tally::default();
        let first = &self.runs[0];
        for r in &self.runs {
            tally.merge(r.tally.clone());
            let same = r.events == first.events
                && r.proxy_updates == first.proxy_updates
                && r.p50_ms == first.p50_ms
                && r.p9999_ms == first.p9999_ms;
            tally.record(1, u64::from(!same), || {
                format!(
                    "fleet: a repeated day diverged (events {} vs {}, updates {} vs {})",
                    r.events, first.events, r.proxy_updates, first.proxy_updates
                )
            });
        }
        Days {
            runs: self.runs,
            tally,
        }
    }
}

/// Finished days of one fleet shape.
#[derive(Debug, Clone)]
pub struct Days {
    /// The days replayed.
    pub runs: Vec<DayRun>,
    /// Correctness over every day, including that every day of the run
    /// replays the first exactly.
    pub tally: Tally,
}

/// A day's wall time with interference from the host trimmed: each step
/// of the day takes its fastest wall over the run's days, and the steps
/// add up. Neighbours on a shared host slow this process in phases of a
/// second or more, while every day of a run replays the same events, so a
/// step's fastest replay shows the simulator's own speed.
pub fn steady_day_s(d: &Days) -> f64 {
    let steps = d.runs[0].step_wall_s.len();
    (0..steps)
        .map(|i| {
            d.runs
                .iter()
                .map(|r| r.step_wall_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The fleet's end-to-end metrics from untraced days: rates over the
/// steady day wall, and the (identical) virtual delays of the day.
pub fn end_to_end(d: &Days) -> Metrics {
    let r = &d.runs[0];
    let wall = steady_day_s(d);
    let mut m = Metrics::default();
    m.push("fleet_sim_speed", r.sim_s / wall, "s/s");
    m.push(
        "fleet_proxy_updates_per_s",
        r.proxy_updates as f64 / wall,
        "1/s",
    );
    m.push("fleet_propagation_p50_ms", d.runs[0].p50_ms, "ms");
    m.push("fleet_propagation_p9999_ms", d.runs[0].p9999_ms, "ms");
    m
}

/// One-line summary with sample counts, for the human-readable output.
pub fn describe(label: &str, shape: Shape, d: &Days) -> String {
    let r = &d.runs[0];
    format!(
        "{label}: {} nodes, {} days, wall/day {:.3} s (median), {:.3} s (steady), {} events, \
         {} proxy updates, propagation p50 {:.3} ms p99.99 {:.3} ms over {} samples",
        shape.nodes(),
        d.runs.len(),
        median(&d.runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        steady_day_s(d),
        r.events,
        r.proxy_updates,
        r.p50_ms,
        r.p9999_ms,
        r.samples
    )
}

/// The traced pair: an untraced day, then the same day with the profiler.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The untraced day.
    pub plain: DayRun,
    /// The profiled day.
    pub traced: DayRun,
}

/// Replays the seeded day untraced and then profiled.
pub fn traced(shape: Shape, seed: u64) -> Traced {
    let sched = schedule(seed);
    let plain = run_day(setup(shape, &sched, seed, false), &sched);
    let traced = run_day(setup(shape, &sched, seed, true), &sched);
    Traced { plain, traced }
}

fn cell_sum(cells: &[Cell], kind: &str, class: Option<&str>) -> (u64, f64) {
    cells
        .iter()
        .filter(|c| c.kind == kind && class.is_none_or(|k| c.class == k))
        .fold((0, 0.0), |(e, w), c| (e + c.events, w + c.wall_s))
}

/// The fleet's share table: every handler cell plus the engine residual
/// (wall time outside any handler: queue, network model, dispatch).
pub fn share_table(t: &DayRun) -> ShareTable {
    let rows = t
        .cells
        .iter()
        .map(|c| (format!("{}/{}", c.kind, c.class), c.wall_s))
        .collect();
    ShareTable::new(
        "fleet_day share of traced wall",
        t.wall_s,
        rows,
        "engine residual",
    )
}

/// The per-layer metrics of `simnet` and `zeus` from a traced day.
pub fn per_layer(t: &Traced) -> Metrics {
    let r = &t.traced;
    let handler_events: u64 = r.cells.iter().map(|c| c.events).sum();
    let handler_s: f64 = r.cells.iter().map(|c| c.wall_s).sum();
    let residual_s = r.wall_s - handler_s;
    let (pd_e, pd_s) = cell_sum(&r.cells, "zeus.proxy", Some("deliver"));
    let (pt_e, pt_s) = cell_sum(&r.cells, "zeus.proxy", Some("timer"));
    let (od_e, od_s) = cell_sum(&r.cells, "zeus.observer", Some("deliver"));
    let (_, ens_s) = cell_sum(&r.cells, "zeus.ensemble", None);
    let ups = r.proxy_updates as f64;
    let mut m = Metrics::default();
    m.push("simnet.events", r.events as f64, "count");
    m.push(
        "simnet.arrive_events",
        r.events.saturating_sub(handler_events) as f64,
        "count",
    );
    m.push("simnet.engine_residual_s", residual_s, "s");
    m.push(
        "simnet.engine_ns_per_event",
        ratio(residual_s * 1e9, r.events as f64),
        "ns",
    );
    m.push(
        "simnet.events_per_s",
        ratio(r.events as f64, r.wall_s),
        "1/s",
    );
    m.push("simnet.queue_peak", r.queue_peak as f64, "count");
    m.push("simnet.queue_mean", r.queue_mean, "count");
    m.push("simnet.bytes_sent", r.bytes_sent as f64, "bytes");
    m.push("zeus.proxy.deliver_s", pd_s, "s");
    m.push("zeus.proxy.deliver_events", pd_e as f64, "count");
    m.push("zeus.proxy.timer_s", pt_s, "s");
    m.push("zeus.proxy.timer_events", pt_e as f64, "count");
    m.push("zeus.observer.deliver_s", od_s, "s");
    m.push("zeus.observer.deliver_events", od_e as f64, "count");
    m.push("zeus.ensemble.busy_s", ens_s, "s");
    m.push("zeus.proxy_updates", ups, "count");
    m.push(
        "zeus.events_per_update",
        ratio(r.events as f64, ups),
        "count",
    );
    m.push(
        "zeus.bytes_per_update",
        ratio(r.bytes_sent as f64, ups),
        "bytes",
    );
    m.push("zeus.lease_renewals", r.lease_renewals as f64, "count");
    m.push("zeus.lease_repairs", r.lease_repairs as f64, "count");
    m.push("zeus.lease_expiries", r.lease_expiries as f64, "count");
    m
}
