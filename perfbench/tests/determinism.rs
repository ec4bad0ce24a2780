//! What the benchmark itself promises: the same seed gives the same inputs and
//! the same virtual results, every correctness check passes on a small
//! input, the traced share tables sum to their walls, and the metric names
//! match `BENCHMARK.json`.

use perfbench::report::ShareTable;
use perfbench::{commit, fleet, run, serve};

const TINY_FLEET: fleet::Shape = fleet::Shape {
    regions: 3,
    clusters: 2,
    servers: 10,
};

const TINY_TREE: commit::Tree = commit::Tree {
    entries: 60,
    widest: 20,
    hot_dependents: 5,
    raws: 10,
};

fn assert_table_sums(t: &ShareTable) {
    assert!(t.total_s > 0.0, "{}: empty wall", t.title);
    assert!(
        (t.sum_s() - t.total_s).abs() <= 1e-9 * t.total_s.max(1.0),
        "{}: rows sum to {} of {}",
        t.title,
        t.sum_s(),
        t.total_s
    );
    for (name, s) in &t.rows {
        assert!(*s >= 0.0, "{}: row {name} is negative ({s})", t.title);
    }
}

#[test]
fn fleet_schedule_is_seeded() {
    assert_eq!(fleet::schedule(7), fleet::schedule(7));
    assert_ne!(fleet::schedule(7), fleet::schedule(8));
    let s = fleet::schedule(7);
    assert!(s.writes.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    assert!(s.writes.iter().all(|w| w.at_us < s.horizon_us));
}

#[test]
fn fleet_day_repeats_exactly_and_converges() {
    let sched = fleet::schedule(3);
    let a = fleet::run_day(fleet::setup(TINY_FLEET, &sched, 3, false), &sched);
    let b = fleet::run_day(fleet::setup(TINY_FLEET, &sched, 3, false), &sched);
    let traced = fleet::run_day(fleet::setup(TINY_FLEET, &sched, 3, true), &sched);
    for r in [&a, &b, &traced] {
        assert_eq!(r.tally.failed, 0, "{:?}", r.tally.notes);
        assert_eq!(r.tally.attempted, sched.writes.len() as u64);
        assert_eq!(
            (
                r.events,
                r.proxy_updates,
                r.samples,
                r.bytes_sent,
                r.queue_peak
            ),
            (
                a.events,
                a.proxy_updates,
                a.samples,
                a.bytes_sent,
                a.queue_peak
            )
        );
        assert_eq!((r.p50_ms, r.p9999_ms), (a.p50_ms, a.p9999_ms));
        assert_eq!(
            (r.lease_renewals, r.lease_repairs, r.lease_expiries),
            (a.lease_renewals, a.lease_repairs, a.lease_expiries)
        );
    }
    assert_eq!(a.queue_mean, b.queue_mean);
    assert!(a.proxy_updates >= sched.writes.len() as u64);
    assert!(a.cells.is_empty(), "untraced days record no cells");
    let handler_events: u64 = traced.cells.iter().map(|c| c.events).sum();
    assert!(handler_events > 0 && handler_events < traced.events);
    assert_table_sums(&fleet::share_table(&traced));
}

#[test]
fn sliced_fleet_days_match_a_whole_day() {
    let sched = fleet::schedule(3);
    let whole = fleet::run_day(fleet::setup(TINY_FLEET, &sched, 3, false), &sched);
    let mut f = fleet::Fleet::new(TINY_FLEET, 3, 2);
    let per_day = f.total_steps() / 2;
    f.run_to(5);
    f.run_to(per_day + 3);
    assert_eq!(f.runs.len(), 1);
    let d = f.finish();
    assert_eq!(d.runs.len(), 2);
    assert_eq!(d.tally.failed, 0, "{:?}", d.tally.notes);
    for r in &d.runs {
        assert_eq!(
            (r.events, r.proxy_updates, r.p50_ms, r.p9999_ms),
            (
                whole.events,
                whole.proxy_updates,
                whole.p50_ms,
                whole.p9999_ms
            )
        );
    }
}

#[test]
fn fleet_days_are_the_same_size_for_every_seed() {
    let sizes: Vec<usize> = (1..=10).map(|s| fleet::schedule(s).writes.len()).collect();
    assert!(sizes.iter().all(|&n| n == sizes[0]), "{sizes:?}");
    for s in 1..=10 {
        let sched = fleet::schedule(s);
        for h in 0..24u64 {
            let in_hour = sched
                .writes
                .iter()
                .filter(|w| w.at_us / 1_000_000 == h + 1)
                .count();
            assert!(in_hour <= 12, "hour {h} of seed {s} has {in_hour} writes");
        }
    }
}

#[test]
fn commit_inputs_are_seeded() {
    assert_eq!(
        commit::Corpus::new(TINY_TREE, 5),
        commit::Corpus::new(TINY_TREE, 5)
    );
    assert_ne!(
        commit::Corpus::new(TINY_TREE, 5),
        commit::Corpus::new(TINY_TREE, 6)
    );
    let a: Vec<_> = commit::Stream::new(TINY_TREE, 5).take(500).collect();
    let b: Vec<_> = commit::Stream::new(TINY_TREE, 5).take(500).collect();
    let c: Vec<_> = commit::Stream::new(TINY_TREE, 6).take(500).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    let hot = a.iter().filter(|o| o.kind == commit::OpKind::Hot).count();
    let raw = a
        .iter()
        .filter(|o| matches!(o.kind, commit::OpKind::Raw(_)))
        .count();
    assert_eq!(hot, 25, "exactly 5% hot edits");
    assert_eq!(raw, 175, "exactly 35% raw updates");
}

#[test]
fn stream_tree_has_the_stated_shape() {
    let paths = commit::entry_paths(commit::STREAM);
    assert_eq!(paths.len(), 5_000);
    let widest = paths.iter().filter(|p| p.starts_with("d01/")).count();
    assert_eq!(widest, 1_000);
}

fn commit_pass(traced: bool) -> (commit::Pass, commit::State) {
    let corpus = commit::Corpus::new(TINY_TREE, 9);
    let mut state = commit::setup(&corpus);
    let mut stream = commit::Stream::new(TINY_TREE, 9);
    let mut pass = commit::Pass::default();
    // Two calls, as the interleaved runner makes them.
    commit::run(&mut state, &mut stream, &mut pass, 50, traced);
    commit::run(&mut state, &mut stream, &mut pass, 120, traced);
    (pass, state)
}

#[test]
fn commit_counters_repeat_and_outputs_check() {
    let (a, sa) = commit_pass(false);
    let (b, _) = commit_pass(false);
    let (t, st) = commit_pass(true);
    for p in [&a, &b, &t] {
        assert_eq!(p.commits, 120);
        assert_eq!(p.tally.attempted, 120);
        assert_eq!(p.tally.failed, 0, "{:?}", p.tally.notes);
    }
    let counters = |p: &commit::Pass| {
        (
            p.compiled,
            p.candidates,
            p.skipped,
            p.drained,
            p.files,
            p.kinds.clone(),
        )
    };
    assert_eq!(counters(&a), counters(&b));
    assert_eq!(counters(&a), counters(&t));
    assert_eq!(
        (a.parse_hits, a.parse_misses),
        (b.parse_hits, b.parse_misses)
    );
    for s in [&sa, &st] {
        let fin = commit::check_final(&commit::landed(s));
        assert_eq!(fin.failed, 0, "{:?}", fin.notes);
        assert!(fin.attempted >= TINY_TREE.entries as u64);
    }
    assert!(t.plan_s > 0.0 && t.gitstore_s > 0.0 && t.drain_s > 0.0);
    assert_eq!(
        (a.plan_s, a.gitstore_s),
        (0.0, 0.0),
        "untraced passes time no plan"
    );
    assert_table_sums(&commit::share_table(&t));
}

#[test]
fn commit_replays_land_the_same_stream_in_every_landing() {
    let corpus = commit::Corpus::new(TINY_TREE, 4);
    let first = commit::setup(&corpus);
    let mut r = commit::Replays::new(corpus, TINY_TREE, 4, 40, commit::LANDINGS, first);
    r.run_to(30);
    r.run_to(55);
    assert_eq!(r.done.len(), 1);
    r.run_to(r.total());
    assert_eq!(r.done.len(), commit::LANDINGS);
    let checked = r.check();
    assert_eq!(checked.failed, 0, "{:?}", checked.notes);
    let landings = commit::LANDINGS as u64;
    assert!(checked.attempted >= landings * (40 + TINY_TREE.entries as u64));
    let a = &r.done[0];
    for b in &r.done[1..] {
        assert_eq!(
            (&a.kinds, a.compiled, a.drained, a.files),
            (&b.kinds, b.compiled, b.drained, b.files)
        );
    }
    let steady = commit::steady_latency_s(&r.done);
    assert_eq!(steady.len(), 40);
    assert!(steady.iter().enumerate().all(|(i, s)| {
        *s == r
            .done
            .iter()
            .map(|p| p.latency_s[i])
            .fold(f64::INFINITY, f64::min)
    }));
}

#[test]
fn steady_fleet_day_takes_the_faster_replay_of_each_step() {
    let mut f = fleet::Fleet::new(TINY_FLEET, 3, 2);
    f.run_to(f.total_steps());
    let d = f.finish();
    let (a, b) = (&d.runs[0].step_wall_s, &d.runs[1].step_wall_s);
    assert_eq!(a.len(), b.len());
    let want: f64 = a.iter().zip(b).map(|(x, y)| x.min(*y)).sum();
    assert_eq!(fleet::steady_day_s(&d), want);
}

#[test]
fn serve_inputs_are_seeded() {
    let w = serve::World::new(4);
    let a = serve::Stream::new(4).chunk(&w);
    let b = serve::Stream::new(4).chunk(&w);
    let c = serve::Stream::new(5).chunk(&w);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a
        .iter()
        .any(|o| matches!(o, serve::Op::Pull { cold: true, .. })));
    assert!(a
        .iter()
        .any(|o| matches!(o, serve::Op::Pull { cold: false, .. })));
    assert!(a.iter().any(|o| matches!(o, serve::Op::Update(_))));
}

#[test]
fn serve_answers_repeat_and_match_the_unoptimized_replay() {
    let world = serve::World::new(2);
    let pass = |traced: bool| {
        let mut stack = serve::setup(&world, true);
        let mut stream = serve::Stream::new(2);
        let mut pass = serve::Pass::default();
        serve::run(&mut stack, &world, &mut stream, &mut pass, 2, traced);
        serve::run(&mut stack, &world, &mut stream, &mut pass, 6, traced);
        pass
    };
    let a = pass(false);
    let b = pass(false);
    let t = pass(true);
    for p in [&a, &b, &t] {
        assert_eq!(p.ops, 6 * serve::CHUNK as u64);
        assert_eq!(p.hashes(), a.hashes());
        assert_eq!(
            (p.gk_checks, p.restraint_evals, p.cost_units),
            (a.gk_checks, a.restraint_evals, a.cost_units)
        );
        assert_eq!(
            (p.laser_memory_hits, p.laser_flash_reads, p.laser_misses),
            (a.laser_memory_hits, a.laser_flash_reads, a.laser_misses)
        );
        assert_eq!(
            (p.pulls, p.not_modified, p.reply_bytes),
            (a.pulls, a.not_modified, a.reply_bytes)
        );
    }
    assert!(a.laser_flash_reads > 0 && a.laser_memory_hits > 0);
    assert!(a.not_modified > 0 && a.not_modified < a.pulls);
    assert!(a.chunks.iter().any(|c| !c.update_s.is_empty()));
    let replay = serve::check_replay(&world, 2, &a);
    assert_eq!(replay.failed, 0, "{:?}", replay.notes);
    assert_eq!(replay.attempted, a.ops);
    assert_table_sums(&serve::share_table(&t));
}

#[test]
fn serve_replays_serve_the_same_stream_in_every_pass() {
    let mut r = serve::Replays::new(serve::World::new(3), 3, 4);
    r.run_to(3);
    r.run_to(6);
    assert_eq!(r.done.len(), 1);
    r.run_to(r.total());
    assert_eq!(r.done.len(), serve::PASSES);
    let checked = r.check();
    assert_eq!(checked.failed, 0, "{:?}", checked.notes);
    assert_eq!(checked.attempted, (serve::PASSES * 4 * serve::CHUNK) as u64);
    let first = &r.done[0];
    assert!(r.done.iter().all(|p| p.hashes() == first.hashes()));
    let min_over = |f: &dyn Fn(&serve::Pass) -> Vec<f64>| -> Vec<f64> {
        let all: Vec<Vec<f64>> = r.done.iter().map(f).collect();
        (0..all[0].len())
            .map(|j| all.iter().map(|v| v[j]).fold(f64::INFINITY, f64::min))
            .collect()
    };
    let steady = serve::fastest_per_op(&r.done);
    let pulls = min_over(&|p| p.chunks.iter().flat_map(|c| c.pull_s.clone()).collect());
    assert_eq!(steady.pull_s, pulls);
    let check_s: f64 = min_over(&|p| p.chunks.iter().map(|c| c.check_s).collect())
        .iter()
        .sum();
    assert_eq!(steady.check_s, check_s);
    let checks: u64 = first.chunks.iter().map(|c| c.checks).sum();
    assert_eq!(steady.checks, checks);
}

fn listed_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted")].to_string())
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let e2e: Vec<String> = run::END_TO_END.iter().map(|s| s.to_string()).collect();
    assert_eq!(listed_names("end_to_end"), e2e);
    let fleet = fleet::per_layer(&fleet::traced(TINY_FLEET, 1));
    let (plain, _) = commit_pass(false);
    let (traced, state) = commit_pass(true);
    let commit = commit::per_layer(&plain, &traced, &state);
    let world = serve::World::new(1);
    let mut stack = serve::setup(&world, true);
    let mut pass = serve::Pass::default();
    serve::run(
        &mut stack,
        &world,
        &mut serve::Stream::new(1),
        &mut pass,
        1,
        true,
    );
    let serve = serve::per_layer(&pass);
    let mut per_layer: Vec<String> = [fleet, commit, serve]
        .iter()
        .flat_map(|m| m.0.iter().map(|m| m.name.to_string()))
        .collect();
    per_layer.extend(run::TRACE_METRICS.iter().map(|s| s.to_string()));
    assert_eq!(listed_names("per_layer"), per_layer);
}
