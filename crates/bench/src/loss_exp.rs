//! `repro losssweep`: bytes-on-wire under sustained message loss —
//! ack-aware batched retransmission versus the per-write re-broadcast
//! baseline.
//!
//! The heartbeat pacer substitutes for ZAB's FIFO TCP channels on a lossy
//! network: whatever a drop swallowed is re-sent on the next 50 ms tick.
//! The pre-batching pacer re-broadcast the **entire uncommitted tail, one
//! `Append` per write, to every follower — including followers that had
//! already acknowledged** (O(tail × cluster) per tick), and the leader
//! pushed one frame per committed write to every observer. The ack-aware
//! pacer keeps a per-follower cumulative-ack cursor and sends each
//! follower exactly the writes it is missing, as one `AppendBatch` frame;
//! commits ship to each observer as one `ObserverUpdateBatch`, and
//! observers coalesce proxy notifies.
//!
//! Only the current (batched) protocol runs. The pre-batching baseline no
//! longer exists in the Zeus actors; its cells are frozen in
//! [`FROZEN_LEGACY`], recorded from the last commit that could still run
//! it, and printed next to the live rows. A seed without frozen rows gets
//! the live rows only, plus a note naming the seeds the baseline covers —
//! the report never invents baseline numbers.
//!
//! Each drop rate runs a seeded bursty workload — as a config deployment
//! wave produces, which is exactly where the in-order commit point stalls
//! and the uncommitted tail grows. The report compares total
//! bytes-on-wire, frames, retransmitted (follower, write) pairs, the
//! commit→proxy p50/p99, and how many sub-runs converged (every proxy
//! holding the final bytes at the horizon). The output is
//! byte-deterministic per seed (`scripts/check.sh` runs it twice, diffs,
//! and diffs seed 1 against a golden).

use simnet::prelude::*;
use simnet::stats::names as simnames;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::ensemble::EnsembleConfig;

/// Drop rates swept, in percent.
const DROPS_PCT: &[u32] = &[0, 10, 30, 50];
/// Distinct config paths the writes cycle over.
const PATHS: usize = 4;
/// Write bursts (deployment waves) pushed through the pipeline.
const BURSTS: usize = 6;
/// Writes per burst.
const BURST: usize = 30;
/// Payload bytes per write (a compiled-config-sized blob).
const PAYLOAD: usize = 2048;
const FIRST_BURST_US: u64 = 1_000_000;
const BURST_PERIOD_US: u64 = 2_000_000;
/// Settle time after the last burst (lets 50%-drop runs drain).
const SETTLE_US: u64 = 20_000_000;
/// Seeded sub-runs merged per drop-rate cell: tail percentiles of a
/// single lossy run are dominated by a handful of repair events, so one
/// seed's p99 is noise. Merging histograms and counters across sub-runs
/// keeps the output deterministic while measuring something stable.
const SUBRUNS: u64 = 5;

/// One cell's observables, merged over `SUBRUNS` sub-runs.
struct RunStats {
    bytes: u64,
    frames: u64,
    retransmit_pairs: u64,
    commits: u64,
    proxy_updates: u64,
    p50_s: Option<f64>,
    p99_s: Option<f64>,
    /// Sub-runs in which every proxy held the final bytes at the horizon.
    converged_runs: u64,
}

/// Commit whose `repro losssweep` recorded [`FROZEN_LEGACY`].
const FROZEN_AT: &str = "5003112fef649d04edeb6d9ae28e11641fd1c090";

/// The pre-batching baseline (per-write re-broadcast, per-write observer
/// pushes, per-path notifies, ungated gap resyncs, re-subscribe on every
/// healthcheck), as `(seed, drop %, cell)`. Measured with this module's
/// workload and sub-run merge at [`FROZEN_AT`], the last commit whose
/// Zeus actors could still run the baseline. Seed 1 covers the report;
/// seed 7 at 30% is the test's baseline.
#[rustfmt::skip]
const FROZEN_LEGACY: &[(u64, u32, RunStats)] = &[
    // seed, drop%, cell(bytes, frames, retransmits, commits, proxy_upd, p50 s, p99 s, converged)
    (1, 0, cell(48_788_640, 102_375, 3_600, 900, 8_325, 0.121616, 0.121616, 5)),
    (1, 10, cell(163_268_142, 90_673, 5_728, 900, 7_084, 0.135167, 0.507903, 5)),
    (1, 30, cell(109_677_386, 63_550, 9_484, 900, 4_600, 0.184319, 1.802239, 5)),
    (1, 50, cell(61_840_572, 44_788, 17_024, 900, 2_788, 0.303103, 7.733247, 0)),
    (7, 30, cell(109_088_850, 63_365, 9_212, 900, 4_733, 0.184319, 1.835007, 5)),
];

/// A frozen [`RunStats`] row (positional, to keep the table one line per
/// cell).
#[allow(clippy::too_many_arguments)]
const fn cell(
    bytes: u64,
    frames: u64,
    retransmit_pairs: u64,
    commits: u64,
    proxy_updates: u64,
    p50_s: f64,
    p99_s: f64,
    converged_runs: u64,
) -> RunStats {
    RunStats {
        bytes,
        frames,
        retransmit_pairs,
        commits,
        proxy_updates,
        p50_s: Some(p50_s),
        p99_s: Some(p99_s),
        converged_runs,
    }
}

/// The frozen baseline cell for `(seed, pct)`, if one was recorded.
fn frozen_legacy(seed: u64, pct: u32) -> Option<&'static RunStats> {
    FROZEN_LEGACY
        .iter()
        .find(|(s, p, _)| (*s, *p) == (seed, pct))
        .map(|(_, _, r)| r)
}

fn path(i: usize) -> String {
    format!("loss/{}", i % PATHS)
}

fn run_once(seed: u64, drop: f64) -> Metrics {
    let topo = Topology::symmetric(3, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 1,
        // One watched path keeps the notify fan-out from drowning the
        // retransmission traffic under measurement.
        subscriptions: vec![path(0)],
        ensemble: EnsembleConfig::default(),
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    if drop > 0.0 {
        sim.set_link_faults(LinkFaults {
            drop_prob: drop,
            ..LinkFaults::default()
        });
    }
    for b in 0..BURSTS {
        let at = SimTime(FIRST_BURST_US + b as u64 * BURST_PERIOD_US);
        for i in 0..BURST {
            let idx = b * BURST + i;
            zeus.write_current(&mut sim, at, &path(idx), vec![idx as u8; PAYLOAD]);
        }
    }
    let horizon = SimTime(FIRST_BURST_US + BURSTS as u64 * BURST_PERIOD_US + SETTLE_US);
    sim.run_until(horizon);
    // End-state convergence: does every proxy hold the final bytes of the
    // watched path at the horizon? Recorded as a counter so merged cells
    // can assert that repair closed every gap the drops opened.
    let last_idx = (0..BURSTS * BURST).rev().find(|i| i % PATHS == 0).unwrap();
    let expected = vec![last_idx as u8; PAYLOAD];
    if zeus.coverage(&sim, &path(0), &expected) == 1.0 {
        sim.metrics_mut().incr("loss.converged_runs", 1);
    }
    sim.metrics().clone()
}

/// Merges `SUBRUNS` seeded runs of one drop-rate cell.
fn run_cell(seed: u64, drop: f64) -> RunStats {
    let mut merged = Metrics::new();
    for sub in 0..SUBRUNS {
        merged.merge(&run_once(seed + 1000 * sub, drop));
    }
    RunStats {
        bytes: merged.counter(simnames::BYTES_SENT),
        frames: merged.counter(simnames::MESSAGES_SENT),
        retransmit_pairs: merged.counter(zeus::metrics::APPEND_RETRANSMITS),
        commits: merged.counter(zeus::metrics::COMMITS),
        proxy_updates: merged.counter(zeus::metrics::PROXY_UPDATES),
        p50_s: merged
            .histogram(zeus::metrics::PROPAGATION_S)
            .map(|h| h.quantile_secs(0.50)),
        p99_s: merged
            .histogram(zeus::metrics::PROPAGATION_S)
            .map(|h| h.quantile_secs(0.99)),
        converged_runs: merged.counter("loss.converged_runs"),
    }
}

fn fmt_bytes(b: u64) -> String {
    format!("{:.2} MB", b as f64 / 1e6)
}

fn fmt_p99(p: Option<f64>) -> String {
    match p {
        Some(s) => format!("{s:.3}s"),
        None => "-".to_string(),
    }
}

/// Runs the sweep and renders the comparison table.
pub fn losssweep(seed: u64) -> String {
    let mut out = format!(
        "loss sweep — seed {seed}: ack-aware batched retransmission vs per-write re-broadcast\n\
         fleet: 3 regions × 2 clusters × 8 servers; 5-node ensemble, 1 observer/cluster\n\
         workload: {BURSTS} bursts × {BURST} writes ({PAYLOAD} B payloads) over {PATHS} paths\n\n\
         {:>5}  {:<8} {:>14} {:>9} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10}\n",
        "drop%",
        "mode",
        "bytes-on-wire",
        "frames",
        "retransmits",
        "commits",
        "proxy_upd",
        "commit→p50",
        "commit→p99",
        "converged",
    );
    let mut summary = String::new();
    let mut missing = false;
    for &pct in DROPS_PCT {
        let legacy = frozen_legacy(seed, pct);
        let batched = run_cell(seed, pct as f64 / 100.0);
        for (name, r) in [("legacy", legacy), ("batched", Some(&batched))] {
            let Some(r) = r else { continue };
            out.push_str(&format!(
                "{pct:>5}  {name:<8} {:>14} {:>9} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10}\n",
                fmt_bytes(r.bytes),
                r.frames,
                r.retransmit_pairs,
                r.commits,
                r.proxy_updates,
                fmt_p99(r.p50_s),
                fmt_p99(r.p99_s),
                format!("{}/{SUBRUNS}", r.converged_runs),
            ));
        }
        let Some(legacy) = legacy else {
            // The live row above is all there is: no baseline to compare.
            missing = true;
            continue;
        };
        let ratio = legacy.bytes as f64 / batched.bytes.max(1) as f64;
        summary.push_str(&format!(
            "{pct:>3}% drop: bytes {} → {} ({ratio:.2}× reduction); retransmits {} → {}; p99 {} → {}\n",
            fmt_bytes(legacy.bytes),
            fmt_bytes(batched.bytes),
            legacy.retransmit_pairs,
            batched.retransmit_pairs,
            fmt_p99(legacy.p99_s),
            fmt_p99(batched.p99_s),
        ));
    }
    out.push('\n');
    out.push_str(&summary);
    if missing {
        let cells: Vec<String> = FROZEN_LEGACY
            .iter()
            .map(|(s, p, _)| format!("seed {s} @ {p}%"))
            .collect();
        out.push_str(&format!(
            "\nthe legacy baseline is frozen (recorded at commit {}) and exists only for: {}\n",
            &FROZEN_AT[..7],
            cells.join(", "),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_mode_halves_bytes_at_30_pct_drop() {
        let legacy = frozen_legacy(7, 30).expect("frozen seed-7 baseline at 30% drop");
        let batched = run_cell(7, 0.30);
        assert!(
            legacy.bytes as f64 >= 2.0 * batched.bytes as f64,
            "expected ≥2× bytes reduction at 30% drop: legacy={} batched={}",
            legacy.bytes,
            batched.bytes
        );
        // Delivery must not regress. The batched pipeline lands
        // cache-changing proxy updates, commits at least as much, every
        // sub-run converges (all proxies hold the final bytes at the
        // horizon — repair closed every gap the drops opened), and bulk
        // latency stays at par. The tail is bounded but NOT held to
        // parity: the frozen baseline re-subscribed unconditionally on
        // every healthcheck (an always-on repair probe), while the lease
        // protocol repairs on counter-shortfall detection — under 30%
        // sustained drop that detection handshake costs extra lossy round
        // trips at the extreme tail, the accepted price for eliminating
        // the per-check subscribe storm from the healthy-fleet hot path.
        assert!(batched.proxy_updates > 0);
        assert!(batched.commits >= legacy.commits);
        assert_eq!(
            batched.converged_runs, SUBRUNS,
            "batched sub-runs left a proxy behind"
        );
        let (lp50, bp50) = (legacy.p50_s.unwrap(), batched.p50_s.unwrap());
        assert!(
            bp50 <= lp50 * 1.25,
            "commit→proxy p50 regressed: legacy={lp50:.3}s batched={bp50:.3}s"
        );
        let (lp, bp) = (legacy.p99_s.unwrap(), batched.p99_s.unwrap());
        assert!(
            bp <= lp * 2.0,
            "commit→proxy p99 blew past the detection-repair bound: legacy={lp:.3}s batched={bp:.3}s"
        );
    }

    #[test]
    fn losssweep_is_deterministic_per_seed() {
        assert_eq!(losssweep(3), losssweep(3));
    }

    #[test]
    fn seed_without_frozen_rows_prints_no_baseline_numbers() {
        let report = losssweep(3);
        assert!(
            !report
                .lines()
                .any(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit())
                    && l.contains(" legacy ")),
            "invented baseline row:\n{report}"
        );
        assert!(report.contains("exists only for: seed 1 @ 0%"), "{report}");
        assert!(!losssweep(1).contains("exists only for"));
    }
}
