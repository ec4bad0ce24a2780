//! `repro` — regenerates every table and figure from the paper.
//!
//! Usage:
//!
//! ```text
//! repro list                 # show available experiments
//! repro <name> [--full]      # run one experiment (e.g. `repro fig13`)
//! repro all [--full]         # run everything in order
//! repro chaos [--seed <n>]   # chaos campaign, or replay one seed verbosely
//! repro trace [--seed <n>] [--chaos]
//!                            # per-commit propagation waterfalls
//! repro metrics [--seed <n>] [--chaos]
//!                            # Prometheus-format metrics dump
//! repro losssweep [--seed <n>]
//!                            # bytes-on-wire under loss: batched vs frozen baseline
//! repro laser [--seed <n>]   # Laser serving tier: hedged vs unhedged reads
//! repro canary [--seed <n>]  # fleet rollout pipeline under chaos: staged
//!                            # canary phases, auto-rollback, drift audit
//! repro audit [--seed <n>]   # drift auditor: seed cache faults, detect,
//!                            # classify, repair
//! repro compile [--full]     # parallel + incremental compile pipeline
//!                            # (deterministic report on stdout, timings on
//!                            # stderr)
//! repro verify [--check]     # static-verifier gate: seeded-bad commits
//!                            # replayed through plan()'s pre-commit verify
//!                            # pass; catch-rate table + repair-hint demo.
//!                            # --check omits the per-commit log
//!                            # (byte-deterministic, golden-gated)
//! repro perf [--check]       # simnet self-profiler benchmark: events/sec
//!                            # at three fleet sizes, hot-actor tables,
//!                            # folded stacks; writes BENCH_simnet.json.
//!                            # --check prints only virtual-time fields
//!                            # (byte-deterministic, golden-gated)
//! repro fleet [--check] [--mobile <clients>]
//!                            # paper-scale diurnal replay: 1k–100k-node
//!                            # propagation-delay tables; appends the
//!                            # fleet_runs section of BENCH_simnet.json.
//!                            # --check prints only virtual-time fields
//!                            # for the 1k/5k/100k sizes
//!                            # (byte-deterministic, golden-gated).
//!                            # --mobile models that many MobileConfig
//!                            # pull clients as per-cluster population
//!                            # cohorts over the 1k fleet and reports
//!                            # per-cohort staleness percentiles
//! repro health [--seed <n>]  # ODS fleet health plane: per-tier rollups +
//!                            # multi-window SLO burn rates under chaos
//! repro storm [--seed <n>]   # observer mass-restart reconnect storm under
//!                            # decorrelated-jitter backoff
//! ```
//!
//! `--full` uses the larger scale quoted in `EXPERIMENTS.md`; the default
//! small scale finishes each experiment in seconds to a couple of minutes.

use bench::{run_experiment, Scale, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let seed: Option<u64> = match args.iter().position(|a| a == "--seed") {
        None => None,
        Some(i) => match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(n)) => Some(n),
            // A typo'd seed must not silently fall back to the full
            // campaign — the flag exists to replay one failing scenario.
            _ => {
                eprintln!("error: --seed requires an integer value");
                std::process::exit(2);
            }
        },
    };
    let mut skip_next = false;
    let names: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--seed" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let scale = if full { Scale::Full } else { Scale::Small };

    if names.first().copied() == Some("chaos") {
        if let Some(seed) = seed {
            banner("chaos");
            println!("{}", bench::chaos_exp::replay(seed));
            return;
        }
    }

    let chaos_flag = args.iter().any(|a| a == "--chaos");
    match names.first().copied() {
        Some("losssweep") => {
            banner("losssweep");
            println!("{}", bench::loss_exp::losssweep(seed.unwrap_or(1)));
            return;
        }
        Some("laser") => {
            banner("laser");
            println!("{}", bench::laser_exp::laser(seed.unwrap_or(1)));
            return;
        }
        Some("canary") => {
            banner("canary");
            println!("{}", bench::canary_exp::report(seed.unwrap_or(1)));
            return;
        }
        Some("audit") => {
            banner("audit");
            println!("{}", bench::audit_exp::report(seed.unwrap_or(1)));
            return;
        }
        Some("perf") => {
            let check = args.iter().any(|a| a == "--check");
            banner("perf");
            println!("{}", bench::perf_exp::perf(check));
            return;
        }
        Some("fleet") => {
            let check = args.iter().any(|a| a == "--check");
            let mobile: Option<u64> = match args.iter().position(|a| a == "--mobile") {
                None => None,
                Some(i) => match args.get(i + 1).map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) => Some(n),
                    // A typo'd client count must not silently run the
                    // ordinary fleet sweep instead.
                    _ => {
                        eprintln!("error: --mobile requires an integer value");
                        std::process::exit(2);
                    }
                },
            };
            banner("fleet");
            match mobile {
                Some(clients) => println!("{}", bench::fleet_exp::fleet_mobile(clients)),
                None => println!("{}", bench::fleet_exp::fleet(check)),
            }
            return;
        }
        Some("verify") => {
            let check = args.iter().any(|a| a == "--check");
            banner("verify");
            println!("{}", bench::verify_exp::verify(check));
            return;
        }
        Some("health") => {
            banner("health");
            println!("{}", bench::health_exp::report(seed.unwrap_or(1)));
            return;
        }
        Some("storm") => {
            banner("storm");
            println!("{}", bench::storm_exp::report(seed.unwrap_or(1)));
            return;
        }
        Some("trace") => {
            banner("trace");
            println!("{}", bench::trace_exp::trace(seed.unwrap_or(1), chaos_flag));
            return;
        }
        Some("metrics") => {
            // No banner: the output is a machine-diffable metrics snapshot
            // (scripts/check.sh compares it byte-for-byte against goldens).
            let seed = seed.unwrap_or(1);
            if chaos_flag {
                print!("{}", bench::chaos_exp::export_metrics(seed));
            } else {
                print!("{}", bench::trace_exp::metrics(seed, false));
            }
            return;
        }
        _ => {}
    }

    match names.first().copied() {
        None | Some("list") => {
            eprintln!("experiments:");
            for n in ALL {
                eprintln!("  {n}");
            }
            eprintln!("\nusage: repro <name>|all [--full]");
        }
        Some("all") => {
            for n in ALL {
                banner(n);
                match run_experiment(n, scale) {
                    Some(report) => println!("{report}"),
                    None => eprintln!("unknown experiment: {n}"),
                }
            }
        }
        Some(name) => match run_experiment(name, scale) {
            Some(report) => {
                banner(name);
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment: {name} (try `repro list`)");
                std::process::exit(2);
            }
        },
    }
}

fn banner(name: &str) {
    println!("==============================================================");
    println!("== {name}");
    println!("==============================================================");
}
