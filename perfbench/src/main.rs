//! `perfbench --workload <fleet_day|commit_stream> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints readable lines, then, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits 2
//! on a bad command line.

use perfbench::report::json_line;
use perfbench::run::{traced, untraced, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_day|commit_stream> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    print!("{}", out.text);
    for note in &out.tally.notes {
        println!("FAILED: {note}");
    }
    for m in &out.metrics.0 {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&out.tally, &out.metrics));
}
