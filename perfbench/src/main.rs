//! `cyclops-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, prints every metric with its unit
//! and direction, and ends with one JSON result line. Exits 1 when a
//! correctness check fails and 2 on bad arguments.

use cyclops_perfbench::{run, stamp, Args, Scale, Workload, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: cyclops-perfbench --workload <fleet_physics|fleet_shared|trace_replay> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("stamp: {}", stamp(&args));
    let out = run(&args, &Scale::full());
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer, traced run"
        } else {
            "end to end"
        }
    );
    for ((name, value, unit), (_, _, better)) in out.metrics.iter().zip(defs) {
        println!("  {name:<34} {value:>16.6} {unit:<14} {better} is better");
    }
    println!(
        "sessions/traces attempted {}, failed {}",
        out.attempted, out.failed
    );
    for f in &out.failures {
        println!("CHECK FAILED {f}");
    }
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}
