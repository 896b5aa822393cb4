//! **Fig 14** — 10G throughput and received power under arbitrary (mixed
//! hand-held) motions (§5.3 "User Study").
//!
//! Paper: "the link maintains optimal throughput for motions undergoing
//! simultaneous linear and angular speeds of below 30 cm/sec and 16–18
//! degrees/sec respectively", with power above −40 dBm up to ~100 deg/s.

use cyclops::link::iperf::Window;
use cyclops::prelude::*;
use cyclops_bench::{arbitrary_runs, print_speed_bins, row, section};

const INTENSITIES: [(f64, f64); 5] = [
    (0.05, 0.08),
    (0.10, 0.15),
    (0.16, 0.25),
    (0.24, 0.40),
    (0.35, 0.70),
];

fn main() {
    let seed = 14u64;
    println!("commissioning 10G system (paper-scale), seed {seed} ...");
    let sys = CyclopsSystem::commission(&SystemConfig::paper_10g(seed));

    section("Fig 14: arbitrary hand-held motion — binned 50 ms windows");
    // One run per intensity (fanned out across threads); the same windows
    // feed both the pooled bin table and the per-intensity uptime summary.
    let configs: Vec<(f64, f64, u64)> = INTENSITIES
        .iter()
        .enumerate()
        .map(|(k, &(lin_rms, ang_rms))| (lin_rms, ang_rms, seed + k as u64))
        .collect();
    let per_intensity: Vec<Vec<Window>> = arbitrary_runs(&sys, &configs, 20.0);
    let pooled: Vec<Window> = per_intensity.iter().flatten().copied().collect();
    println!("{} windows collected\n", pooled.len());

    let optimal = sys.dep.design.sfp.optimal_goodput_gbps;
    print_speed_bins(
        &pooled,
        &[0.0, 0.10, 0.20, 0.30, 0.45, 10.0],
        &[0.0, 8.0, 16.0, 24.0, 40.0, 1000.0],
        optimal,
        true,
        8,
    );

    // Per-intensity availability: the overall picture including relink
    // deadtime (the paper's time series show these recovery gaps).
    println!();
    let widths = [22, 22, 14];
    row(
        &[
            "intensity (rms)".into(),
            "peak speeds seen".into(),
            "link uptime".into(),
        ],
        &widths,
    );
    for ((lin_rms, ang_rms), ws) in INTENSITIES.iter().zip(&per_intensity) {
        let up = ws.iter().map(|w| w.up_frac).sum::<f64>() / ws.len() as f64;
        let max_lin = ws.iter().map(|w| w.lin).fold(0.0, f64::max) * 100.0;
        let max_ang = ws.iter().map(|w| w.ang).fold(0.0, f64::max).to_degrees();
        row(
            &[
                format!(
                    "{:.0} cm/s, {:.0} deg/s",
                    lin_rms * 100.0,
                    ang_rms.to_degrees()
                ),
                format!("{max_lin:.0} cm/s, {max_ang:.0} deg/s"),
                format!("{:.0}%", up * 100.0),
            ],
            &widths,
        );
    }
    println!("\npaper: optimal below ~30 cm/s and ~16-18 deg/s simultaneously;");
    println!("power stays above about -40 dBm for the fastest motions.");
}
