//! Serial/parallel equivalence of the training hot paths.
//!
//! The stage-1 fit parallelizes its Jacobian columns; the alignment grids
//! and the mapping-sample collection parallelize over
//! per-row / per-attempt deployment clones whose noise RNGs are reseeded by
//! a pure function of (stage seed, item index) — never shared — so the
//! results must be bit-identical at any pool width. These tests run
//! unchanged under `--no-default-features`, where `with_threads` is inert
//! and the same assertions certify the serial path; passing in both build
//! configurations proves the two builds agree with each other.

use cyclops_core::alignment::{exhaustive_align, AlignResult};
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::kspace::{self, BoardConfig, KspaceRig};
use cyclops_core::mapping::{self, collect_samples, MappingSample};
use std::fmt::Debug;

fn align_at(threads: usize, seed: u64) -> AlignResult {
    cyclops_par::with_threads(threads, || {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(seed));
        exhaustive_align(&mut dep)
    })
}

fn assert_align_eq(a: &AlignResult, b: &AlignResult, ctx: &str) {
    for k in 0..4 {
        assert_eq!(
            a.voltages[k].to_bits(),
            b.voltages[k].to_bits(),
            "{ctx}: voltage {k} differs: {} vs {}",
            a.voltages[k],
            b.voltages[k]
        );
    }
    assert_eq!(a.power_dbm.to_bits(), b.power_dbm.to_bits(), "{ctx}: power");
    assert_eq!(a.n_evals, b.n_evals, "{ctx}: n_evals");
}

#[test]
fn exhaustive_align_invariant_to_thread_count() {
    for seed in [42, 77] {
        let reference = align_at(1, seed);
        for threads in [2, 3, 8] {
            let res = align_at(threads, seed);
            assert_align_eq(&res, &reference, &format!("seed {seed}, threads {threads}"));
        }
    }
}

fn assert_samples_eq(a: &[MappingSample], b: &[MappingSample], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: sample count");
    for (i, (sa, sb)) in a.iter().zip(b).enumerate() {
        for k in 0..4 {
            assert_eq!(
                sa.voltages[k].to_bits(),
                sb.voltages[k].to_bits(),
                "{ctx}: sample {i} voltage {k}"
            );
        }
        let (qa, qb) = (sa.reported.quat(), sb.reported.quat());
        for (va, vb) in [
            (qa.w, qb.w),
            (qa.x, qb.x),
            (qa.y, qb.y),
            (qa.z, qb.z),
            (sa.reported.trans.x, sb.reported.trans.x),
            (sa.reported.trans.y, sb.reported.trans.y),
            (sa.reported.trans.z, sb.reported.trans.z),
        ] {
            assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: sample {i} pose");
        }
    }
}

#[test]
fn sample_collection_invariant_to_thread_count() {
    let base = Deployment::new(&DeploymentConfig::paper_10g(7));
    let reference = cyclops_par::with_threads(1, || collect_samples(&mut base.clone(), 3, 99));
    assert!(reference.len() >= 2, "fixture should close the link");
    for threads in [2, 5] {
        let got = cyclops_par::with_threads(threads, || collect_samples(&mut base.clone(), 3, 99));
        assert_samples_eq(&got, &reference, &format!("threads {threads}"));
    }
}

/// Runs `work` at pool widths {1, 2, 3, 8} and asserts every run renders
/// identically to the 1-thread run. `{:?}` prints each `f64` in its
/// shortest round-trip form, so equal renderings mean equal bits (NaN
/// payloads aside), for every field of the result.
fn assert_width_invariant<R: Debug>(ctx: &str, work: impl Fn() -> R) {
    let reference = format!("{:?}", cyclops_par::with_threads(1, &work));
    for threads in [2, 3, 8] {
        let got = format!("{:?}", cyclops_par::with_threads(threads, &work));
        assert!(
            got == reference,
            "{ctx}: {threads} threads diverge from 1 thread"
        );
    }
}

#[test]
fn kspace_fit_invariant_to_thread_count() {
    let dep = Deployment::new(&DeploymentConfig::paper_10g(71));
    let mut rig = KspaceRig::standard(dep.tx.clone(), 72);
    let init = rig.cad_initial_guess();
    let samples = rig.collect_samples(&BoardConfig::default());
    assert_width_invariant("kspace::fit", || {
        kspace::fit(&samples, &init).expect("stage-1 fit")
    });
}

#[test]
fn mapping_train_invariant_to_thread_count() {
    let dep = Deployment::new(&DeploymentConfig::paper_10g(73));
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        kspace::train_both(&dep, &BoardConfig::default(), 73).expect("stage-1 training");
    let (init_tx, init_rx) = mapping::rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, 80);
    assert_width_invariant("mapping::train", || {
        let mt = mapping::train(
            &mut dep.clone(),
            &tx_tr.fitted,
            &rx_tr.fitted,
            init_tx,
            init_rx,
            8,
            81,
        );
        (mt.trained, mt.samples)
    });
}
