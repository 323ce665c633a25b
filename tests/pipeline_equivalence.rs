//! Cross-crate integration: every workload, compiled through the hint
//! pass, must produce bit-identical architectural state on the golden
//! emulator, the baseline core, and the LoopFrog core — the paper's §3.2
//! guarantee, end to end. The same runs also pin every kernel's timing, so
//! a change that shifts cycle counts while keeping architectural state
//! cannot pass unnoticed.

use lf_bench::{run_kernel, RunConfig};
use lf_workloads::{all, Scale};

/// Smoke-scale `(kernel, baseline cycles, LoopFrog cycles, baseline
/// committed insts, LoopFrog committed insts)` with speculation always on.
/// A change that moves these on purpose regenerates them and says why.
const GOLDEN_TIMING: [(&str, u64, u64, u64, u64); 32] = [
    ("stencil_blur", 21296, 18278, 24009, 24990),
    ("wave_update", 23539, 16670, 18916, 19666),
    ("md_force", 23914, 13234, 9013, 9399),
    ("motion_sad", 7398, 7013, 10009, 10336),
    ("fotonik_fdtd", 19970, 16550, 19803, 20629),
    ("particle_dense", 12655, 11577, 12609, 13135),
    ("fluid_lbm", 7860, 9305, 7569, 7619),
    ("event_queue", 39787, 28592, 12009, 12504),
    ("dom_tree_walk", 26904, 21651, 11209, 11735),
    ("graph_relax", 14115, 12801, 9509, 9910),
    ("ray_march", 19651, 14273, 12141, 12360),
    ("ir_constfold", 14665, 11036, 11127, 11533),
    ("hash_lookup", 31335, 24603, 11396, 11807),
    ("exchange2_perm", 8011, 7060, 8649, 8990),
    ("compress_rle", 12265, 12265, 12009, 12009),
    ("chess_eval", 8503, 5942, 12310, 12565),
    ("mc_playout", 17284, 21263, 31803, 34303),
    ("cactus_bssn", 21099, 12013, 9911, 10287),
    ("milc_su3", 10135, 9249, 11559, 11846),
    ("h264_me", 15309, 13711, 18009, 18746),
    ("sphinx_gauss", 14703, 12083, 12609, 13135),
    ("quantum_gate", 89092, 104084, 135177, 140134),
    ("pointer_chase", 37666, 37666, 3606, 3606),
    ("hmmer_viterbi", 12529, 11152, 11719, 12201),
    ("bzip_bwt", 20915, 17704, 9490, 9900),
    ("gobmk_patterns", 11826, 9657, 14493, 14914),
    ("astar_heap", 11356, 10076, 8995, 9191),
    ("soplex_pricing", 13874, 11980, 5450, 5590),
    ("gems_fdtd", 15079, 12448, 15399, 15982),
    ("povray_noise", 26727, 22519, 10011, 10346),
    ("perl_scan", 10342, 6864, 27542, 27732),
    ("deal_assembly", 55762, 47344, 17945, 18241),
];

#[test]
fn all_workloads_match_the_golden_model() {
    // Always exercise speculation.
    let cfg = RunConfig { deselect_unprofitable: false, ..RunConfig::default() };
    let suite = all(Scale::Smoke);
    assert_eq!(suite.len(), GOLDEN_TIMING.len(), "one golden row per kernel");
    for (w, &(name, base_cycles, lf_cycles, base_insts, lf_insts)) in
        suite.iter().zip(&GOLDEN_TIMING)
    {
        assert_eq!(w.name, name, "golden rows follow suite order");
        let r = run_kernel(w, &cfg);
        assert!(r.checksum_ok, "{}: architectural state diverged", w.name);
        let got = (
            r.base_stats().cycles,
            r.lf_stats().cycles,
            r.base_stats().committed_insts,
            r.lf_stats().committed_insts,
        );
        assert_eq!(
            got,
            (base_cycles, lf_cycles, base_insts, lf_insts),
            "{}: (base cycles, LoopFrog cycles, base insts, LoopFrog insts) moved",
            w.name
        );
    }
}

#[test]
fn suite_speedup_shape_holds() {
    // The headline claim at smoke scale: the suite gains overall, most
    // kernels with selected loops gain, and the serial kernels are left
    // alone by the compiler.
    let runs = lf_bench::run_suite(Scale::Smoke, &RunConfig::default());
    let speedups: Vec<f64> = runs.iter().map(|r| r.speedup()).collect();
    let geomean = lf_stats::geomean(&speedups);
    assert!(geomean > 1.05, "suite geomean should be clearly positive: {geomean:.3}");
    let gainers = runs.iter().filter(|r| r.speedup() > 1.01).count();
    assert!(gainers * 2 > runs.len(), "most kernels should gain: {gainers}/{}", runs.len());
    for r in &runs {
        if ["compress_rle", "pointer_chase"].contains(&r.name) {
            assert_eq!(r.selected_loops, 0, "{} has no legally hintable loop", r.name);
        }
    }
}

#[test]
fn profitable_kernels_use_multiple_threadlets() {
    let runs = lf_bench::run_suite(Scale::Smoke, &RunConfig::default());
    for r in runs.iter().filter(|r| r.speedup() > 1.05) {
        assert!(
            r.lf_stats().frac_active_at_least(2) > 0.2,
            "{}: speedup without threadlet concurrency?",
            r.name
        );
        assert!(r.lf_stats().spawns > 0, "{}: no spawns", r.name);
    }
}
