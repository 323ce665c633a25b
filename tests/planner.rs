//! Integration tests for the experiment engine's run planner: cross-
//! scenario deduplication, fingerprint sensitivity, on-disk memoization
//! with schema invalidation, and `-j` determinism.

use lf_bench::artifact::SCHEMA_VERSION;
use lf_bench::engine::cache::DiskCache;
use lf_bench::engine::planner::{Hinting, Planner, PreparedKernel};
use lf_bench::engine::{run_scenarios, EngineCtx, EngineOptions, Scenario};
use lf_bench::{run_fingerprint, run_fingerprint_tiered, RunArtifact, RunConfig, Tier};
use lf_stats::Json;
use lf_workloads::Scale;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A minimal scenario declaring the standard baseline+LoopFrog suite.
struct SuiteScenario(&'static str);

impl Scenario for SuiteScenario {
    fn name(&self) -> &'static str {
        self.0
    }
    fn title(&self) -> &'static str {
        "test scenario"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        p.request_suite(&RunConfig::default());
    }
    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let runs = ctx.suite_runs(&RunConfig::default());
        for r in &runs {
            out.push_str(&format!("{} {:.4}\n", r.name, r.speedup()));
        }
        RunArtifact::new(self.name(), ctx.scale())
    }
}

/// A scenario whose requests differ from the default suite in exactly one
/// configuration field.
struct SsbVariant;

impl Scenario for SsbVariant {
    fn name(&self) -> &'static str {
        "ssb_variant"
    }
    fn title(&self) -> &'static str {
        "test scenario (one config field changed)"
    }
    fn plan(&self, p: &mut Planner<'_>) {
        let mut rc = RunConfig::default();
        rc.lf.ssb.size_bytes = 512;
        p.request_suite(&rc);
    }
    fn render(&self, ctx: &EngineCtx<'_>, _out: &mut String) -> RunArtifact {
        RunArtifact::new(self.name(), ctx.scale())
    }
}

fn opts_for(filter: &str) -> EngineOptions {
    let mut opts = EngineOptions::new(Scale::Smoke);
    opts.filter = Some(filter.to_string());
    opts
}

fn counting_hook(opts: &mut EngineOptions) -> Arc<AtomicUsize> {
    let count = Arc::new(AtomicUsize::new(0));
    let counter = count.clone();
    opts.sim_hook = Some(Arc::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    count
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lf-bench-planner-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn identical_requests_from_two_scenarios_simulate_once() {
    let (a, b) = (SuiteScenario("a"), SuiteScenario("b"));
    let mut opts = opts_for("stencil_blur");
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&a, &b], &opts);

    // Two scenarios × (baseline + LoopFrog) over one kernel.
    assert_eq!(output.report.requests, 4);
    assert_eq!(output.report.unique, 2, "identical requests must collapse");
    assert_eq!(output.report.simulated, 2);
    assert_eq!(sims.load(Ordering::SeqCst), 2, "each unique fingerprint simulates exactly once");
    assert_eq!(output.report.prepared, 1, "one kernel, one hinting mode");
    assert_eq!(
        output.scenarios[0].text, output.scenarios[1].text,
        "both scenarios render from the same memoized outcomes"
    );
}

#[test]
fn changing_one_config_field_changes_the_fingerprints() {
    let (a, b) = (SuiteScenario("a"), SsbVariant);
    let mut opts = opts_for("stencil_blur");
    let sims = counting_hook(&mut opts);
    let output = run_scenarios(&[&a, &b], &opts);

    // The two scenarios share the baseline run; the variant's LoopFrog
    // config differs in one field and must not collapse with the default.
    assert_eq!(output.report.requests, 4);
    assert_eq!(output.report.unique, 3, "a one-field config change is a distinct run");
    assert_eq!(sims.load(Ordering::SeqCst), 3);

    // Direct fingerprint sensitivity at the API level.
    let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
    let cfg = loopfrog::LoopFrogConfig::default();
    let mut changed = cfg.clone();
    changed.ssb.size_bytes = 512;
    assert_ne!(
        run_fingerprint(&w.program, &w.mem, &cfg, Scale::Smoke),
        run_fingerprint(&w.program, &w.mem, &changed, Scale::Smoke)
    );
}

#[test]
fn disk_cache_round_trips_and_schema_bump_invalidates() {
    let scenario = SuiteScenario("cached");
    let dir = scratch_dir("disk-round-trip");

    let mut opts = opts_for("stencil_blur");
    opts.disk_cache = Some(DiskCache::new(dir.clone()));
    let sims_first = counting_hook(&mut opts);
    let first = run_scenarios(&[&scenario], &opts);
    assert_eq!(first.report.disk_hits, 0);
    assert_eq!(sims_first.load(Ordering::SeqCst), 2);

    // Second engine run: everything served from disk, nothing simulated,
    // identical render.
    let mut opts2 = opts_for("stencil_blur");
    opts2.disk_cache = Some(DiskCache::new(dir.clone()));
    let sims_second = counting_hook(&mut opts2);
    let second = run_scenarios(&[&scenario], &opts2);
    assert_eq!(second.report.disk_hits, 2);
    assert_eq!(second.report.simulated, 0);
    assert_eq!(sims_second.load(Ordering::SeqCst), 0);
    assert_eq!(first.scenarios[0].text, second.scenarios[0].text);

    // A schema bump invalidates every entry: the engine re-simulates.
    let mut opts3 = opts_for("stencil_blur");
    opts3.disk_cache = Some(DiskCache::with_schema(dir, SCHEMA_VERSION + 1));
    let sims_third = counting_hook(&mut opts3);
    let third = run_scenarios(&[&scenario], &opts3);
    assert_eq!(third.report.disk_hits, 0, "stale-schema entries must miss");
    assert_eq!(sims_third.load(Ordering::SeqCst), 2);
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // fig9's SSB sweep over one kernel yields 5 unique runs (the shared
    // baseline plus four LoopFrog sizes) — enough to exercise the pool.
    let fig9 = lf_bench::engine::by_name("fig9_ssb_size").unwrap();

    let run_with = |jobs: usize| {
        let mut opts = opts_for("stencil_blur");
        opts.jobs = jobs;
        run_scenarios(&[fig9.as_ref()], &opts)
    };
    let serial = run_with(1);
    let parallel = run_with(4);

    assert_eq!(serial.report.unique, 5);
    assert_eq!(parallel.report.unique, 5);
    assert_eq!(
        serial.scenarios[0].text, parallel.scenarios[0].text,
        "rendered text must not depend on -j"
    );
    // Artifacts match too, modulo the planner telemetry (wall-clock and
    // job count legitimately differ).
    let strip = |mut doc: Json| {
        doc.set("planner", Json::Null);
        doc.to_string_pretty()
    };
    assert_eq!(
        strip(serial.scenarios[0].artifact.clone()),
        strip(parallel.scenarios[0].artifact.clone()),
        "artifacts must not depend on -j"
    );
}

#[test]
fn raw_and_annotated_hintings_fingerprint_apart() {
    let mut a = lf_stats::Fingerprint::new();
    a.u64(Hinting::Raw.fingerprint());
    let mut b = lf_stats::Fingerprint::new();
    b.u64(Hinting::default_annotated().fingerprint());
    assert_ne!(a.finish(), b.finish());
}

/// The memoized fingerprints of a prepared kernel are the cache keys the
/// from-scratch formula gives, so caches written before memoization still
/// hit.
#[test]
fn memoized_fingerprints_match_the_from_scratch_formula() {
    let mut small_ssb = loopfrog::LoopFrogConfig::default();
    small_ssb.ssb.size_bytes = 512;
    let configs =
        [loopfrog::LoopFrogConfig::baseline(), loopfrog::LoopFrogConfig::default(), small_ssb];
    for w in lf_workloads::all(Scale::Smoke) {
        for hinting in [Hinting::Raw, Hinting::default_annotated()] {
            let prep = PreparedKernel::prepare(w.clone(), &hinting);
            for cfg in &configs {
                for tier in [Tier::Detailed, Tier::Functional, Tier::Sampled] {
                    assert_eq!(
                        prep.request_fingerprint_tiered(cfg, tier),
                        run_fingerprint_tiered(
                            &prep.program,
                            &prep.workload.mem,
                            cfg,
                            Scale::Smoke,
                            tier
                        ),
                        "{} {hinting:?} {tier:?}",
                        w.name
                    );
                }
            }
        }
    }
}
