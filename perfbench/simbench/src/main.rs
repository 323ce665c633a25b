//! `lf-simbench`: the in-process simulation workloads (`sim-base` and
//! `sim-loopfrog`) of the repository benchmark.
//!
//! It links the simulator crates, times every call into them from the
//! outside, and prints one JSON document of raw measurements on stdout.
//! `perfbench/run.py` builds and runs it, checks every result against the
//! golden emulator and the reference digests, and turns the measurements
//! into metrics.
//!
//! ```text
//! lf-simbench --config base|loopfrog --seed N --seconds S --setup-reps R --trace 0|1
//! lf-simbench --calibrate N
//! ```
//!
//! - Set-up (repeated `R` times, each timed): build the 32 kernels at
//!   `Scale::Eval`, run each on the golden emulator, annotate it.
//! - Timed phase: whole passes over all kernels through
//!   [`loopfrog::simulate`], in an order permuted by the seed, until the
//!   next pass would end after `S` seconds (at least one pass), with a
//!   [`Calibrator`] round before every simulation.
//! - Traced phase (`--trace 1` only): one more pass of the whole flow with
//!   a span around every call into a layer, the stage profiler on, and a
//!   `FastTier` run of every annotated program. Spans stay in memory and
//!   are printed with the rest at the end.
//! - `--calibrate N` only times `N` calibration rounds; the campaign
//!   workload runs it between campaigns.

use lf_compiler::{annotate, SelectOptions};
use lf_isa::{FastTier, Memory, Program, StepStop};
use lf_stats::{Histogram, Json, SmallRng};
use lf_workloads::Scale;
use loopfrog::{LoopFrogConfig, LoopFrogCore, SimResult, SimStop};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One kernel after set-up: the annotated program the core simulates,
/// its input memory, and the golden emulator's verdict.
struct Kernel {
    name: &'static str,
    program: Program,
    mem: Memory,
    golden_checksum: u64,
    golden_insts: u64,
    loops_selected: usize,
}

/// One recorded span: a call into a layer, or a root grouping such calls.
struct Span {
    name: &'static str,
    kernel: Option<&'static str>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log. Spans name the layer call they wrap and the span
/// that caused them; they are printed when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn open(
        &mut self,
        name: &'static str,
        kernel: Option<&'static str>,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, kernel, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut j = Json::obj();
                    j.set("name", s.name);
                    j.set("kernel", s.kernel.map_or(Json::Null, Json::from));
                    j.set("parent", s.parent.map_or(Json::Null, Json::from));
                    j.set("start_ns", s.start_ns);
                    j.set("end_ns", s.end_ns);
                    j
                })
                .collect(),
        )
    }
}

/// A fixed loop of dependent lookups in a 1 MiB table, timed next to the
/// simulations. Host speed on a shared machine drifts by tens of percent
/// over seconds to minutes; the loop slows down with the host, and no
/// change to the simulator changes the loop.
struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    const TABLE_LEN: usize = 1 << 17;
    const STEPS: u64 = 400_000;

    fn new() -> Calibrator {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..Self::TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator { table }
    }

    /// Runs one round (a few milliseconds) and returns its wall time in ns.
    fn round(&self) -> u64 {
        let t = Instant::now();
        let (mut idx, mut acc) = (0usize, 0u64);
        for i in 0..Self::STEPS {
            let v = self.table[idx];
            acc = acc.wrapping_mul(0x0100_0000_01B3).wrapping_add(v ^ i);
            idx = (v ^ acc) as usize & (Self::TABLE_LEN - 1);
            if acc & 1 == 0 {
                acc = acc.rotate_left(5);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as u64
    }
}

fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn checksum_hex(c: u64) -> String {
    format!("{c:016x}")
}

/// Builds every kernel, runs it on the golden emulator and annotates it,
/// with a span under `parent` around each of those layer calls.
fn set_up(spans: &mut Spans, parent: Option<usize>) -> Result<Vec<Kernel>, String> {
    let id = spans.open("workloads.all", None, parent);
    let suite = lf_workloads::all(Scale::Eval);
    spans.close(id);
    let mut kernels = Vec::with_capacity(suite.len());
    for w in suite {
        let id = spans.open("isa.golden", Some(w.name), parent);
        let emu = w.reference_emulator();
        spans.close(id);
        let emu = emu.map_err(|e| format!("{}: golden run: {e}", w.name))?;
        if !emu.is_halted() {
            return Err(format!("{}: golden run did not halt", w.name));
        }
        let id = spans.open("compiler.annotate", Some(w.name), parent);
        let ann = annotate(&w.program, emu.profile(), &SelectOptions::default());
        spans.close(id);
        kernels.push(Kernel {
            name: w.name,
            loops_selected: ann.reports.iter().filter(|r| r.placement.is_some()).count(),
            program: ann.program,
            golden_checksum: emu.state_checksum(),
            golden_insts: emu.inst_count(),
            mem: w.mem,
        });
    }
    Ok(kernels)
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

fn histogram_json(h: Option<&Histogram>) -> Json {
    let mut j = Json::obj();
    if let Some(h) = h {
        j.set("width", h.width());
        j.set("max", h.max());
        j.set("buckets", Json::Arr(h.buckets().iter().map(|&b| Json::from(b)).collect()));
    }
    j
}

/// The deterministic outcome of one simulation: its digest and the exact
/// work counts the benchmark reports per layer.
/// Runs one call into the simulator. A panic in it is a failed operation
/// for the benchmark to count, not the end of the run.
fn guarded<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("panicked".to_string()),
    }
}

fn sim_json(kernel: &Kernel, host_ns: u64, outcome: &Result<SimResult, String>) -> Json {
    let mut j = Json::obj();
    j.set("kernel", kernel.name);
    j.set("host_ns", host_ns);
    let r = match outcome {
        Ok(r) => r,
        Err(e) => {
            j.set("error", e.as_str());
            return j;
        }
    };
    let s = &r.stats;
    j.set(
        "stop",
        match r.stop {
            SimStop::Halted => "halted",
            SimStop::MaxInsts => "max_insts",
            SimStop::MaxCycles => "max_cycles",
            SimStop::Deadline => "deadline",
        },
    );
    j.set("checksum", checksum_hex(r.checksum));
    let mut c = Json::obj();
    for (k, v) in [
        ("cycles", s.cycles),
        ("committed_insts", s.committed_insts),
        ("fetched_insts", s.fetched_insts),
        ("renamed_insts", s.renamed_insts),
        ("issued_insts", s.issued_insts),
        ("branch_mispredicts", s.branch_mispredicts),
        ("spawns", s.spawns),
        (
            "squashes",
            s.squashes_conflict
                + s.squashes_sync
                + s.squashes_packing
                + s.squashes_wrong_path
                + s.counters.get("squashes_register"),
        ),
        ("commits_spec_success", s.commits_spec_success),
        ("commits_spec_failed", s.commits_spec_failed),
        ("l1d_misses", s.counters.get("l1d_misses")),
        ("l2_accesses", s.counters.get("l2_accesses")),
        ("l2_misses", s.counters.get("l2_misses")),
        ("dram_accesses", s.counters.get("dram_accesses")),
        ("l1d_mshr_full", s.counters.get("l1d_mshr_full")),
    ] {
        c.set(k, v);
    }
    j.set("counts", c);
    j.set("iq_occupancy", histogram_json(r.registry.distribution("core.iq.occupancy")));
    j.set("rob_occupancy", histogram_json(r.registry.distribution("core.rob.occupancy")));
    j
}

/// Whole passes over every kernel until the next pass would end after
/// `budget_s` seconds; the first pass always runs.
fn timed_phase(
    kernels: &[Kernel],
    cfg: &LoopFrogConfig,
    rng: &mut SmallRng,
    budget_s: f64,
) -> Json {
    let calibrator = Calibrator::new();
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let order = permutation(kernels.len(), rng);
        let pass_start = Instant::now();
        let mut sims = Vec::with_capacity(kernels.len());
        for &i in &order {
            let k = &kernels[i];
            let cal_ns = calibrator.round();
            let mem = k.mem.clone();
            let t = Instant::now();
            let outcome = guarded(|| loopfrog::simulate(&k.program, mem, cfg.clone()));
            let host_ns = t.elapsed().as_nanos() as u64;
            let mut sim = sim_json(k, host_ns, &outcome);
            sim.set("cal_ns", cal_ns);
            sims.push(sim);
        }
        let mut pass = Json::obj();
        pass.set("wall_s", seconds(pass_start));
        pass.set("sims", Json::Arr(sims));
        passes.push(pass);
        let elapsed = seconds(start);
        if elapsed + elapsed / passes.len() as f64 > budget_s {
            break;
        }
    }
    Json::Arr(passes)
}

/// The traced unit: one set-up, one pass and one functional-tier run of
/// every kernel, each a root span over the layer calls it makes, with the
/// stage profiler on in the pass.
fn traced_phase(cfg: &LoopFrogConfig, rng: &mut SmallRng) -> Result<Json, String> {
    let mut spans = Spans::new();
    let root = spans.open("setup", None, None);
    let kernels = set_up(&mut spans, Some(root))?;
    spans.close(root);

    let mut stage_ns = Json::obj();
    let mut sims = Vec::with_capacity(kernels.len());
    let root = spans.open("pass", None, None);
    for i in permutation(kernels.len(), rng) {
        let k = &kernels[i];
        let mem = k.mem.clone();
        let id = spans.open("core.simulate", Some(k.name), Some(root));
        let outcome = guarded(|| {
            let mut core = LoopFrogCore::new(&k.program, mem, cfg.clone());
            core.enable_profiler();
            core.run()
        });
        spans.close(id);
        if let Some(p) = outcome.as_ref().ok().and_then(|r| r.profile.as_ref()) {
            for s in &p.stages {
                let before = stage_ns.get(s.name).and_then(Json::as_u64).unwrap_or(0);
                stage_ns.set(s.name, before + s.sampled_ns);
            }
        }
        let span = &spans.spans[id];
        sims.push(sim_json(k, span.end_ns - span.start_ns, &outcome));
    }
    spans.close(root);

    let mut fast = Vec::with_capacity(kernels.len());
    let root = spans.open("fast", None, None);
    for k in &kernels {
        let id = spans.open("isa.fast", Some(k.name), Some(root));
        let outcome = guarded(|| {
            let mut tier = FastTier::new(&k.program, k.mem.clone());
            let stop = tier.run_to_inst_count(u64::MAX)?;
            Ok::<_, lf_isa::EmuError>((stop, tier.inst_count(), tier.state_checksum()))
        });
        spans.close(id);
        let mut f = Json::obj();
        f.set("kernel", k.name);
        match outcome {
            Ok((stop, insts, checksum)) => {
                f.set("insts", insts);
                f.set("checksum", checksum_hex(checksum));
                f.set("halted", stop == StepStop::Halted);
            }
            Err(e) => {
                f.set("error", e);
            }
        }
        fast.push(f);
    }
    spans.close(root);

    let mut j = Json::obj();
    j.set("spans", spans.to_json());
    j.set("stage_sampled_ns", stage_ns);
    j.set("sims", Json::Arr(sims));
    j.set("fast", Json::Arr(fast));
    Ok(j)
}

struct Args {
    config: String,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    trace: bool,
    calibrate: usize,
}

fn parse_args() -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("bad value for {flag}: {value}"))
    }
    let mut args = Args {
        config: String::new(),
        seed: 0,
        seconds: 0.0,
        setup_reps: 1,
        trace: false,
        calibrate: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--config" => args.config = value.clone(),
            "--seed" => args.seed = num(flag, value)?,
            "--seconds" => args.seconds = num(flag, value)?,
            "--setup-reps" => args.setup_reps = num(flag, value)?,
            "--trace" => args.trace = num::<u8>(flag, value)? == 1,
            "--calibrate" => args.calibrate = num(flag, value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.setup_reps == 0 {
        return Err("--setup-reps must be at least 1".into());
    }
    Ok(args)
}

fn run() -> Result<Json, String> {
    let args = parse_args()?;
    if args.calibrate > 0 {
        let calibrator = Calibrator::new();
        let rounds = (0..args.calibrate).map(|_| Json::from(calibrator.round())).collect();
        let mut out = Json::obj();
        out.set("cal_ns", Json::Arr(rounds));
        return Ok(out);
    }
    let cfg = match args.config.as_str() {
        "base" => LoopFrogConfig::baseline(),
        "loopfrog" => LoopFrogConfig::default(),
        other => return Err(format!("--config must be base or loopfrog, not {other:?}")),
    };

    let mut setup = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..args.setup_reps {
        let mut spans = Spans::new();
        let t = Instant::now();
        kernels = set_up(&mut spans, None)?;
        setup.push(Json::from(seconds(t)));
    }

    let mut rng = SmallRng::seed_from_u64(args.seed);
    let passes = timed_phase(&kernels, &cfg, &mut rng, args.seconds);

    let mut out = Json::obj();
    out.set("config", args.config.as_str());
    out.set("setup", Json::Arr(setup));
    out.set(
        "kernels",
        Json::Arr(
            kernels
                .iter()
                .map(|k| {
                    let mut j = Json::obj();
                    j.set("name", k.name);
                    j.set("golden_checksum", checksum_hex(k.golden_checksum));
                    j.set("golden_insts", k.golden_insts);
                    j.set("loops_selected", k.loops_selected);
                    j
                })
                .collect(),
        ),
    );
    out.set("passes", passes);
    drop(kernels);
    out.set("traced", if args.trace { traced_phase(&cfg, &mut rng)? } else { Json::Null });
    Ok(out)
}

fn main() {
    match run() {
        Ok(j) => println!("{}", j.to_string_compact()),
        Err(e) => {
            eprintln!("lf-simbench: {e}");
            std::process::exit(1);
        }
    }
}
