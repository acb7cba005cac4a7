//! The four simulation workloads: batch runs that report simulated
//! references retired per calibrated host second at a fixed input size.

use crate::probe::{Layer, LayerProbe};
use crate::stats::{calibration_kernel, calibration_scale, median, quartiles};
use crate::{Ctx, Outcome};
use dresar::system::{ExecutionReport, RunOptions, System};
use dresar_interconnect::routes::RouteTable;
use dresar_interconnect::Bmin;
use dresar_obs::{MachineShape, ObserverConfig, ObserverSet, DEFAULT_ATTRIB_WINDOW};
use dresar_trace_sim::{TraceReport, TraceSimulator};
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::{JsonValue, ToJson, Workload};
use dresar_workloads::{commercial, scientific};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats every full-size run makes at least, however long they
/// take, so each timing is a median of three or more.
const MIN_REPEATS: usize = 3;

/// Times `RouteTable` construction is measured in a traced run.
const ROUTE_TABLE_REPEATS: usize = 5;

/// Commercial trace length per workload (TPC-C and TPC-D each).
const TPC_REFS: usize = 1_500_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// FFT, 16K points, on the paper's 16-node machine: base, then sd1024.
    Fft16,
    /// SOR weak-scaled to 256 nodes on a 4-stage radix-4 BMIN, sd2048.
    Sor256,
    /// TPC-C then TPC-D through the trace-driven model, sd1024.
    TpcTrace,
    /// FFT, 4K points, sd1024, every observer on, report serialized.
    FftObserved,
}

/// Counters taken from each run's registry, summed over a repeat's runs
/// (`engine.queue.depth.peak` takes the maximum instead).
const COUNTERS: [(&str, &str); 18] = [
    ("engine.events", "engine.queue.scheduled"),
    ("engine.queue_peak", "engine.queue.depth.peak"),
    ("net.messages", "net.messages"),
    ("net.flits", "net.flits"),
    ("net.link_stall_cycles", "net.link_stall_cycles"),
    ("sd.snoops", "sd.snoops"),
    ("sd.read_hits", "sd.read_hits"),
    ("sd.inserts", "sd.inserts"),
    ("sd.evictions", "sd.evictions"),
    ("sd.transient_retries", "sd.transient_retries"),
    ("home.lookups", "home.lookups"),
    ("home.naks", "home.naks"),
    ("home.inval_rounds", "home.inval_rounds"),
    ("home.ctrl.busy_cycles", "home.ctrl.busy_cycles"),
    ("home.ctrl.stall_cycles", "home.ctrl.stall_cycles"),
    ("cache.read_misses", "cache.read_misses"),
    ("cache.write_upgrades", "cache.write_upgrades"),
    ("cache.fills", "cache.fills"),
];

/// What one repeat did, in raw host seconds.
#[derive(Default)]
struct Repeat {
    gen_s: f64,
    new_s: f64,
    /// The measured part: simulation, plus serialization for `fft-observed`.
    run_s: f64,
    json_s: f64,
    observer_s: f64,
    report_bytes: u64,
    refs: u64,
    runs: u64,
    failed: u64,
    /// FNV-1a of each run's deterministic registry, in run order.
    digests: Vec<u64>,
    /// Registry scalars summed over the repeat's runs.
    scalars: BTreeMap<String, u64>,
    /// Seconds per layer, for the traced repeat.
    layers: [f64; 6],
}

impl Repeat {
    fn absorb(&mut self, scalars: Vec<(String, u64)>, digest: u64, ok: bool) {
        for (name, v) in scalars {
            let slot = self.scalars.entry(name.clone()).or_insert(0);
            *slot = if name.ends_with(".peak") { (*slot).max(v) } else { *slot + v };
        }
        self.digests.push(digest);
        self.runs += 1;
        self.failed += u64::from(!ok);
    }

    fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0) as f64
    }
}

/// Runs `kind` for `ctx.seconds` of timed repeats (after one untimed
/// warm-up at tiny size) and derives every metric it supports.
pub fn measure(kind: SimKind, ctx: &Ctx) -> Outcome {
    black_box(repeat(kind, true, ctx.seed, false));

    let started = Instant::now();
    let mut kernels = vec![calibration_kernel()];
    let mut reps: Vec<(Repeat, f64)> = Vec::new();
    let min_repeats = if ctx.smoke { 1 } else { MIN_REPEATS };
    loop {
        let r = repeat(kind, ctx.smoke, ctx.seed, false);
        kernels.push(calibration_kernel());
        let scale = calibration_scale(kernels[kernels.len() - 2], kernels[kernels.len() - 1]);
        reps.push((r, scale));
        if reps.len() >= min_repeats && started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    let first = &reps[0].0;
    let mut failed: u64 = reps.iter().map(|(r, _)| r.failed).sum();
    let mut attempted: u64 = reps.iter().map(|(r, _)| r.runs).sum();
    // Every repeat simulates the same inputs, so every registry must match
    // the first repeat's exactly.
    for (r, _) in &reps[1..] {
        if r.digests != first.digests {
            failed += r.runs;
        }
    }

    let cal = |f: fn(&Repeat) -> f64| -> Vec<f64> { reps.iter().map(|(r, s)| f(r) * s).collect() };
    let run_s = cal(|r| r.run_s);
    let setup_s = cal(|r| r.gen_s + r.new_s);
    let refs = first.refs as f64;
    let rates: Vec<f64> = run_s.iter().map(|s| refs / s).collect();
    let run_med = median(&run_s);

    let mut m = BTreeMap::new();
    m.insert("sim_refs_per_s".into(), median(&rates));
    m.insert("setup_s".into(), median(&setup_s));
    m.insert("workloads.gen_s".into(), median(&cal(|r| r.gen_s)));
    m.insert("workloads.refs".into(), refs);
    m.insert("system.new_s".into(), median(&cal(|r| r.new_s)));
    m.insert("host.calib_s".into(), median(&kernels));
    m.insert(
        "host.raw_run_s".into(),
        median(&reps.iter().map(|(r, _)| r.run_s).collect::<Vec<_>>()),
    );
    for (metric, scalar) in COUNTERS {
        m.insert(metric.into(), first.scalar(scalar));
    }
    let ctoc_switch = first.scalar("reads.ctoc_switch");
    let ctoc_all = ctoc_switch + first.scalar("reads.ctoc_home");
    m.insert("sd.switch_ctoc_ratio".into(), ratio(ctoc_switch, ctoc_all));
    m.insert(
        "home.nak_ratio".into(),
        ratio(first.scalar("home.naks"), first.scalar("home.lookups")),
    );
    let reads = first.scalar("reads.clean") + ctoc_all;
    m.insert("model.exec_cycles".into(), first.scalar("sim.cycles"));
    m.insert("model.read_latency_cyc".into(), ratio(first.scalar("reads.latency_cycles"), reads));
    m.insert("model.ctoc_switch".into(), ctoc_switch);
    let digests: Vec<u8> = first.digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    m.insert("model.digest".into(), digest52(&digests));
    // Per-event and per-reference costs exclude serialization.
    let sim_med = median(&cal(|r| r.run_s - r.json_s));
    if kind == SimKind::TpcTrace {
        m.insert("tracesim.ns_per_ref".into(), sim_med * 1e9 / refs);
    } else {
        m.insert(
            "engine.ns_per_event".into(),
            sim_med * 1e9 / first.scalar("engine.queue.scheduled"),
        );
    }
    if kind == SimKind::FftObserved {
        m.insert("obs.observer_s".into(), median(&cal(|r| r.observer_s)));
        m.insert("obs.json_s".into(), median(&cal(|r| r.json_s)));
        m.insert("obs.report_bytes".into(), first.report_bytes as f64);
    }

    if ctx.traced && kind != SimKind::TpcTrace {
        let before = kernels[kernels.len() - 1];
        let traced = repeat(kind, ctx.smoke, ctx.seed, true);
        let scale = calibration_scale(before, calibration_kernel());
        attempted += traced.runs;
        failed += traced.failed + if traced.digests == first.digests { 0 } else { traced.runs };
        let total: f64 = traced.layers.iter().sum();
        for layer in Layer::ALL {
            let share = 100.0 * traced.layers[layer as usize] / total;
            m.insert(format!("{}.host_share", layer.name()), share);
        }
        m.insert("tracing.overhead_pct".into(), 100.0 * (traced.run_s * scale / run_med - 1.0));
        let (nodes, radix) = machine(kind);
        let route_s: Vec<f64> =
            (0..ROUTE_TABLE_REPEATS).map(|_| route_tables_s(nodes, radix) * scale).collect();
        m.insert("interconnect.route_tables_s".into(), median(&route_s));
    }

    let (q1, q3) = quartiles(&rates);
    let detail = JsonValue::obj()
        .field("repeats", reps.len() as u64)
        .field("sim_refs_per_s_q1", q1)
        .field("sim_refs_per_s_q3", q3)
        .field("run_s_samples", run_s)
        .field("setup_s_samples", setup_s)
        .field("calib_s_samples", kernels)
        .build();
    Outcome { metrics: m, attempted, failed, detail }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a of `bytes` cut to the 52 bits a JSON number carries exactly.
pub fn digest52(bytes: &[u8]) -> f64 {
    (fnv1a(bytes) & ((1 << 52) - 1)) as f64
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Nodes and switch radix of the machine `kind` simulates.
fn machine(kind: SimKind) -> (usize, u32) {
    match kind {
        SimKind::Sor256 => (256, 4),
        _ => (16, 4),
    }
}

/// Seconds to build the forward and backward route tables of a
/// `nodes`-node machine, the part of `System::new` that grows with n².
fn route_tables_s(nodes: usize, radix: u32) -> f64 {
    let bmin = Bmin::new(nodes, radix as usize);
    let t = Instant::now();
    black_box((RouteTable::forward(&bmin), RouteTable::backward(&bmin)));
    t.elapsed().as_secs_f64()
}

fn sd(entries: u32) -> Option<SwitchDirConfig> {
    Some(SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() })
}

/// Run options every simulation uses: the default observers (the flight
/// recorder) unless overridden, the watchdog armed and the end-of-run
/// coherence audit on, so each run checks its own result.
fn checked(observers: ObserverConfig) -> RunOptions {
    RunOptions {
        observers,
        watchdog: Some(dresar_faults::WatchdogConfig::default()),
        verify_coherence: true,
        ..RunOptions::default()
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// One repeat of `kind`, at tiny size for warm-ups and smoke runs.
fn repeat(kind: SimKind, tiny: bool, seed: u64, traced: bool) -> Repeat {
    let mut r = Repeat::default();
    let flight = RunOptions::default().observers;
    match kind {
        SimKind::Fft16 => {
            let w = timed(&mut r.gen_s, || scientific::fft(16, if tiny { 256 } else { 16 * 1024 }));
            for entries in [None, sd(1024)] {
                let cfg = SystemConfig { switch_dir: entries, ..SystemConfig::paper_table2() };
                exec(&mut r, cfg, &w, checked(flight), traced);
            }
        }
        SimKind::Sor256 => {
            let (grid, iters) = if tiny { (256, 1) } else { (768, 3) };
            let w = timed(&mut r.gen_s, || scientific::sor(256, grid, iters));
            let cfg = SystemConfig { switch_dir: sd(2048), ..SystemConfig::scaled(256, 4) };
            exec(&mut r, cfg, &w, checked(flight), traced);
        }
        SimKind::TpcTrace => {
            let refs = if tiny { 40_000 } else { TPC_REFS };
            let cfg = TraceSimConfig { switch_dir: sd(1024), ..TraceSimConfig::paper_table3() };
            let ws = timed(&mut r.gen_s, || {
                [commercial::tpcc(16, refs, seed), commercial::tpcd(16, refs, seed ^ 0x9e37_79b9)]
            });
            for w in &ws {
                let sim = timed(&mut r.new_s, || TraceSimulator::new(cfg));
                let report = timed(&mut r.run_s, || sim.run(w));
                trace_record(&mut r, &report, w);
            }
        }
        SimKind::FftObserved => {
            let w = timed(&mut r.gen_s, || scientific::fft(16, if tiny { 256 } else { 4 * 1024 }));
            let cfg = SystemConfig::paper_table2();
            let all = ObserverConfig::all(DEFAULT_ATTRIB_WINDOW);
            let report = exec(&mut r, cfg, &w, checked(all), traced);
            let observed_s = r.run_s;
            let json = timed(&mut r.json_s, || report.to_json().dump());
            r.run_s += r.json_s;
            r.report_bytes = json.len() as u64;
            let bd = report.obs.as_ref().and_then(|o| o.breakdown.as_ref());
            if bd.map(|b| b.total_phase_cycles()) != Some(report.reads.latency_cycles) {
                r.failed += 1;
            }
            // The same run with only the flight recorder: the difference is
            // what the observers cost. Its registry must match, since
            // observers may not perturb the simulation.
            if !traced {
                let sys = System::new(cfg, &w);
                let mut flight_s = 0.0;
                let plain = timed(&mut flight_s, || sys.run(checked(flight)));
                r.observer_s = observed_s - flight_s;
                r.runs += 1;
                let ok = healthy(&plain, &w) && plain.metrics == report.metrics;
                r.failed += u64::from(!ok);
            }
        }
    }
    r
}

/// Builds and runs one execution-driven simulation, recording its timings,
/// counters and checks into `r`. With `traced`, host time is split across
/// layers by a [`LayerProbe`] around the same observers.
fn exec(
    r: &mut Repeat,
    cfg: SystemConfig,
    w: &Workload,
    opts: RunOptions,
    traced: bool,
) -> ExecutionReport {
    let sys = timed(&mut r.new_s, || System::new(cfg, w));
    let report = if traced {
        let switches = Bmin::new(cfg.nodes, cfg.switch.radix as usize).total_switches();
        let shape = MachineShape { nodes: cfg.nodes, switches };
        let t = Instant::now();
        let mut probe = LayerProbe::new(ObserverSet::new(opts.observers, shape));
        let mut report = sys.run_probed(opts, &mut probe);
        let (layers, set) = probe.finish(Instant::now());
        let mut obs = set.finish();
        if healthy(&report, w) {
            obs.flight = None;
        }
        report.obs = (!obs.is_empty()).then_some(obs);
        r.run_s += t.elapsed().as_secs_f64();
        for (acc, s) in r.layers.iter_mut().zip(layers) {
            *acc += s;
        }
        report
    } else {
        timed(&mut r.run_s, || sys.run(opts))
    };
    r.refs += report.refs_executed;
    let digest = fnv1a(report.metrics.to_json().dump().as_bytes());
    r.absorb(report.metrics.scalars(), digest, healthy(&report, w));
    report
}

/// A run is correct when the watchdog stayed quiet, no simulation error
/// was recorded, the coherence audit passed and every reference retired.
fn healthy(report: &ExecutionReport, w: &Workload) -> bool {
    report.watchdog.is_none()
        && report.sim_errors.is_empty()
        && report.coherence.as_ref().is_some_and(|c| c.ok())
        && report.refs_executed == w.total_refs() as u64
}

/// Records a trace-driven run. The model has no engine or network, so only
/// the counters it keeps are filled in; every reference must be accounted
/// for as a read miss, a read hit or a write.
fn trace_record(r: &mut Repeat, report: &TraceReport, w: &Workload) {
    let refs = report.reads.total() + report.read_hits + report.writes;
    r.refs += refs;
    let scalars = vec![
        ("sim.cycles".to_string(), report.exec_cycles),
        ("reads.clean".into(), report.reads.clean),
        ("reads.ctoc_home".into(), report.reads.ctoc_home),
        ("reads.ctoc_switch".into(), report.reads.ctoc_switch),
        ("reads.latency_cycles".into(), report.reads.latency_cycles),
        ("cache.read_misses".into(), report.reads.total()),
        ("sd.snoops".into(), report.sd.snoops),
        ("sd.read_hits".into(), report.sd.read_hits),
        ("sd.inserts".into(), report.sd.inserts),
        ("sd.evictions".into(), report.sd.evictions),
        ("sd.transient_retries".into(), report.sd.transient_retries),
        ("home.lookups".into(), report.dir.lookups),
        ("home.naks".into(), report.dir.naks),
        ("home.inval_rounds".into(), report.dir.inval_rounds),
    ];
    let digest = fnv1a(report.to_json().dump().as_bytes());
    r.absorb(scalars, digest, refs == w.total_refs() as u64);
}
