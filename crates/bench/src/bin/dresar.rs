//! `dresar`: regenerates the paper's evaluation — Figures 1, 2 and 8–11,
//! Tables 2–3, the §4.2/§4.3 cycle budget behind Figures 5–7 — plus the
//! design ablations, the calibration probe and the flight-recorder cost
//! guard, as subcommands of one binary. See [`dresar_bench::cli`] for the
//! grammar and its error codes.

use dresar::switchdir::PortScheduler;
use dresar::system::RunOptions;
use dresar_bench::cli::{self, Args, Command};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{
    catalogue_entry, fault_options, figure_options, full_sweep, json_doc, run, suite, Bench,
    Driver, Metrics, Sweep,
};
use dresar_faults::FaultPlan;
use dresar_obs::{ObserverConfig, DEFAULT_ATTRIB_WINDOW, DEFAULT_FLIGHT_CAPACITY};
use dresar_stats::{percent_of, percent_reduction, BlockHistogram, FigureTable};
use dresar_trace_sim::TraceSimulator;
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig, TransientReadPolicy};
use dresar_types::msg::MsgType;
use dresar_types::runspec::SUITE_SEED;
use dresar_types::{JsonValue, ToJson, Workload};
use dresar_workloads::{scientific, Scale};
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = cli::parse_command(&argv).unwrap_or_else(|e| e.exit());
    match command {
        Command::Fig(1) => fig1(&args),
        Command::Fig(2) => fig2(&args),
        Command::Fig(n) => {
            let fig = SWEEP_FIGURES.iter().find(|f| f.number == n).expect("parser checks figures");
            let table = fig.table(args.scale, &full_sweep(args.scale));
            print_table(&format!("fig{n}"), &args, &table, fig.note);
        }
        Command::Figures => figures(args.scale),
        Command::Ablations => ablations(&args),
        Command::Params => params(),
        Command::CycleBudget => cycle_budget(),
        Command::Probe => match args.faults {
            Some(plan) => probe_faulted(&args, plan),
            None if args.json => probe_json(&args),
            None => probe(args.scale),
        },
        Command::ScopeOverhead => scope_overhead(&args),
    }
}

/// Prints a figure table: a `{"tool", "scale", "table"}` document with
/// `--json`, else the rendered table followed by the paper's numbers.
fn print_table(tool: &str, args: &Args, table: &FigureTable, note: &str) {
    if args.json {
        let doc = json_doc(tool)
            .field("scale", format!("{:?}", args.scale))
            .field("table", table.to_json())
            .build();
        println!("{}", doc.dump());
    } else {
        println!("{}", table.render());
        println!("{note}");
    }
}

// ---- Figure 1 ----------------------------------------------------------

/// Figure 1 characterizes the *base* machine (no switch directory): every
/// suite workload once, sharded across cores, in suite order.
fn base_runs(scale: Scale) -> Vec<(&'static str, Metrics)> {
    let benches = suite(scale);
    let metrics =
        SweepRunner::from_env().map(&benches, |b| b.run(None, figure_options()).metrics());
    benches.iter().map(|b| b.label).zip(metrics).collect()
}

/// Figure 1: fraction of reads serviced clean-from-memory vs dirty
/// cache-to-cache, for the five scientific applications (execution-driven)
/// and the two commercial workloads (trace-driven).
fn fig1(args: &Args) {
    let mut table = FigureTable::new(
        format!("Figure 1: Fraction of Clean vs. Dirty Memory Reads (scale={:?})", args.scale),
        vec!["clean %".into(), "dirty CtoC %".into(), "read misses".into()],
        "percent of read misses",
    );
    for (label, m) in base_runs(args.scale) {
        let total = m.reads.total().max(1) as f64;
        table.push_row(
            label,
            vec![100.0 * m.reads.clean as f64 / total, 100.0 * m.reads.dirty_fraction(), total],
        );
    }
    let note = "Paper bands: FFT/SOR 60-70% dirty; TC/FWA/GAUSS 15-30%; TPC-C ~38%; TPC-D ~62%.";
    print_table("fig1", args, &table, note);
}

// ---- Figure 2 ----------------------------------------------------------

/// The TPC-C per-block miss histogram on the base trace-driven machine.
fn tpcc_histogram(scale: Scale) -> BlockHistogram {
    let tpcc = catalogue_entry("TPC-C").expect("the catalogue holds TPC-C");
    let workload = tpcc.workload(16, scale, SUITE_SEED);
    let mut sim = TraceSimulator::new(TraceSimConfig::paper_base());
    sim.collect_histogram();
    sim.run(&workload).histogram.expect("histogram collected")
}

/// Figure 2: cumulative distribution of read misses and cache-to-cache
/// transfers over blocks (sorted by decreasing misses per block) for the
/// TPC-C workload on the trace-driven simulator.
fn fig2(args: &Args) {
    let scale = args.scale;
    let h = tpcc_histogram(scale);
    if args.json {
        let points: Vec<JsonValue> = h
            .cumulative(20)
            .into_iter()
            .map(|pt| {
                JsonValue::obj()
                    .field("block_rank", pt.block_rank)
                    .field("miss_fraction", pt.miss_fraction)
                    .field("ctoc_fraction", pt.ctoc_fraction)
                    .build()
            })
            .collect();
        let doc = json_doc("fig2")
            .field("scale", format!("{scale:?}"))
            .field("blocks_touched", h.blocks_touched())
            .field("read_misses", h.total_misses())
            .field("ctoc_transfers", h.total_ctocs())
            .field("cumulative", points)
            .field("top_decile_ctoc_coverage", h.ctoc_coverage_of_top(0.10))
            .build();
        println!("{}", doc.dump());
        return;
    }
    println!("Figure 2: Access Frequency of TPC-C Blocks (scale={scale:?})");
    println!(
        "blocks touched = {}, read misses = {}, CtoC transfers = {}",
        h.blocks_touched(),
        h.total_misses(),
        h.total_ctocs()
    );
    println!("{:>10} {:>12} {:>12}", "top-N", "misses %", "CtoCs %");
    for pt in h.cumulative(20) {
        println!(
            "{:>10} {:>11.1}% {:>11.1}%",
            pt.block_rank,
            100.0 * pt.miss_fraction,
            100.0 * pt.ctoc_fraction
        );
    }
    println!(
        "\ntop 10% of blocks cover {:.1}% of CtoC transfers (paper: ~88%)",
        100.0 * h.ctoc_coverage_of_top(0.10)
    );
}

// ---- Figures 8-11 ------------------------------------------------------

/// One of the paper's Figures 8–11: a normalized reduction of one metric
/// vs the base machine, across switch-directory sizes 256–2048.
struct SweepFigure {
    number: u8,
    /// Title of the rendered table.
    title: &'static str,
    /// Section heading in the `figures` report.
    heading: &'static str,
    metric: fn(&Metrics) -> f64,
    /// The paper's numbers, printed under the rendered table.
    note: &'static str,
}

const SWEEP_FIGURES: [SweepFigure; 4] = [
    SweepFigure {
        number: 8,
        title: "Reduction in Home Node CtoC Transfers",
        heading: "reduction in home-node CtoC transfers",
        metric: Metrics::home_ctoc,
        note: "Paper: FFT 66%, TC 68%, others 42-52%, TPC-C up to 51%, TPC-D 17%; 1K is the knee.",
    },
    SweepFigure {
        number: 9,
        title: "Reduction in the Average Read Latency",
        heading: "reduction in average read latency",
        metric: Metrics::avg_read_latency,
        note: "Paper: scientific 8-23%, TPC-C up to 10%, TPC-D up to 5%.",
    },
    SweepFigure {
        number: 10,
        title: "Reduction in the Read Stall Time",
        heading: "reduction in read stall time",
        metric: Metrics::read_stall,
        note: "Paper: stall reductions track Figure 9, slightly amplified.",
    },
    SweepFigure {
        number: 11,
        title: "Execution Time Reduction",
        heading: "reduction in execution time",
        metric: Metrics::exec,
        note: "Paper: SOR up to 9%, FFT/TC ~4%, TPC-C ~4%, TPC-D ~2%, others negligible.",
    },
];

impl SweepFigure {
    /// The figure's table over a [`full_sweep`]: one row per workload, one
    /// `% reduction vs base` column per switch-directory size.
    fn table(&self, scale: Scale, sweeps: &[Sweep]) -> FigureTable {
        let mut table = FigureTable::new(
            format!("Figure {}: {} (scale={scale:?})", self.number, self.title),
            vec!["256".into(), "512".into(), "1K".into(), "2K".into()],
            "% reduction vs base",
        );
        for s in sweeps {
            let base = (self.metric)(&s.base);
            let vals = s.sized.iter().map(|(_, m)| percent_reduction(base, (self.metric)(m)));
            table.push_row(s.label, vals.collect());
        }
        table
    }
}

// ---- figures: the whole evaluation ---------------------------------------

/// Figures 1, 2 and 8–11 in one run, as EXPERIMENTS.md-style markdown.
fn figures(scale: Scale) {
    let t0 = Instant::now();
    println!("# dresar evaluation (scale = {scale:?})\n");

    println!("## Figure 1 — clean vs dirty read fractions (base machine)\n");
    println!("| workload | read misses | clean % | dirty CtoC % |");
    println!("|----------|------------:|--------:|-------------:|");
    for (label, m) in base_runs(scale) {
        let total = m.reads.total().max(1) as f64;
        println!(
            "| {} | {} | {:.1} | {:.1} |",
            label,
            m.reads.total(),
            100.0 * m.reads.clean as f64 / total,
            100.0 * m.reads.dirty_fraction()
        );
    }

    println!("\n## Figure 2 — TPC-C block access skew\n");
    let h = tpcc_histogram(scale);
    println!(
        "blocks touched = {}, read misses = {}, CtoC transfers = {}, top-10% CtoC coverage = {:.1}% (paper: ~88%)",
        h.blocks_touched(),
        h.total_misses(),
        h.total_ctocs(),
        100.0 * h.ctoc_coverage_of_top(0.10)
    );

    let sweeps = full_sweep(scale);
    let header = "| workload | 256 | 512 | 1K | 2K |\n|----------|----:|----:|---:|---:|";
    for fig in &SWEEP_FIGURES {
        println!("\n## Figure {} — {} (% vs base)\n\n{header}", fig.number, fig.heading);
        for (label, vals) in fig.table(scale, &sweeps).rows() {
            let cells: Vec<String> = vals.iter().map(|v| format!("{v:.1}")).collect();
            println!("| {} | {} |", label, cells.join(" | "));
        }
    }

    println!("\n_Total regeneration time: {:.1}s_", t0.elapsed().as_secs_f64());
}

// ---- ablations -----------------------------------------------------------

/// The DRESAR design choices (DESIGN.md §3) against their alternatives:
/// the paper's Retry TRANSIENT-read policy vs bit-vector Accumulate,
/// pending-buffer capacity (§4.3), directory associativity, and 8x8
/// two-stage vs 4x4 four-stage switches.
fn variants() -> Vec<(&'static str, SystemConfig)> {
    let base = SystemConfig::paper_table2();
    let with_sd = |f: &dyn Fn(&mut SwitchDirConfig)| {
        let mut c = base;
        let mut sd = SwitchDirConfig::paper_default();
        f(&mut sd);
        c.switch_dir = Some(sd);
        c
    };
    let mut radix2 = base;
    radix2.switch.radix = 2;
    vec![
        ("paper default (retry, 4-way, pend=16)", base),
        (
            "accumulate readers",
            with_sd(&|sd| sd.transient_policy = TransientReadPolicy::Accumulate),
        ),
        ("pending buffer = 1", with_sd(&|sd| sd.pending_buffer_entries = 1)),
        ("pending buffer = 64", with_sd(&|sd| sd.pending_buffer_entries = 64)),
        ("direct-mapped directory", with_sd(&|sd| sd.ways = 1)),
        ("8-way directory", with_sd(&|sd| sd.ways = 8)),
        ("4x4 switches (4 stages)", radix2),
        ("no switch directory (base)", SystemConfig::paper_base()),
    ]
}

fn ablations(args: &Args) {
    let (scale, json) = (args.scale, args.json);
    let workloads: Vec<(&str, Workload)> = vec![
        ("FFT", scientific::fft(16, scale.fft_points())),
        ("SOR", scientific::sor(16, scale.grid_n().min(192), 2)),
    ];
    let mut json_workloads: Vec<JsonValue> = Vec::new();
    for (wname, w) in &workloads {
        if !json {
            println!("\n=== {wname} ({} refs) ===", w.total_refs());
            println!(
                "{:40} {:>9} {:>9} {:>9} {:>10} {:>9}",
                "variant", "homeCC", "swCC", "retries", "avg lat", "exec"
            );
        }
        let mut json_variants: Vec<JsonValue> = Vec::new();
        for (name, cfg) in variants() {
            let r = run(Driver::Execution, w, cfg, RunOptions::default());
            if json {
                json_variants.push(
                    JsonValue::obj().field("variant", name).field("report", r.to_json()).build(),
                );
            } else {
                let m = r.metrics();
                println!(
                    "{:40} {:>9} {:>9} {:>9} {:>10.1} {:>9}",
                    name,
                    m.reads.ctoc_home,
                    m.reads.ctoc_switch,
                    m.reads.retries,
                    m.avg_read_latency(),
                    m.exec_cycles
                );
            }
        }
        if json {
            json_workloads.push(
                JsonValue::obj()
                    .field("workload", *wname)
                    .field("refs", w.total_refs())
                    .field("variants", json_variants)
                    .build(),
            );
        }
    }
    if json {
        let doc = json_doc("ablations")
            .field("scale", format!("{scale:?}"))
            .field("workloads", json_workloads)
            .build();
        println!("{}", doc.dump());
    }
}

// ---- Tables 2 & 3 --------------------------------------------------------

/// Tables 2 & 3: the simulation parameters in use, as encoded by the
/// `paper_table2()` / `paper_table3()` presets.
fn params() {
    let t2 = SystemConfig::paper_table2();
    println!("Table 2: Execution-Driven Simulation Parameters");
    println!("  nodes                : {}", t2.nodes);
    println!("  processor            : 200 MHz, {}-way issue", t2.processor.issue_width);
    println!(
        "  L1 cache             : {} KB, {} B lines, {}-way, {} cycle(s)",
        t2.l1.size_bytes / 1024,
        t2.l1.line_bytes,
        t2.l1.ways,
        t2.l1.access_cycles
    );
    println!(
        "  L2 cache             : {} KB, {} B lines, {}-way, {} cycles",
        t2.l2.size_bytes / 1024,
        t2.l2.line_bytes,
        t2.l2.ways,
        t2.l2.access_cycles
    );
    println!(
        "  memory               : {} cycles, {}-way interleaved, {} cycles controller occupancy",
        t2.memory.access_cycles, t2.memory.interleave, t2.memory.controller_occupancy
    );
    println!(
        "  switch               : {}x{} (radix {}), core {} cycles, 16-bit links, {} B flits ({} cycles/flit), {} VCs, {}-flit buffers",
        2 * t2.switch.radix,
        2 * t2.switch.radix,
        t2.switch.radix,
        t2.switch.core_cycles,
        t2.switch.flit_bytes,
        t2.switch.link_cycles_per_flit,
        t2.switch.virtual_channels,
        t2.switch.buffer_flits
    );
    println!("  BMIN                 : {} stages", t2.stages());
    if let Some(sd) = t2.switch_dir {
        println!(
            "  switch directory     : {} entries ({}-way, {} ports, {} pending)",
            sd.entries,
            sd.ways,
            PortScheduler::paper_4x4().main_ports,
            sd.pending_buffer_entries
        );
    }

    let t3 = TraceSimConfig::paper_table3();
    println!("\nTable 3: Trace-Driven Simulation Parameters");
    println!(
        "  cache                : {} MB, {}-way, {} B lines, {} cycles",
        t3.cache.size_bytes / (1024 * 1024),
        t3.cache.ways,
        t3.cache.line_bytes,
        t3.cache.access_cycles
    );
    let l = t3.latencies;
    println!("  local memory access  : {} cycles", l.local_memory);
    println!("  CtoC (local home)    : {} cycles", l.ctoc_local_home);
    println!("  remote memory access : {} cycles", l.remote_memory);
    println!("  CtoC (remote home)   : {} cycles", l.ctoc_remote_home);
    println!("  switch-directory hit : {} cycles", l.switch_dir_hit);
    if let Some(sd) = t3.switch_dir {
        println!("  switch directory     : {} entries, {}-way", sd.entries, sd.ways);
    }
}

// ---- cycle budget (Figures 5-7) -------------------------------------------

/// Figures 5–7 arithmetic: verifies DRESAR's claim that switch-directory
/// processing fits inside the base crossbar's 4-cycle window — for the 4x4
/// design with a 2-way multiported directory, and for the 8x8 design with
/// the §4.3 pending buffer — and shows the naive 8x8 failing without it.
fn cycle_budget() {
    use MsgType::*;
    let show = |name: &str, s: PortScheduler, batch: &[MsgType]| {
        let w = s.schedule(batch);
        println!(
            "{name:46} lookups: main {} cyc, pending {} cyc; update slack {}; {}",
            w.main_lookup_cycles,
            w.pending_lookup_cycles,
            w.update_cycles_free,
            if w.within_budget { "WITHIN BUDGET" } else { "OVER BUDGET (feedback/blocking)" }
        );
    };
    println!("DRESAR cycle-budget check (window = 4 cycles, per §4.2/§4.3)\n");
    let mix4 = [ReadRequest, WriteReply, WriteBack, CtoCRequest];
    let mix8 = [
        ReadRequest,
        WriteRequest,
        WriteReply,
        ReadRequest,
        WriteBack,
        CopyBack,
        CtoCRequest,
        Retry,
    ];
    let reads8 = [ReadRequest; 8];

    show("4x4, 2-ported directory, mixed 4-batch", PortScheduler::paper_4x4(), &mix4);
    show(
        "8x8, 2-ported directory, NO pending buffer",
        PortScheduler { window_cycles: 4, main_ports: 2, pending_ports: 0 },
        &mix8,
    );
    show("8x8, 2-ported dir + 4-ported pending buffer", PortScheduler::paper_8x8(), &mix8);
    show("8x8, pathological all-ReadRequest batch", PortScheduler::paper_8x8(), &reads8);
    show(
        "8x8, 4-ported directory (paper's costly fix)",
        PortScheduler { window_cycles: 4, main_ports: 4, pending_ports: 4 },
        &reads8,
    );
}

// ---- probe -----------------------------------------------------------------

/// Calibration probe: the raw Figure 1/8/9/10/11 inputs for every workload
/// (base vs sd1024), for sanity-checking the reproduction against the
/// paper's bands before the figures format them.
fn probe(scale: Scale) {
    println!("scale = {scale:?}");
    println!(
        "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9} {:>7}",
        "workload",
        "reads",
        "dirty%",
        "homeCC",
        "swCC",
        "sdhit%",
        "lat_base",
        "lat_sd",
        "exec_red%",
        "stall_red%"
    );
    // Workloads shard across cores; results print in suite order, so the
    // table is identical to a serial run.
    let benches = suite(scale);
    let pairs = SweepRunner::from_env().map(&benches, |b| {
        let t0 = Instant::now();
        let base = b.run(None, figure_options()).metrics();
        let with = b.run(Some(1024), figure_options()).metrics();
        (base, with, t0.elapsed().as_secs_f64())
    });
    for (b, (base, with, seconds)) in benches.iter().zip(pairs) {
        let dirty_pct = 100.0 * base.reads.dirty_fraction();
        let sd_serve_pct = percent_of(with.reads.ctoc_switch as f64, with.reads.dirty() as f64);
        let exec_red = percent_reduction(base.exec(), with.exec());
        let stall_red = percent_reduction(base.read_stall(), with.read_stall());
        let cc_red = percent_reduction(base.home_ctoc(), with.home_ctoc());
        println!(
            "{:8} {:>10} {:>7.1}% {:>8} {:>8} {:>7.1}% | {:>9.1} {:>9.1} {:>8.2}% {:>8.2}%  ccred={:.1}%  ({:.1}s)",
            b.label,
            base.reads.total(),
            dirty_pct,
            with.reads.ctoc_home,
            with.reads.ctoc_switch,
            sd_serve_pct,
            base.avg_read_latency(),
            with.avg_read_latency(),
            exec_red,
            stall_red,
            cc_red,
            seconds,
        );
    }
}

/// `probe --faults <plan>`: runs every execution-driven workload (sd1024)
/// under the plan and prints what the injector did, the watchdog verdict,
/// and the end-of-run coherence audit. With `--json`, one document instead.
fn probe_faulted(args: &Args, plan: FaultPlan) {
    let scale = args.scale;
    let benches: Vec<Bench> =
        suite(scale).into_iter().filter(|b| b.driver == Driver::Execution).collect();
    let runs = SweepRunner::from_env().map(&benches, |b| {
        let report = b.run(Some(1024), fault_options(plan)).execution();
        (b.label, report.expect("execution-driven run"))
    });
    if args.json {
        let workloads: Vec<JsonValue> = runs
            .iter()
            .map(|(label, r)| {
                JsonValue::obj().field("label", *label).field("report", r.to_json()).build()
            })
            .collect();
        let doc = json_doc("probe-faults")
            .field("scale", format!("{scale:?}"))
            .field("workloads", workloads)
            .build();
        println!("{}", doc.dump());
        return;
    }
    println!("scale = {scale:?}  (fault-injected; sd1024)");
    println!(
        "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "workload", "cycles", "dropped", "retrans", "lost", "scrubbed", "watchdog", "coherence"
    );
    for (label, r) in &runs {
        let f = r.faults.unwrap_or_default();
        let wd = r.watchdog.as_ref().map_or("-", |w| w.kind.label());
        let coh = r.coherence.as_ref().map_or("-", |c| if c.ok() { "ok" } else { "VIOLATED" });
        println!(
            "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
            label, r.cycles, f.dropped, f.retransmissions, f.lost, f.scrubbed, wd, coh
        );
    }
}

/// `probe --json`: the probe's numbers plus the per-phase read-latency
/// breakdown (execution-driven workloads only); `--heatmap` also attaches
/// the topology contention heatmap of each observed run.
fn probe_json(args: &Args) {
    let observers = ObserverConfig {
        latency_breakdown: true,
        heatmap_window: args.heatmap.then_some(DEFAULT_ATTRIB_WINDOW),
        ..Default::default()
    };
    let benches = suite(args.scale);
    let workloads: Vec<JsonValue> = SweepRunner::from_env().map(&benches, |b| {
        let observed = |sd| {
            let report = b.run(sd, RunOptions { observers, ..RunOptions::default() });
            (report.metrics(), report.execution().and_then(|r| r.obs))
        };
        let (base, mut base_obs) = observed(None);
        let (with, mut with_obs) = observed(Some(1024));
        let mut w = JsonValue::obj()
            .field("label", b.label)
            .field("base", base.to_json())
            .field("with_sd", with.to_json())
            .field(
                "reductions",
                JsonValue::obj()
                    .field("home_ctoc_pct", percent_reduction(base.home_ctoc(), with.home_ctoc()))
                    .field(
                        "avg_read_latency_pct",
                        percent_reduction(base.avg_read_latency(), with.avg_read_latency()),
                    )
                    .field(
                        "read_stall_pct",
                        percent_reduction(base.read_stall(), with.read_stall()),
                    )
                    .field("exec_pct", percent_reduction(base.exec(), with.exec()))
                    .build(),
            );
        if let Some(bd) = base_obs.as_mut().and_then(|o| o.breakdown.take()) {
            w = w.field("base_breakdown", bd.to_json());
        }
        if let Some(bd) = with_obs.as_mut().and_then(|o| o.breakdown.take()) {
            w = w.field("with_sd_breakdown", bd.to_json());
        }
        if let Some(hm) = base_obs.and_then(|o| o.heatmap) {
            w = w.field("base_heatmap", hm.to_json());
        }
        if let Some(hm) = with_obs.and_then(|o| o.heatmap) {
            w = w.field("with_sd_heatmap", hm.to_json());
        }
        w.build()
    });
    let doc = json_doc("probe")
        .field("scale", format!("{:?}", args.scale))
        .field("workloads", workloads)
        .build();
    println!("{}", doc.dump());
}

// ---- scope-overhead --------------------------------------------------------

/// The observability cost guard. By default it measures the always-on
/// flight recorder's simulation throughput (cycles/sec) against the
/// `NullProbe` fast path on FFT at sd1024 and emits one JSON document;
/// with `--max-overhead-pct P` it exits 1 when the recorder costs more than
/// `P` percent. Both configurations run the identical workload through
/// [`Bench::run`], so the ratio isolates the probe dispatch and ring
/// writes; each throughput is the best of `--repeats` runs, since
/// minimum-noise estimators compare far more stably than means on shared
/// hosts. `--emit-trace` instead prints one traced run's raw Chrome trace.
fn scope_overhead(args: &Args) {
    let benches = suite(args.scale);
    let bench =
        benches.iter().find(|b| b.label == "FFT").expect("suite always contains the FFT workload");

    if args.emit_trace {
        let observers = ObserverConfig { trace: true, ..ObserverConfig::default() };
        let report = bench.run(Some(1024), RunOptions { observers, ..RunOptions::default() });
        let trace = report
            .execution()
            .and_then(|r| r.obs?.trace)
            .expect("traced execution-driven run yields a trace");
        print!("{}", trace.document());
        return;
    }

    let null_cfg = ObserverConfig::default();
    let flight_cfg =
        ObserverConfig { flight: Some(DEFAULT_FLIGHT_CAPACITY), ..ObserverConfig::default() };
    // Warm caches/allocator once, untimed.
    throughput(bench, null_cfg);

    let mut best_null = 0.0f64;
    let mut best_flight = 0.0f64;
    for _ in 0..args.repeats {
        best_null = best_null.max(throughput(bench, null_cfg));
        best_flight = best_flight.max(throughput(bench, flight_cfg));
    }
    let overhead_pct = 100.0 * (best_null - best_flight) / best_null;

    let doc = json_doc("scope-overhead")
        .field("scale", format!("{:?}", args.scale))
        .field("workload", bench.label)
        .field("repeats", args.repeats as u64)
        .field("null_probe_cycles_per_sec", best_null)
        .field("flight_cycles_per_sec", best_flight)
        .field("overhead_pct", overhead_pct)
        .field("max_overhead_pct", args.max_overhead_pct)
        .build();
    println!("{}", doc.dump());

    if let Some(limit) = args.max_overhead_pct {
        if overhead_pct > limit {
            eprintln!("flight-recorder overhead {overhead_pct:.1}% exceeds the {limit:.1}% budget");
            std::process::exit(1);
        }
    }
}

/// Simulated cycles per wall-clock second for one run under `observers`.
fn throughput(bench: &Bench, observers: ObserverConfig) -> f64 {
    let t0 = Instant::now();
    let m = bench.run(Some(1024), RunOptions { observers, ..RunOptions::default() }).metrics();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    m.exec_cycles as f64 / secs
}
