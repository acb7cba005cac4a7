//! The switch-directory benefit sweep behind `FIG_scaling.md` and
//! `FIG_protocols.md`.
//!
//! The paper's claim is that a switch directory saves the home-directory
//! round trip on a dirty remote read, and §6 adds that the saving grows
//! with the home path. Both committed figures measure that saving along
//! one axis each — machine size ([`SCALING`]) and coherence protocol
//! ([`PROTOCOLS`]) — so they are two entries of one table: the same
//! weak-scaled FFT and SOR kernels, the same [`SD_CONFIGS`] axis, the same
//! checked run, and the same markdown renderer. An entry holds only what
//! differs: its machines, its run-name tag, its prose, its axis columns
//! and its bar label.

use crate::sweep::{Job, SweepRunner};
use crate::{switch_dir, Metrics};
use dresar::system::{RunOptions, System};
use dresar_faults::WatchdogConfig;
use dresar_types::config::SystemConfig;
use dresar_types::{Protocol, Workload};
use dresar_workloads::{scientific, Scale};
use std::fmt::Write as _;

/// The switch-directory configurations every sweep machine is evaluated
/// at. `None` is the base machine; tags are zero-padded so a name sort is
/// also a size sort. Undersized directories are deliberately absent: once
/// the weak-scaled working set outgrows an SD's capacity, eviction thrash
/// tips the home directories into a NAK retry storm that never converges
/// (256 entries collapse past 16 nodes; 512 entries collapse at 256 nodes,
/// where FFT retires ~263 k of 3.2 M references in 4 G cycles with ~100 M
/// retries). 1024 and 2048 entries stay healthy at every machine size.
pub const SD_CONFIGS: [(&str, Option<u32>); 3] =
    [("base", None), ("sd1024", Some(1024)), ("sd2048", Some(2048))];

/// One machine of a benefit sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Processor count.
    pub nodes: usize,
    /// Switch radix of the d-ary BMIN.
    pub radix: u32,
    /// The coherence protocol the caches and home directories run.
    pub protocol: Protocol,
}

impl SweepPoint {
    /// The paper's 16-node radix-4 machine under `protocol`.
    pub const fn paper(protocol: Protocol) -> Self {
        SweepPoint { nodes: 16, radix: 4, protocol }
    }
}

/// One run of a benefit sweep: a workload on one machine at one
/// switch-directory configuration.
pub struct BenefitRun {
    /// Run name, `<workload>.<axis tag>.<config>` (e.g. `"FFT.n064.sd1024"`
    /// or `"FFT.mesi.base"`).
    pub name: String,
    /// Workload label (`"FFT"`, `"SOR"`).
    pub workload: &'static str,
    /// Processor count of the machine.
    pub nodes: usize,
    /// Switch radix of the d-ary BMIN.
    pub radix: u32,
    /// BMIN stage count (`radix^stages == nodes`) — the home-path length
    /// the paper's prediction is about.
    pub stages: u32,
    /// The coherence protocol the run used.
    pub protocol: Protocol,
    /// Switch-directory entries per switch (`None` = base machine).
    pub sd_entries: Option<u32>,
    /// The run's figure metrics.
    pub metrics: Metrics,
}

/// An axis column of a figure: header, markdown alignment, cell.
type Column = (&'static str, &'static str, fn(&BenefitRun) -> String);

/// One benefit figure: the axis it sweeps and how it is written up.
#[derive(Clone, Copy)]
pub struct BenefitFigure {
    /// The `bench_report` flag (without `--`) that writes the figure.
    pub name: &'static str,
    /// Markdown title.
    pub title: &'static str,
    /// Prose between the provenance line and the tables.
    pub intro: &'static str,
    /// What each benefit row is measured against.
    pub baseline: &'static str,
    /// The machines along the axis.
    pub points: &'static [SweepPoint],
    /// A machine's segment of the run name.
    pub tag: fn(&SweepPoint) -> String,
    /// The columns that place a run on the axis.
    pub columns: &'static [Column],
    /// A bar-chart row's label.
    pub bar_label: fn(&BenefitRun) -> String,
}

/// The machine-size ladder: the paper's 16-node 2-stage BMIN, then the 3-
/// and 4-stage radix-4 machines up to the full 256-node `NodeId` range.
/// Each step adds one stage to the home path, which is exactly the
/// variable the paper's benefit argument turns on.
pub const SCALING: BenefitFigure = BenefitFigure {
    name: "scaling",
    title: "Scaling figure: switch-directory benefit vs machine size",
    intro: "Each machine-size step adds one BMIN stage to the home path, so the\n\
            paper predicts the switch-directory shortcut (serving cache-to-cache\n\
            reads from the switch instead of the home directory) saves more read\n\
            latency the larger the machine.\n\n",
    baseline: "the base machine",
    points: &[
        SweepPoint { nodes: 16, radix: 4, protocol: Protocol::Msi },
        SweepPoint { nodes: 64, radix: 4, protocol: Protocol::Msi },
        SweepPoint { nodes: 256, radix: 4, protocol: Protocol::Msi },
    ],
    tag: |p| format!("n{:03}", p.nodes),
    columns: &[
        ("nodes", "--:", |r| r.nodes.to_string()),
        ("stages", "--:", |r| r.stages.to_string()),
    ],
    bar_label: |r| format!("{:<4} n{:03} ({} stages)", r.workload, r.nodes, r.stages),
};

/// The coherence-protocol ablation on the paper's 16-node machine: MSI,
/// MESI, MOESI and the directoryless shared-LLC baseline (`dls`), whose
/// rows are the latency floor the shortcut competes against. Each protocol is compared with its
/// own base machine, so the benefit isolates what the switch directories
/// add on top of the protocol's native sharing optimizations.
pub const PROTOCOLS: BenefitFigure = BenefitFigure {
    name: "protocols",
    title: "Protocol figure: switch-directory benefit per coherence protocol",
    intro: "The switch directories are protocol-agnostic hint caches: they snoop\n\
            the same reply/copyback traffic and shortcut dirty remote reads the\n\
            same way under every protocol. What changes per protocol is how many\n\
            dirty remote reads exist to shortcut — MESI's silent upgrades create\n\
            dirty blocks the home never saw a write for, MOESI's owner keeps\n\
            serving readers after the first shortcut, and the directoryless\n\
            shared-LLC baseline (`dls`) serves reads at home without any\n\
            intervention, which is the latency floor the shortcut competes\n\
            against.\n\n",
    baseline: "each protocol's own base machine",
    points: &[
        SweepPoint::paper(Protocol::Msi),
        SweepPoint::paper(Protocol::Mesi),
        SweepPoint::paper(Protocol::Moesi),
        SweepPoint::paper(Protocol::Dls),
    ],
    tag: |p| p.protocol.to_string(),
    columns: &[("protocol", "---", |r| r.protocol.to_string())],
    bar_label: |r| format!("{:<4} {}", r.workload, r.protocol),
};

/// Weak-scaled workloads for a `p`-processor machine: the two
/// execution-driven kernels with the most contrasting sharing patterns
/// (FFT's all-to-all butterfly exchanges vs SOR's nearest-neighbour
/// borders). The paper machine is 16 processors, so the problem grows with
/// the machine — FFT points by `p/16`, the SOR grid side by `sqrt(p/16)`
/// (work is O(n^2)) — to keep per-processor work constant. Strong scaling
/// (a fixed problem) degenerates at 256 processors: the reduced FFT leaves
/// 16 points per processor and the SOR grid fewer rows than processors, so
/// barrier traffic swamps the read path and the figure measures
/// starvation, not the home-path length.
fn workloads(p: usize, scale: Scale) -> Vec<(&'static str, Workload)> {
    let grow = (p / 16).max(1);
    vec![
        ("FFT", scientific::fft(p, scale.fft_points() * grow)),
        ("SOR", scientific::sor(p, scale.grid_n() * grow.isqrt(), scale.sor_iters())),
    ]
}

/// Runs one sweep point. Every run doubles as a correctness probe: the
/// end-of-run per-protocol coherence audit must be clean, no structural sim
/// error (an out-of-range sharer id, a stray invalidation ack) may have
/// been recorded, and the watchdog must not have tripped — a machine that
/// silently wrapped somewhere, a coherence race the audit catches or a NAK
/// retry storm fails the sweep instead of publishing a figure.
fn run_checked(w: &Workload, point: SweepPoint, sd: Option<u32>) -> Metrics {
    let cfg = SystemConfig {
        protocol: point.protocol,
        switch_dir: switch_dir(sd),
        ..SystemConfig::scaled(point.nodes, point.radix)
    };
    let report = System::new(cfg, w).run(RunOptions {
        verify_coherence: true,
        max_cycles: 500_000_000,
        watchdog: Some(WatchdogConfig::default()),
        ..RunOptions::default()
    });
    let what = format!("{}x{} {} sd={sd:?}", point.nodes, point.radix, point.protocol);
    assert!(report.watchdog.is_none(), "run {what}: watchdog tripped: {:?}", report.watchdog);
    assert!(report.sim_errors.is_empty(), "run {what}: sim errors {:?}", report.sim_errors);
    let audit = report.coherence.as_ref().expect("verify_coherence was requested");
    assert!(audit.ok(), "run {what}: coherence violations {:?}", audit.violations);
    Metrics::from(&report)
}

impl BenefitFigure {
    /// Every point × workload × [`SD_CONFIGS`] run, executed through
    /// `runner` and sorted by name. Output is byte-identical across thread
    /// counts: independent jobs, submission-order result slots, name-sorted
    /// assembly.
    pub fn runs(&self, scale: Scale, runner: SweepRunner) -> Vec<BenefitRun> {
        // One job per (machine, workload, config): the kernels regenerate
        // their streams inside the worker (generation is cheap next to
        // simulation), so jobs share no state and the biggest machine
        // doesn't serialize the pool behind one fat job.
        let mut jobs: Vec<Job<'_, BenefitRun>> = Vec::new();
        for &point in self.points {
            let stages = SystemConfig::scaled(point.nodes, point.radix).stages();
            let tag = (self.tag)(&point);
            for wi in 0..workloads(point.nodes, scale).len() {
                for (sd_tag, sd) in SD_CONFIGS {
                    let tag = tag.clone();
                    jobs.push(Box::new(move || {
                        let (workload, w) = workloads(point.nodes, scale).swap_remove(wi);
                        BenefitRun {
                            name: format!("{workload}.{tag}.{sd_tag}"),
                            workload,
                            nodes: point.nodes,
                            radix: point.radix,
                            stages,
                            protocol: point.protocol,
                            sd_entries: sd,
                            metrics: run_checked(&w, point, sd),
                        }
                    }));
                }
            }
        }
        let mut runs = runner.run_jobs(jobs);
        runs.sort_by(|a, b| a.name.cmp(&b.name));
        runs
    }

    /// Renders the figure as markdown: a raw-counter table, the
    /// read-latency reduction of every SD config against its own base run
    /// (plus cycles saved per switch-served CtoC read at the largest SD),
    /// and a bar chart of the largest SD's reduction. Every number is a
    /// deterministic simulation counter or a fixed-precision ratio of two,
    /// so the document is byte-identical across sweep thread counts.
    pub fn render(&self, scale: Scale, runs: &[BenefitRun]) -> String {
        let mut out = format!("# {}\n\n", self.title);
        let _ = writeln!(
            out,
            "Generated by `bench_report {} --{} <path>`. All numbers are\n\
             deterministic simulation counters; the document is byte-identical\n\
             across sweep thread counts.\n",
            format!("{scale:?}").to_lowercase(),
            self.name
        );
        out.push_str(self.intro);

        let axis_headers: String = self.columns.iter().map(|(h, ..)| format!(" {h} |")).collect();
        let axis_aligns: String = self.columns.iter().map(|(_, a, _)| format!("{a}|")).collect();
        let axis_cells = |r| -> String {
            self.columns.iter().map(|(.., cell)| format!(" {} |", cell(r))).collect()
        };
        let _ = writeln!(
            out,
            "## Runs\n\n| run |{axis_headers} sd entries | avg read latency | home CtoC | \
             switch CtoC | SD hits | exec cycles |\n|---|{axis_aligns}--:|--:|--:|--:|--:|--:|"
        );
        for r in runs {
            let sd = r.sd_entries.map_or("-".to_string(), |e| e.to_string());
            let m = &r.metrics;
            let _ = writeln!(
                out,
                "| {} |{} {sd} | {:.2} | {} | {} | {} | {} |",
                r.name,
                axis_cells(r),
                m.avg_read_latency(),
                m.reads.ctoc_home,
                m.reads.ctoc_switch,
                m.sd_hits,
                m.exec_cycles,
            );
        }

        // Each run is compared with the base run on the same machine.
        let same_machine = |a: &BenefitRun, b: &BenefitRun| {
            a.workload == b.workload && a.nodes == b.nodes && a.protocol == b.protocol
        };
        let base = |r: &BenefitRun| -> Option<&BenefitRun> {
            runs.iter().find(|b| same_machine(b, r) && b.sd_entries.is_none())
        };
        let benefit = |r: &BenefitRun| -> Option<f64> {
            let b = base(r)?.metrics.avg_read_latency();
            (b > 0.0).then(|| 100.0 * (b - r.metrics.avg_read_latency()) / b)
        };
        // Cycles saved per switch-served CtoC read: the total read-latency
        // cycles the SD machine shaved off its base machine, amortized over
        // the reads the switches actually served. This is the per-shortcut
        // saving — the quantity the paper's longer-home-path argument is
        // directly about — and unlike the aggregate percentage it is not
        // diluted by how much of the workload's traffic the SD can capture.
        let per_hit = |r: &BenefitRun| -> Option<f64> {
            let b = base(r)?;
            (r.metrics.reads.ctoc_switch > 0).then(|| {
                (b.metrics.reads.latency_cycles as f64 - r.metrics.reads.latency_cycles as f64)
                    / r.metrics.reads.ctoc_switch as f64
            })
        };

        let sd_tags: Vec<(&str, u32)> =
            SD_CONFIGS.iter().filter_map(|&(tag, sd)| sd.map(|e| (tag, e))).collect();
        // Spotlight the largest SD for the per-hit column and the bar
        // chart: it has the most capacity headroom, so its numbers isolate
        // path length from eviction-thrash effects.
        let (spot_tag, spot_entries) = *sd_tags.last().expect("SD_CONFIGS has an SD config");
        let sd_headers: String = sd_tags.iter().map(|(tag, _)| format!(" {tag} |")).collect();
        let _ = writeln!(
            out,
            "\n## Benefit: read-latency reduction vs {}\n\n| workload |{axis_headers}{sd_headers} \
             {spot_tag} cycles saved / switch CtoC |\n|---|{axis_aligns}{}",
            self.baseline,
            "--:|".repeat(sd_tags.len() + 1)
        );
        for probe in runs.iter().filter(|r| r.sd_entries.is_none()) {
            let _ = write!(out, "| {} |{}", probe.workload, axis_cells(probe));
            let mut saved = String::from("-");
            for &(_, entries) in &sd_tags {
                let run =
                    runs.iter().find(|r| same_machine(r, probe) && r.sd_entries == Some(entries));
                match run.and_then(benefit) {
                    Some(pct) => {
                        let _ = write!(out, " {pct:.1}% |");
                    }
                    None => out.push_str(" - |"),
                }
                if entries == spot_entries {
                    if let Some(s) = run.and_then(per_hit) {
                        saved = format!("{s:.0}");
                    }
                }
            }
            let _ = writeln!(out, " {saved} |");
        }

        let _ = write!(out, "\n```text\n{spot_tag} read-latency reduction (one # per percent)\n\n");
        for r in runs.iter().filter(|r| r.sd_entries == Some(spot_entries)) {
            if let Some(pct) = benefit(r) {
                let bar = "#".repeat(pct.round().clamp(0.0, 60.0) as usize);
                let _ = writeln!(out, "{} {bar:<60} {pct:5.1}%", (self.bar_label)(r));
            }
        }
        out.push_str("```\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::ToJson;

    #[test]
    fn benefit_sweeps_serial_match_parallel() {
        // Reduced axes at tiny scale so the test stays cheap; the full
        // 256-node ladder and the MSI/MESI/MOESI/DLS matrix are exercised
        // by CI and the committed figures.
        let scaling = BenefitFigure { points: &SCALING.points[..2], ..SCALING };
        let protocols = BenefitFigure { points: &PROTOCOLS.points[..2], ..PROTOCOLS };
        for fig in [scaling, protocols] {
            let a = fig.runs(Scale::Tiny, SweepRunner::serial());
            let b = fig.runs(Scale::Tiny, SweepRunner::with_threads(4));
            assert_eq!(a.len(), fig.points.len() * 2 * SD_CONFIGS.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name, "run order must not depend on thread count");
                assert_eq!(
                    x.metrics.to_json().dump(),
                    y.metrics.to_json().dump(),
                    "{}: runs must be byte-identical serial vs parallel",
                    x.name
                );
            }
            assert_eq!(fig.render(Scale::Tiny, &a), fig.render(Scale::Tiny, &b));
        }
    }
}
