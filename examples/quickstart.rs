//! Quickstart: build a 16-node CC-NUMA machine, run a tiny producer-
//! consumer workload twice — once on the base machine and once with DRESAR
//! switch directories — and compare how the dirty reads were serviced.
//!
//! Run with: `cargo run --release --example quickstart`

use dresar::system::{RunOptions, System};
use dresar_types::config::SystemConfig;
use dresar_types::{StreamItem, Workload};

fn main() {
    // Processor 0 produces 64 blocks; processors 1..16 each consume a
    // quarter of them after a barrier. Consumers' reads are dirty: the
    // data still lives in processor 0's cache.
    let blocks: Vec<u64> = (0..64).map(|i| i * 32).collect();
    let mut streams = vec![blocks
        .iter()
        .map(|&b| StreamItem::write(b, 4))
        .chain([StreamItem::barrier(0)])
        .collect::<Vec<_>>()];
    for c in 1..16usize {
        let mine: Vec<StreamItem> = [StreamItem::barrier(0)]
            .into_iter()
            .chain(blocks.iter().skip(c % 4).step_by(4).map(|&b| StreamItem::read(b, 4)))
            .collect();
        streams.push(mine);
    }
    let workload = Workload { name: "quickstart".into(), streams };

    // The paper's Table 2 machine, with and without switch directories.
    let with_sd = SystemConfig::paper_table2();
    let base = SystemConfig::paper_base();

    let r_base = System::new(base, &workload).run(RunOptions::default());
    let r_sd = System::new(with_sd, &workload).run(RunOptions::default());

    println!("producer-consumer over 64 blocks, 16 processors\n");
    println!("                          base     with switch dirs");
    println!(
        "dirty reads (CtoC)     {:>7}              {:>7}",
        r_base.reads.dirty(),
        r_sd.reads.dirty()
    );
    println!(
        "  served by home       {:>7}              {:>7}",
        r_base.reads.ctoc_home, r_sd.reads.ctoc_home
    );
    println!(
        "  served by switches   {:>7}              {:>7}",
        r_base.reads.ctoc_switch, r_sd.reads.ctoc_switch
    );
    println!(
        "avg read latency       {:>7.1}              {:>7.1}   cycles",
        r_base.avg_read_latency(),
        r_sd.avg_read_latency()
    );
    println!(
        "execution time         {:>7}              {:>7}   cycles",
        r_base.cycles, r_sd.cycles
    );
    let gain = 100.0 * (1.0 - r_sd.avg_read_latency() / r_base.avg_read_latency());
    println!("\nswitch directories cut average read latency by {gain:.1}%");
}
