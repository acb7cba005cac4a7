//! A tour of the BMIN topology (the paper's Figure 3): switch identities,
//! routes, turnaround behaviour, and a demonstration of the switch-
//! directory placement invariant that makes the protocol correct.
//!
//! Run with: `cargo run --release --example topology_tour`

use dresar_interconnect::routes;
use dresar_interconnect::Bmin;

fn main() {
    // 16 nodes with radix-4 ("8x8") switches: 2 stages of 4 switches,
    // exactly the paper's evaluation network.
    let bmin = Bmin::new(16, 4);
    println!(
        "BMIN: {} nodes, radix {}, {} stages x {} switches",
        bmin.nodes(),
        bmin.radix(),
        bmin.stages(),
        bmin.switches_per_stage()
    );

    // A request from processor 6 to the memory of node 9.
    let fwd = routes::forward(&bmin, 6, 9);
    println!("\nforward route P6 -> M9:");
    for hop in fwd.hops() {
        match hop.switch {
            Some(sw) => {
                println!("  {:?} -> switch(stage {}, index {})", hop.link, sw.stage, sw.index)
            }
            None => println!("  {:?} -> memory 9", hop.link),
        }
    }

    // Cache-to-cache data from processor 6 to processor 13 turns around.
    let p2p = routes::proc_to_proc(&bmin, 6, 13, 0).expect("fixed demonstration route");
    println!("\nprocessor-to-processor route P6 -> P13 (turnaround):");
    for hop in p2p.hops() {
        match hop.switch {
            Some(sw) => {
                println!("  {:?} -> switch(stage {}, index {})", hop.link, sw.stage, sw.index)
            }
            None => println!("  {:?} -> processor 13", hop.link),
        }
    }

    // The placement invariant: every switch on the owner->home path can
    // route a switch-generated CtoC request down to the owner, and the
    // owner's copyback re-traverses exactly those switches.
    println!("\nplacement invariant check over all (owner, home) pairs:");
    let mut checked = 0;
    for owner in 0..16u8 {
        for home in 0..16u8 {
            for sw in bmin.path_switches(owner, home) {
                assert!(bmin.reaches_down(sw, owner), "switch {sw:?} cannot reach owner {owner}");
                checked += 1;
            }
        }
    }
    println!("  {checked} (switch, owner) pairs verified: every entry can re-route to its owner");

    // Same machine with "4x4" (radix-2) switches: 4 stages.
    let deep = Bmin::new(16, 2);
    println!(
        "\nwith 4x4 switches: {} stages x {} switches ({} total switch directories)",
        deep.stages(),
        deep.switches_per_stage(),
        deep.total_switches()
    );
}
