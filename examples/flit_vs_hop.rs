//! Fidelity cross-check: push the same message batch through the cycle-
//! accurate flit-level network and the fast hop-level model, and compare
//! delivered latencies.
//!
//! Run with: `cargo run --release --example flit_vs_hop`

use dresar_interconnect::{routes, Bmin, FlitNetwork, HopNetwork};
use dresar_obs::NullProbe;
use dresar_types::config::SystemConfig;
use dresar_types::msg::MsgType;

fn main() {
    let bmin = Bmin::new(16, 4);
    let cfg = SystemConfig::paper_table2().switch;

    // A batch of requests: every processor sends a 1-flit read request to
    // a rotating memory, plus a 5-flit reply coming back.
    let mut flit = FlitNetwork::new(bmin, cfg);
    let mut hop = HopNetwork::new(cfg, 16);

    let mut hop_latencies = Vec::new();
    for (id, p) in (0..16u8).enumerate() {
        let id = id as u64;
        let m = (p + 5) % 16;
        let req = routes::forward(&bmin, p, m);
        let rep = routes::backward(&bmin, m, p);

        flit.inject(id, &req, 1).expect("route fits the network");
        flit.inject(id + 100, &rep, 5).expect("route fits the network");

        // Hop model: walk the same routes.
        for (route, flits, kind) in
            [(&req, 1u32, MsgType::ReadRequest), (&rep, 5u32, MsgType::ReadReply)]
        {
            let mut t = 0;
            for i in 0..=route.switch_hops() {
                if i > 0 {
                    t += hop.core_delay();
                }
                t = hop.traverse_link(route.link(i), t, flits, kind, &mut NullProbe);
            }
            hop_latencies.push(t + hop.tail_lag(flits));
        }
    }

    let deliveries = flit.run_until_drained(1_000_000);
    assert_eq!(deliveries.len(), 32, "all messages must deliver");
    let flit_avg: f64 =
        deliveries.iter().map(|d| d.at as f64).sum::<f64>() / deliveries.len() as f64;
    let hop_avg: f64 =
        hop_latencies.iter().map(|&t| t as f64).sum::<f64>() / hop_latencies.len() as f64;

    println!("flit-level average delivery time : {flit_avg:.1} cycles");
    println!("hop-level  average delivery time : {hop_avg:.1} cycles");
    println!("ratio                            : {:.2}x", flit_avg / hop_avg);
    println!(
        "\nThe hop model tracks the cycle-accurate network within a small factor\n\
         under light load; the full-system sweeps use it for speed while the\n\
         flit model backs the switch microbenchmarks."
    );
}
