//! Cross-checks the hop-level latency model against the cycle-accurate
//! flit-level network (DESIGN.md: "an integration test cross-checks their
//! latency agreement on small message batches").

use dresar_obs::NullProbe;
use dresar_workspace::interconnect::{routes, Bmin, FlitNetwork, HopNetwork};
use dresar_workspace::types::config::SystemConfig;
use dresar_workspace::types::msg::MsgType;

fn hop_latency(hop: &mut HopNetwork, route: &routes::Route, flits: u32, start: u64) -> u64 {
    let mut t = start;
    for (i, &link) in route.links.iter().enumerate() {
        if i > 0 {
            t += hop.core_delay();
        }
        t = hop.traverse_link(link, t, flits, MsgType::ReadRequest, &mut NullProbe);
    }
    t + hop.tail_lag(flits)
}

#[test]
fn uncontended_latencies_agree_exactly() {
    let bmin = Bmin::new(16, 4);
    let cfg = SystemConfig::paper_table2().switch;
    for (p, m, flits) in [(0u8, 15u8, 1u32), (3, 9, 5), (12, 0, 5), (7, 7, 1)] {
        let route = routes::forward(&bmin, p, m);
        let mut flit = FlitNetwork::new(bmin, cfg);
        flit.inject(1, &route, flits).expect("route fits the network");
        let d = flit.run_until_drained(100_000);
        assert_eq!(d.len(), 1);

        let mut hop = HopNetwork::new(cfg, 16);
        let expect = hop_latency(&mut hop, &route, flits, 0);
        let got = d[0].at;
        let err = got.abs_diff(expect);
        assert!(
            err <= 2 * cfg.link_cycles_per_flit as u64,
            "({p},{m},{flits} flits): flit {got} vs hop {expect}"
        );
    }
}

#[test]
fn light_load_batch_agrees_within_tolerance() {
    let bmin = Bmin::new(16, 4);
    let cfg = SystemConfig::paper_table2().switch;
    let mut flit = FlitNetwork::new(bmin, cfg);
    let mut hop = HopNetwork::new(cfg, 16);

    let mut hop_total = 0u64;
    for p in 0..16u8 {
        let m = (p + 3) % 16;
        let route = routes::forward(&bmin, p, m);
        flit.inject(p as u64, &route, 5).expect("route fits the network");
        hop_total += hop_latency(&mut hop, &route, 5, 0);
    }
    let d = flit.run_until_drained(1_000_000);
    assert_eq!(d.len(), 16, "no deadlock");
    let flit_total: u64 = d.iter().map(|x| x.at).sum();

    let ratio = flit_total as f64 / hop_total as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "hop model diverges from flit model: ratio {ratio:.2} (flit {flit_total}, hop {hop_total})"
    );
}

#[test]
fn contention_appears_in_both_models() {
    // Four processors hammer one memory: both models must show the
    // serialization on the shared ejection link.
    let bmin = Bmin::new(16, 4);
    let cfg = SystemConfig::paper_table2().switch;

    let mut flit = FlitNetwork::new(bmin, cfg);
    let mut hop = HopNetwork::new(cfg, 16);
    let mut hop_last = 0u64;
    for p in 0..4u8 {
        let route = routes::forward(&bmin, p, 8);
        flit.inject(p as u64, &route, 5).expect("route fits the network");
        hop_last = hop_last.max(hop_latency(&mut hop, &route, 5, 0));
    }
    let d = flit.run_until_drained(1_000_000);
    let flit_last = d.iter().map(|x| x.at).max().unwrap();

    // Uncontended single-message time for comparison.
    let mut solo_hop = HopNetwork::new(cfg, 16);
    let solo = hop_latency(&mut solo_hop, &routes::forward(&bmin, 0, 8), 5, 0);

    assert!(flit_last > solo + 20, "flit model must show queueing ({flit_last} vs solo {solo})");
    assert!(hop_last > solo + 20, "hop model must show queueing ({hop_last} vs solo {solo})");
}
