//! Microbenchmarks of the switch-directory device: the SRAM array and the
//! Figure 4 FSM, at the paper's operating points.

use dresar::switchdir::{NullProbe, PortScheduler, SnoopAction, SwitchDirectory, SwitchLoc};
use dresar_bench::harness::{bench, black_box};
use dresar_types::config::SwitchDirConfig;
use dresar_types::msg::{Endpoint, Message, MsgType};
use dresar_types::BlockAddr;

fn msg(kind: MsgType, block: u64, requester: u8) -> Message {
    Message::new(
        0,
        kind,
        BlockAddr(block),
        Endpoint::Proc(requester),
        Endpoint::Mem(0),
        requester,
        0,
    )
}

fn snoop(sd: &mut SwitchDirectory, m: &mut Message) -> SnoopAction {
    sd.snoop(m, SwitchLoc::default(), 0, &mut NullProbe)
}

fn bench_snoop() {
    for entries in [256u32, 1024, 2048] {
        let cfg = SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() };

        {
            let mut sd = SwitchDirectory::new(cfg);
            let mut i = 0u64;
            bench(&format!("switchdir_snoop/write_reply_insert_{entries}"), || {
                let mut m = msg(MsgType::WriteReply, i % (entries as u64 * 4), (i % 16) as u8);
                i += 1;
                black_box(snoop(&mut sd, &mut m));
            });
        }

        {
            let mut sd = SwitchDirectory::new(cfg);
            for blk in 0..(entries as u64 / 2) {
                snoop(&mut sd, &mut msg(MsgType::WriteReply, blk, 1));
            }
            let mut i = 0u64;
            bench(&format!("switchdir_snoop/read_hit_{entries}"), || {
                let blk = i % (entries as u64 / 2);
                i += 1;
                let mut rd = msg(MsgType::ReadRequest, blk, 2);
                let act = snoop(&mut sd, &mut rd);
                // Clean up the transient so the hit repeats.
                let mut cb = msg(MsgType::CopyBack, blk, 1);
                snoop(&mut sd, &mut cb);
                snoop(&mut sd, &mut msg(MsgType::WriteReply, blk, 1));
                black_box(act);
            });
        }

        {
            let mut sd = SwitchDirectory::new(cfg);
            let mut i = 0u64;
            bench(&format!("switchdir_snoop/read_miss_{entries}"), || {
                let mut rd = msg(MsgType::ReadRequest, 1_000_000 + i, 2);
                i += 1;
                black_box(snoop(&mut sd, &mut rd));
            });
        }
    }
}

/// Snoops read hits round-robin across 256 full directories of 2048
/// entries, sor256's machine: the arrays do not fit in the host's caches, so
/// the bytes an entry takes show up in the time a snoop takes.
fn bench_machine_scale() {
    const SWITCHES: u64 = 256;
    const ENTRIES: u64 = 2048;
    let cfg = SwitchDirConfig { entries: ENTRIES as u32, ..SwitchDirConfig::paper_default() };
    let mut sds: Vec<SwitchDirectory> = (0..SWITCHES).map(|_| SwitchDirectory::new(cfg)).collect();
    for sd in &mut sds {
        for blk in 0..ENTRIES {
            snoop(sd, &mut msg(MsgType::WriteReply, blk, 1));
        }
    }
    let mut i = 0u64;
    bench(&format!("switchdir_snoop/read_hit_{SWITCHES}x{ENTRIES}"), || {
        let sd = &mut sds[(i % SWITCHES) as usize];
        // A Fibonacci-hashed block per visit scatters the sets touched.
        let blk = (i / SWITCHES).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53;
        i += 1;
        let act = snoop(sd, &mut msg(MsgType::ReadRequest, blk, 2));
        // Clean up the transient so the hit repeats.
        snoop(sd, &mut msg(MsgType::CopyBack, blk, 1));
        snoop(sd, &mut msg(MsgType::WriteReply, blk, 1));
        black_box(act);
    });
}

fn bench_port_scheduler() {
    use MsgType::*;
    let batch8 = [
        ReadRequest,
        WriteRequest,
        WriteReply,
        ReadRequest,
        WriteBack,
        CopyBack,
        CtoCRequest,
        Retry,
    ];
    let s = PortScheduler::paper_8x8();
    bench("port_scheduler_8x8_window", || {
        black_box(s.schedule(black_box(&batch8)));
    });
}

fn main() {
    bench_snoop();
    bench_machine_scale();
    bench_port_scheduler();
}
