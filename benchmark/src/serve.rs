//! `serve-mix`: an in-process `Server` driven by a closed loop of two
//! client connections through three phases — cold executions, LRU hits,
//! and disk hits after a restart.

use crate::sim::digest52;
use crate::stats::{
    calibration_kernel, calibration_scale, median, nearest_rank, sleep_probe, sorted,
    tail_percentile, SLEEP_NOMINAL_S,
};
use crate::{Ctx, Outcome};
use dresar_obs::{MetricValue, MetricsRegistry};
use dresar_server::{post_run, HttpResponse, Server, ServerConfig};
use dresar_types::{JsonValue, RunSpec, ToJson};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Engine workers and client connections: one each per core of the
/// reference host.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const LRU_ENTRIES: usize = 64;
/// LRU hits cycle over this many of the most recently executed specs.
const HOT_SPECS: usize = 32;
/// Requests per measured second in each phase: with the acceptor's 10 ms
/// poll and two connections the three phases take about that long.
const COLD_PER_S: usize = 20;
const HITS_PER_S: usize = 80;
const DISK_PER_S: usize = 80;
/// Warm restarts on the populated store; the median of their calibrated
/// times is `setup_s`.
const RESTARTS: usize = 25;
/// Cold bodies also computed without the server, to check what it serves.
const DIRECT_CHECKS: usize = 4;

/// Scratch directory, relative to the working directory, that holds each
/// run's result store while it runs.
const RUN_DIR: &str = ".bench_run";

const KINDS: [&str; 7] = ["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"];
const SD_SIZES: [Option<u32>; 5] = [None, Some(256), Some(512), Some(1024), Some(2048)];

/// One answered request.
struct Reply {
    spec: usize,
    latency_us: f64,
    response: std::io::Result<HttpResponse>,
}

/// The distinct tiny specs the mix requests. Workloads and directory sizes
/// cycle in a fixed order, so every seed serves the same amount of
/// simulation; the spec seed folds in `seed` (which the commercial trace
/// generators use) and the index, so every digest differs.
fn specs(seed: u64, count: usize) -> Vec<RunSpec> {
    (0..count)
        .map(|i| RunSpec {
            workload: KINDS[i % KINDS.len()].to_string(),
            sd_entries: SD_SIZES[i / KINDS.len() % SD_SIZES.len()],
            seed: ((seed & 0xFFFF_FFFF) << 12) | i as u64,
            ..RunSpec::default()
        })
        .collect()
}

/// Sends `bodies[order[k]]` for every k from [`CLIENTS`] connections, each
/// waiting for its reply before sending the next request.
fn drive(addr: &str, bodies: &[String], order: &[usize]) -> Vec<Reply> {
    let cursor = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(order.len()));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = order.get(k) else { return };
                let t = Instant::now();
                let response = post_run(addr, &bodies[spec]);
                let latency_us = t.elapsed().as_secs_f64() * 1e6;
                replies.lock().expect("no client panics holding the lock").push(Reply {
                    spec,
                    latency_us,
                    response,
                });
            });
        }
    });
    replies.into_inner().expect("no client panics holding the lock")
}

fn start(store: &Path, cache_entries: usize) -> Server {
    let cfg = ServerConfig {
        workers: WORKERS,
        cache_entries,
        store_dir: Some(store.to_path_buf()),
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", cfg).expect("bind a loopback port")
}

fn counter(reg: &MetricsRegistry, name: &str) -> f64 {
    match reg.get(name) {
        Some(MetricValue::Counter(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Simulated references behind one served report: retired references for
/// an execution-driven report, misses plus hits plus writes for a
/// trace-driven one.
fn report_refs(body: &str) -> Option<f64> {
    let doc = JsonValue::parse(body).ok()?;
    let report = doc.get("report")?;
    if let Some(refs) = report.get("refs_executed").and_then(JsonValue::as_f64) {
        return Some(refs);
    }
    let reads = report.get("reads")?;
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64);
    Some(
        field(reads, "clean")?
            + field(reads, "ctoc_home")?
            + field(reads, "ctoc_switch")?
            + field(report, "read_hits")?
            + field(report, "writes")?,
    )
}

pub fn measure(ctx: &Ctx) -> Outcome {
    let seconds = ctx.seconds.round().max(1.0) as usize;
    let cold = COLD_PER_S * seconds;
    let specs = specs(ctx.seed, cold);
    let bodies: Vec<String> = specs.iter().map(|s| s.to_json().dump()).collect();
    let store = PathBuf::from(RUN_DIR).join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // Warm-up: one request on a throwaway memory-only server.
    let warm =
        Server::start("127.0.0.1:0", ServerConfig { workers: WORKERS, ..Default::default() })
            .expect("bind a loopback port");
    let _ = post_run(&warm.local_addr().to_string(), &RunSpec::default().to_json().dump());
    warm.shutdown();

    // Wall seconds of the cold, hit and disk phases.
    let mut phase_s = [0.0; 3];
    let mut served_refs = 0.0;
    let mut cold_bodies: Vec<Option<String>> = vec![None; cold];
    let mut refs_of = vec![0.0; cold];

    // The phases wait mostly on the acceptor's sleep-based poll, so their
    // wall time is rescaled by how long a 10 ms sleep takes around them.
    let sleep_before = sleep_probe();

    // Phase 1: every spec once, executed.
    let server = start(&store, LRU_ENTRIES);
    let addr = server.local_addr().to_string();
    let order: Vec<usize> = (0..cold).collect();
    let t = Instant::now();
    let replies = drive(&addr, &bodies, &order);
    phase_s[0] = t.elapsed().as_secs_f64();
    let (mut cold_ms, mut queue_us, mut exec_us, mut overhead_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in replies {
        let Ok(resp) = r.response else {
            check(false);
            continue;
        };
        let digest_ok = JsonValue::parse(&resp.body).ok().and_then(|d| {
            d.get("digest").and_then(JsonValue::as_str).map(|h| h == specs[r.spec].digest_hex())
        });
        let q = resp.header_u64("X-Dresar-Queue-Us");
        let e = resp.header_u64("X-Dresar-Exec-Us");
        let refs = report_refs(&resp.body);
        let ok = resp.status == 200
            && resp.header("X-Dresar-Cache") == Some("miss")
            && digest_ok == Some(true)
            && q.is_some()
            && e.is_some()
            && refs.is_some();
        check(ok);
        if ok {
            let (q, e) = (q.unwrap_or(0) as f64, e.unwrap_or(0) as f64);
            cold_ms.push(r.latency_us / 1e3);
            queue_us.push(q);
            exec_us.push(e);
            overhead_us.push(r.latency_us - q - e);
            refs_of[r.spec] = refs.unwrap_or(0.0);
            served_refs += refs_of[r.spec];
            cold_bodies[r.spec] = Some(resp.body);
        }
    }
    for i in 0..DIRECT_CHECKS.min(cold) {
        let direct = dresar_server::validate(&specs[i]).ok().and_then(|v| v.execute().ok());
        check(direct.is_some() && direct == cold_bodies[i]);
    }

    // Later phases must return the cold body byte for byte, from `tier`.
    let mut replay = |replies: Vec<Reply>, tier: &str, lat: &mut Vec<f64>, refs: &mut f64| {
        for r in replies {
            let ok = r.response.as_ref().is_ok_and(|resp| {
                resp.status == 200
                    && resp.header("X-Dresar-Cache") == Some(tier)
                    && cold_bodies[r.spec].as_deref() == Some(resp.body.as_str())
            });
            check(ok);
            if ok {
                lat.push(r.latency_us);
                *refs += refs_of[r.spec];
            }
        }
    };

    // Phase 2: LRU hits over the most recent specs.
    let hot = HOT_SPECS.min(cold);
    let order: Vec<usize> = (0..HITS_PER_S * seconds).map(|k| cold - hot + k % hot).collect();
    let t = Instant::now();
    let replies = drive(&addr, &bodies, &order);
    phase_s[1] = t.elapsed().as_secs_f64();
    let mut hit_us = Vec::new();
    replay(replies, "hit", &mut hit_us, &mut served_refs);
    let mut registries = vec![server.metrics()];
    server.shutdown();

    // Restarts on the populated store with a one-entry LRU, so that every
    // request in phase 3 is answered from disk.
    let mut setup_s = Vec::new();
    let mut server = None;
    let before = calibration_kernel();
    for _ in 0..RESTARTS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        server = Some(start(&store, 1));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let scale = calibration_scale(before, calibration_kernel());
    setup_s.iter_mut().for_each(|s| *s *= scale);
    let server = server.expect("RESTARTS is nonzero");
    let addr = server.local_addr().to_string();

    // Phase 3: disk hits cycling every spec.
    let order: Vec<usize> = (0..DISK_PER_S * seconds).map(|k| k % cold).collect();
    let t = Instant::now();
    let replies = drive(&addr, &bodies, &order);
    phase_s[2] = t.elapsed().as_secs_f64();
    let mut disk_us = Vec::new();
    replay(replies, "disk", &mut disk_us, &mut served_refs);
    registries.push(server.metrics());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
    // Removes the scratch directory too once no other run is using it.
    let _ = std::fs::remove_dir(RUN_DIR);
    let sleep_scale = SLEEP_NOMINAL_S / ((sleep_before + sleep_probe()) / 2.0);

    let mut detail = JsonValue::obj()
        .field("phase_s", phase_s.to_vec())
        .field("sleep_scale", sleep_scale)
        .field("setup_s_samples", setup_s.clone());
    let mut m = BTreeMap::new();
    m.insert(
        "sim_refs_per_s".to_string(),
        served_refs / (phase_s.iter().sum::<f64>() * sleep_scale),
    );
    m.insert("setup_s".into(), median(&setup_s));
    for (phase, unit, samples) in
        [("cold", "ms", &cold_ms), ("hit", "us", &hit_us), ("disk", "us", &disk_us)]
    {
        let s = sorted(samples);
        // The tail is the highest percentile with ten samples beyond it:
        // p95 of the cold phase and p99 of the others at the default length.
        let tail = tail_percentile(s.len()).unwrap_or(100.0);
        let at = |p| if s.is_empty() { 0.0 } else { nearest_rank(&s, p) };
        m.insert(format!("serve.{phase}_p50_{unit}"), at(50.0));
        m.insert(format!("serve.{phase}_tail_{unit}"), at(tail));
        detail = detail
            .field(&format!("{phase}_samples"), s.len() as u64)
            .field(&format!("{phase}_tail_percentile"), tail);
    }
    m.insert("serve.queue_us_p50".into(), median(&queue_us));
    m.insert("serve.exec_us_p50".into(), median(&exec_us));
    m.insert("serve.overhead_us_p50".into(), median(&overhead_us));
    for name in [
        "serve.executions",
        "serve.cache_hits",
        "serve.store_hits",
        "serve.coalesced",
        "serve.shed",
    ] {
        m.insert(name.into(), registries.iter().map(|r| counter(r, name)).sum());
    }
    let all_bodies: String = cold_bodies.iter().flatten().map(String::as_str).collect();
    m.insert("model.digest".into(), digest52(all_bodies.as_bytes()));
    Outcome { metrics: m, attempted, failed, detail: detail.build() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_distinct_and_seeded() {
        let a = specs(7, 240);
        let digests: std::collections::BTreeSet<u64> = a.iter().map(RunSpec::digest).collect();
        assert_eq!(digests.len(), 240, "every spec must have its own digest");
        assert_eq!(a, specs(7, 240), "the same seed gives the same specs");
        assert_ne!(a, specs(8, 240));
    }
}
