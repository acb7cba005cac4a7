//! Order statistics and host-speed calibration.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the calibration kernel takes on the reference host (a 2-vCPU
/// Xeon VM). Every simulator timing is rescaled to this host speed.
pub const CAL_NOMINAL_S: f64 = 0.37;

/// Wall seconds of a 10 ms sleep on the reference host when its vCPUs are
/// not descheduled.
pub const SLEEP_NOMINAL_S: f64 = 0.01008;

/// Percentiles considered for a distribution's tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples a tail percentile must leave beyond itself to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in (0, 100]) of `sorted`, which must be
/// sorted ascending and nonempty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact product such as 99.9% of 10000 from
    // rounding up a rank through floating-point fuzz.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it among `n`, or `None` when even p90 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)`. A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    if s.len() < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `values` sorted ascending (NaN-free input assumed: every sample is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Factor that rescales a duration measured between two calibration
/// kernels that took `before` and `after` seconds to the nominal host.
pub fn calibration_scale(before: f64, after: f64) -> f64 {
    CAL_NOMINAL_S / ((before + after) / 2.0)
}

/// Runs the fixed calibration kernel and returns its wall seconds. It
/// depends on nothing in the repository, so a code change never moves it;
/// only the host's speed does. Its time splits about 60/40 between
/// register-resident integer work and heap push/pop plus hash-map updates
/// over about a million keys: the simulators slow down both with the
/// core's speed and with contention for the shared cache and memory, and
/// a kernel of either kind alone tracks them less closely. The hasher has
/// fixed keys so every run does the same probes.
pub fn calibration_kernel() -> f64 {
    const ALU_STEPS: u64 = 100_000_000;
    const KEYS: u64 = 1 << 20;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for i in 0..ALU_STEPS {
        acc = acc.wrapping_add(next().rotate_left((i & 63) as u32));
    }
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default());
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    for i in 0..KEYS {
        let k = next();
        *map.entry(k % KEYS).or_insert(0) += i;
        heap.push(k >> 16);
        if heap.len() >= 1 << 16 {
            for _ in 0..1 << 15 {
                black_box(heap.pop());
            }
        }
    }
    black_box((acc, map.len(), heap.len()));
    t0.elapsed().as_secs_f64()
}

/// Mean wall seconds of forty 10 ms sleeps. When the hypervisor
/// deschedules the VM's vCPUs, sleeps overshoot, and so does every wait on
/// a sleep-based poll; this measures by how much.
pub fn sleep_probe() -> f64 {
    const SLEEPS: u32 = 40;
    let t0 = Instant::now();
    for _ in 0..SLEEPS {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    t0.elapsed().as_secs_f64() / f64::from(SLEEPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 99.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(240), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calibration_rescales_to_the_nominal_host() {
        // A host running the kernel at exactly nominal speed changes nothing.
        assert_eq!(calibration_scale(CAL_NOMINAL_S, CAL_NOMINAL_S), 1.0);
        // A host twice as slow halves every measured duration.
        assert_eq!(calibration_scale(2.0 * CAL_NOMINAL_S, 2.0 * CAL_NOMINAL_S), 0.5);
        // The two brackets are averaged: 0.2 s and 0.4 s mean 0.3 s.
        let s = calibration_scale(0.2, 0.4);
        assert!((s - CAL_NOMINAL_S / 0.3).abs() < 1e-12);
    }
}
