//! Microbenchmarks of the path from a traced run's report to JSON bytes:
//! escaping a trace-sized string (what `json::write_str` still does for
//! every other string), and `to_json().dump()` of a traced tiny FFT run
//! and of the fft-observed benchmark workload's run (4K-point FFT, every
//! observer on), whose trace is escaped straight into the dumped bytes.

use dresar::system::{RunOptions, System};
use dresar_bench::harness::{bench, black_box};
use dresar_bench::suite;
use dresar_obs::{ObserverConfig, DEFAULT_ATTRIB_WINDOW};
use dresar_types::{JsonValue, SystemConfig, ToJson};
use dresar_workloads::{scientific, Scale};

/// About the size of the fft-observed benchmark workload's trace document.
const TRACE_BYTES: usize = 100 << 20;

fn main() {
    let fft = suite(Scale::Tiny).into_iter().find(|b| b.label == "FFT").expect("suite has FFT");
    let observers = ObserverConfig { trace: true, ..ObserverConfig::default() };
    let report = fft
        .run(Some(1024), RunOptions { observers, ..RunOptions::default() })
        .execution()
        .expect("FFT is execution-driven");
    let document = report.obs.as_ref().and_then(|o| o.trace.as_ref()).expect("traced").document();

    let big = JsonValue::Str(document.repeat(TRACE_BYTES.div_ceil(document.len())));
    bench(&format!("report_json/escape_{}MB_trace", TRACE_BYTES >> 20), || {
        black_box(big.dump().len());
    });
    drop(big);
    bench("report_json/traced_tiny_fft_report", || {
        black_box(report.to_json().dump().len());
    });

    let observers = ObserverConfig::all(DEFAULT_ATTRIB_WINDOW);
    let observed = System::new(SystemConfig::paper_table2(), &scientific::fft(16, 4 * 1024))
        .run(RunOptions { observers, ..RunOptions::default() });
    bench("report_json/observed_fft4k_report", || {
        black_box(observed.to_json().dump().len());
    });
}
