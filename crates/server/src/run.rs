//! Turning a validated [`RunSpec`] into a served JSON document.
//!
//! Validation is split from execution on purpose: the server validates
//! *before* admission (so malformed requests are rejected instantly with a
//! structured error and never occupy a queue slot or an engine worker), and
//! executes only specs that are guaranteed to configure cleanly. The
//! workload, its simulator and the run itself come from the evaluation
//! harness ([`dresar_bench::CATALOGUE`], [`dresar_bench::run`]), so a served
//! report is exactly the report `dresar` computes for the same machine.
//!
//! The served body is the existing report document — an
//! [`dresar::system::ExecutionReport`] for the five scientific workloads
//! (execution-driven, Table 2) or a [`dresar_trace_sim::TraceReport`] for
//! the two commercial traces (trace-driven, Table 3) — wrapped in the
//! workspace's standard schema-versioned envelope together with the spec
//! echo and its digest. Bodies are fully deterministic (host profiling is
//! never included), which is what lets the cache serve them byte-identical
//! to a fresh run.

use crate::error::ServeError;
use dresar::system::RunOptions;
use dresar_bench::{
    catalogue_entry, fault_options, paper_machine, run, CatalogueEntry, Driver, RunReport,
    CATALOGUE,
};
use dresar_faults::FaultPlan;
use dresar_types::config::SystemConfig;
use dresar_types::{Protocol, RunSpec, ToJson};
use dresar_workloads::Scale;

/// A spec that passed every admission-time check and is ready to execute.
#[derive(Debug, Clone)]
pub struct ValidatedSpec {
    spec: RunSpec,
    entry: &'static CatalogueEntry,
    scale: Scale,
    cfg: SystemConfig,
    faults: Option<FaultPlan>,
}

/// Checks everything about a spec that can fail, mapping each failure to
/// its distinct machine-readable [`ServeError`].
pub fn validate(spec: &RunSpec) -> Result<ValidatedSpec, ServeError> {
    let entry = catalogue_entry(&spec.workload).ok_or_else(|| {
        let labels: Vec<&str> = CATALOGUE.iter().map(|e| e.label).collect();
        ServeError::BadWorkload(format!(
            "unknown workload '{}'; expected {}",
            spec.workload,
            labels.join("|")
        ))
    })?;
    let scale = Scale::parse(&spec.scale).ok_or_else(|| {
        ServeError::BadScale(format!("unknown scale '{}'; expected tiny|reduced|paper", spec.scale))
    })?;
    let cfg = SystemConfig {
        nodes: spec.nodes as usize,
        protocol: spec.protocol.unwrap_or_default(),
        ..paper_machine(spec.sd_entries)
    };
    if let Some(sd) = &cfg.switch_dir {
        sd.validate().map_err(ServeError::BadSdSize)?;
    }
    let trace_driven = entry.driver == Driver::Trace;
    if trace_driven && cfg.protocol != Protocol::Msi {
        return Err(ServeError::BadField(format!(
            "workload '{}' is trace-driven (constant-latency model, MSI only; \
             protocol '{}' needs the execution-driven simulator)",
            spec.workload, cfg.protocol
        )));
    }
    // The full config check (node count vs switch radix, cache geometry)
    // runs against the simulator the workload will actually use.
    entry.driver.validate(&cfg).map_err(ServeError::BadTopology)?;
    let faults = match &spec.faults {
        None => None,
        Some(plan) if trace_driven => {
            return Err(ServeError::FaultsUnsupported(format!(
                "workload '{}' is trace-driven (constant-latency model, no message system to \
                 inject '{plan}' into)",
                spec.workload
            )));
        }
        Some(plan) => Some(
            FaultPlan::parse(plan)
                .map_err(|e| ServeError::BadFaults(format!("bad fault plan '{plan}': {e}")))?,
        ),
    };
    Ok(ValidatedSpec { spec: spec.clone(), entry, scale, cfg, faults })
}

impl ValidatedSpec {
    /// The underlying request.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Runs the simulation and serializes the complete response body
    /// (trailing newline included). Deterministic: equal specs produce
    /// byte-identical bodies.
    pub fn execute(&self) -> Result<String, ServeError> {
        self.execute_full(false).map(|out| out.body)
    }

    /// [`ValidatedSpec::execute`] plus the observability side channels:
    /// the flight-recorder dump when the run was anomalous, and — when
    /// `traced` — the simulator's Chrome-trace document, pulled out of the
    /// report so the body itself stays identical to an untraced run.
    pub fn execute_full(&self, traced: bool) -> Result<ExecOutput, ServeError> {
        let workload = self.entry.workload(self.spec.nodes as usize, self.scale, self.spec.seed);
        let mut options = self.faults.map_or_else(RunOptions::default, fault_options);
        options.observers.trace = traced;
        let mut report = run(self.entry.driver, &workload, self.cfg, options);
        let mut flight = None;
        let mut trace = None;
        if let RunReport::Execution(r) = &mut report {
            if let Some(obs) = r.obs.as_mut() {
                flight = obs.flight.as_ref().map(|f| f.to_json().dump());
                trace = obs.trace.take().map(|t| t.document());
                if obs.is_empty() {
                    r.obs = None;
                }
            }
        }
        let driver = match self.entry.driver {
            Driver::Execution => "execution",
            Driver::Trace => "trace",
        };
        let mut body = dresar_bench::json_doc("dresar-serve")
            .field("digest", self.spec.digest_hex().as_str())
            .field("driver", driver)
            .field("spec", self.spec.to_json())
            .field("report", report.to_json())
            .build()
            .dump();
        body.push('\n');
        Ok(ExecOutput { body, flight, trace })
    }
}

/// Everything one execution yields beyond its serialized body.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The complete response body (trailing newline included).
    pub body: String,
    /// Serialized flight-recorder dump, present when the run was anomalous
    /// (watchdog trip, coherence failure, lost messages, sim errors).
    pub flight: Option<String>,
    /// The simulator's Chrome-trace event document, present when tracing
    /// was requested (execution-driven workloads only — the trace-driven
    /// model has no message system to trace).
    pub trace: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        let v = validate(&RunSpec::default()).expect("default spec is servable");
        assert_eq!(v.entry.label, "FFT");
        assert_eq!(v.scale, Scale::Tiny);
    }

    #[test]
    fn each_semantic_failure_gets_its_own_code() {
        let cases: Vec<(RunSpec, &str)> = vec![
            (RunSpec { workload: "LINPACK".into(), ..RunSpec::default() }, "bad_workload"),
            (RunSpec { scale: "huge".into(), ..RunSpec::default() }, "bad_scale"),
            (RunSpec { nodes: 12, ..RunSpec::default() }, "bad_topology"),
            (RunSpec { sd_entries: Some(100), ..RunSpec::default() }, "bad_sd_size"),
            (RunSpec { faults: Some("warp=9".into()), ..RunSpec::default() }, "bad_faults"),
            (
                RunSpec {
                    workload: "TPC-C".into(),
                    faults: Some("drop_ppm=10".into()),
                    ..RunSpec::default()
                },
                "faults_unsupported",
            ),
        ];
        for (spec, code) in cases {
            let err = validate(&spec).expect_err("spec must be rejected");
            assert_eq!(err.code(), code, "spec {spec:?}");
        }
    }

    #[test]
    fn protocol_threads_through_and_trace_driven_rejects() {
        let spec = RunSpec { protocol: Some(dresar_types::Protocol::Mesi), ..RunSpec::default() };
        validate(&spec).expect("execution-driven spec accepts a protocol override");

        let trace = RunSpec {
            workload: "TPC-C".into(),
            protocol: Some(dresar_types::Protocol::Mesi),
            ..RunSpec::default()
        };
        let err = validate(&trace).expect_err("trace-driven spec must reject non-MSI protocols");
        assert_eq!(err.code(), "bad_field");

        let trace_msi = RunSpec {
            workload: "TPC-C".into(),
            protocol: Some(dresar_types::Protocol::Msi),
            ..RunSpec::default()
        };
        validate(&trace_msi).expect("explicit MSI matches the trace-driven default");
    }

    #[test]
    fn execution_is_deterministic_per_digest() {
        let spec = RunSpec { sd_entries: Some(256), ..RunSpec::default() };
        let a = validate(&spec).unwrap().execute().unwrap();
        let b = validate(&spec).unwrap().execute().unwrap();
        assert_eq!(a, b, "equal specs must serialize byte-identically");
        let doc = dresar_types::JsonValue::parse(&a).unwrap();
        assert_eq!(
            doc.get("digest").and_then(dresar_types::JsonValue::as_str),
            Some(spec.digest_hex().as_str())
        );
        assert!(doc.get("report").and_then(|r| r.get("cycles")).is_some());
    }

    #[test]
    fn served_reports_equal_the_harness_runs() {
        for bench in dresar_bench::suite(Scale::Tiny) {
            for sd_entries in [None, Some(1024)] {
                let spec =
                    RunSpec { workload: bench.label.into(), sd_entries, ..RunSpec::default() };
                let body = validate(&spec).unwrap().execute().unwrap();
                let served = dresar_types::JsonValue::parse(&body).unwrap();
                let harness = bench.run(sd_entries, RunOptions::default()).to_json();
                assert_eq!(
                    served.get("report").map(dresar_types::JsonValue::dump),
                    Some(harness.dump()),
                    "{} at sd {sd_entries:?}",
                    bench.label
                );
            }
        }
    }

    #[test]
    fn trace_driven_workloads_serve_trace_reports() {
        let spec = RunSpec { workload: "TPC-C".into(), ..RunSpec::default() };
        let body = validate(&spec).unwrap().execute().unwrap();
        let doc = dresar_types::JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("driver").and_then(dresar_types::JsonValue::as_str), Some("trace"));
        assert!(doc.get("report").and_then(|r| r.get("exec_cycles")).is_some());
    }
}
