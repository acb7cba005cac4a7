//! Strict input at the binaries' surface: every refusal by `dresar`,
//! `bench_report` or `dresar_diff` exits 2 with one `error[<code>]` line,
//! and a flag's value is never mistaken for the scale.

use std::process::{Command, Output};

fn dresar(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_dresar"), args)
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_refused(args: &[&str], code: &str) {
    assert_bin_refused(env!("CARGO_BIN_EXE_dresar"), args, code);
}

fn assert_bin_refused(bin: &str, args: &[&str], code: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed output before refusing");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("error[{code}]: ")), "{args:?}: {stderr}");
}

#[test]
fn each_error_code_exits_2_and_names_itself() {
    assert_refused(&["fig", "8", "tiny", "--jsn"], "unknown_field");
    assert_refused(&["scope-overhead", "tiny", "--repeats"], "bad_field");
    assert_refused(&["scope-overhead", "--max-overhead-pct", "lots"], "bad_field");
    assert_refused(&["probe", "huge"], "bad_scale");
    assert_refused(&["probe", "tiny", "--faults", "seed=x"], "bad_faults");
    assert_refused(&["fig1", "tiny"], "not_found");
    assert_refused(&["fig", "3"], "not_found");
    assert_refused(&[], "not_found");
}

#[test]
fn a_flag_from_another_subcommand_is_refused() {
    assert_refused(&["fig", "8", "--heatmap"], "unknown_field");
    assert_refused(&["params", "--json"], "unknown_field");
    assert_refused(&["ablations", "--emit-trace"], "unknown_field");
}

#[test]
fn flag_values_before_the_scale_are_not_read_as_the_scale() {
    let out = dresar(&["scope-overhead", "--repeats", "5", "tiny"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(doc.contains(r#""scale":"Tiny""#), "{doc}");
    assert!(doc.contains(r#""repeats":5"#), "{doc}");

    let out = dresar(&["probe", "--faults", "seed=7", "tiny"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.starts_with("scale = Tiny  (fault-injected; sd1024)"), "{table}");
}

#[test]
fn bench_report_and_dresar_diff_refuse_with_the_same_codes() {
    let report = env!("CARGO_BIN_EXE_bench_report");
    assert_bin_refused(report, &["tiny", "--sacling", "FIG.md"], "unknown_field");
    assert_bin_refused(report, &["tiny", "reduced"], "unknown_field");
    assert_bin_refused(report, &["tiny", "--tolerance", "lots"], "bad_field");
    assert_bin_refused(report, &["tiny", "--tolerance", "nan"], "bad_field");
    assert_bin_refused(report, &["tiny", "--out"], "bad_field");
    assert_bin_refused(report, &["--scaling", "--protocols", "FIG.md"], "bad_field");
    assert_bin_refused(report, &["huge"], "bad_scale");

    let diff = env!("CARGO_BIN_EXE_dresar_diff");
    assert_bin_refused(diff, &["a.json", "b.json", "--jsn"], "unknown_field");
    assert_bin_refused(diff, &["doc.json", "A", "B", "C"], "unknown_field");
    assert_bin_refused(diff, &["a.json"], "bad_field");
    assert_bin_refused(diff, &[], "bad_field");
}
