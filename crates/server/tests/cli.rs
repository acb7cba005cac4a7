//! Strict input at the serve binaries' surface: `dresar_serve` and
//! `dresar_client` refuse a bad command line as `dresar` does, with exit
//! status 2 and one `error[<code>]` line, before serving or connecting.

use std::process::Command;

fn assert_refused(bin: &str, args: &[&str], code: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed output before refusing");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("error[{code}]: ")), "{args:?}: {stderr}");
}

#[test]
fn dresar_serve_refuses_bad_input_with_error_codes() {
    let serve = env!("CARGO_BIN_EXE_dresar_serve");
    assert_refused(serve, &["--adr", "127.0.0.1:0"], "unknown_field");
    assert_refused(serve, &["--workers"], "bad_field");
    assert_refused(serve, &["--addr", "--workers", "2"], "bad_field");
    assert_refused(serve, &["--queue-depth", "-1"], "bad_field");
    assert_refused(serve, &["--max-deadline-ms", "0"], "bad_field");
    assert_refused(serve, &["--chaos", "panic_nth"], "bad_faults");
    assert_refused(serve, &["--chaos", "seed=1,bogus=2"], "bad_faults");
}

#[test]
fn dresar_client_refuses_bad_input_with_error_codes() {
    let client = env!("CARGO_BIN_EXE_dresar_client");
    assert_refused(client, &["--requets", "1"], "unknown_field");
    assert_refused(client, &["--requests"], "bad_field");
    assert_refused(client, &["--concurrency", "many"], "bad_field");
    assert_refused(client, &["--frames", "--watch"], "bad_field");
}
