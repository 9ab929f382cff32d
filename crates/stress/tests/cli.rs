//! CLI-level regression tests for the replay binary, run against the
//! real compiled executable (`CARGO_BIN_EXE_stress`), so flag parsing
//! and the parse-time validation/auto-sizing rules are covered exactly
//! as a user invokes them — not through a reimplementation of argv.

use std::process::Command;

fn stress_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stress"))
}

/// `--engine coop` without `--workers` used to hand the backend a zero;
/// now parse_args resolves a sane M itself, names the flag in a hint,
/// and the run completes. A tiny 2-PE case keeps this fast.
#[test]
fn coop_without_workers_auto_sizes_and_completes() {
    let out = stress_bin()
        .args(["--engine", "coop", "--seed", "0x7", "--case", "1", "--pes", "2"])
        .output()
        .expect("failed to spawn stress binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "coop run without --workers failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The auto-size announcement must name the flag the user should
    // pass to pin the choice, and state the resolved worker count.
    assert!(
        stderr.contains("--workers") && stderr.contains("auto-sized the coop worker pool"),
        "auto-size hint missing from stderr:\n{stderr}"
    );
    // The replay hint must bake in the *resolved* M, never `--workers 0`.
    assert!(
        !stdout.contains("--workers 0") && !stderr.contains("--workers 0"),
        "replay hint leaked an unresolved --workers 0:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("completed"),
        "run did not report oracle-checked completion:\n{stdout}"
    );
}

/// An explicit `--workers M` must be respected verbatim: no auto-size
/// chatter, and the hint echoes the pinned M.
#[test]
fn coop_with_explicit_workers_is_not_overridden() {
    let out = stress_bin()
        .args(["--engine", "coop", "--workers", "2", "--seed", "0x7", "--case", "1", "--pes", "2"])
        .output()
        .expect("failed to spawn stress binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "pinned coop run failed:\n{stdout}\n{stderr}");
    assert!(
        !stderr.contains("auto-sized"),
        "explicit --workers 2 still triggered the auto-size path:\n{stderr}"
    );
}

/// The multichip odd-PE rejection is also parse-time validation; pin it
/// here so the error keeps naming the offending flag and value.
#[test]
fn multichip_rejects_odd_pe_count_at_parse_time() {
    let out = stress_bin()
        .args(["--engine", "multichip", "--pes", "3"])
        .output()
        .expect("failed to spawn stress binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "odd multichip PE count was accepted");
    assert!(
        stderr.contains("--pes 3 is odd"),
        "rejection does not name the bad value:\n{stderr}"
    );
    // Parse-time means no program was generated before the rejection.
    assert!(!stderr.contains("seed="), "program generation ran before validation:\n{stderr}");
}
