//! Multichip liveness canaries: the drained-queue watchdog diagnoses a
//! mismatched cross-chip barrier with per-chip PE labels, and injected
//! mPIPE link faults are *caught* — corruption and replay by the
//! receiving link's CRC/sequence checks (panics naming the link), a
//! dropped control frame by the watchdog (report naming the installed
//! fault).
//!
//! One `#[test]` on purpose: fault plans are process-global state, so
//! the phases must run sequentially in one binary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tshmem::fault::{self, Fault, FaultPlan};
use tshmem::prelude::*;
use tshmem::TimedWatch;

fn cfg(pes_per_chip: usize) -> RuntimeConfig {
    RuntimeConfig::new(pes_per_chip)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
}

/// Two chips of `per_chip` PEs under the drained-queue watchdog.
fn two_chips_watched(per_chip: usize, watch: &Arc<TimedWatch>) -> Launcher<'static, MultiChipBackend> {
    Launcher::new(&cfg(per_chip), MultiChipBackend { chips: 2 })
        .with_watch(WatchPlane::Virtual(watch.clone()))
}

/// A small job whose first fabric activity crosses the chip boundary.
fn cross_chip_job(ctx: &ShmemCtx) {
    let v = ctx.shmalloc::<u64>(16);
    ctx.local_fill(&v, 0u64);
    ctx.barrier_all();
    if ctx.my_pe() == 0 {
        ctx.put(&v, 0, &[1u64, 2, 3, 4], ctx.n_pes() - 1);
    }
    ctx.barrier_all();
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("non-string panic payload")
    }
}

#[test]
fn link_faults_are_caught_and_cross_chip_stalls_carry_chip_labels() {
    // --- Corrupt: the receiving mPIPE's CRC check panics, naming the
    // link, the frame, and both checksums. ---
    fault::install(FaultPlan {
        seed: 0,
        faults: vec![Fault::CorruptLinkPacket { nth: 1 }],
    });
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Launcher::new(&cfg(2), MultiChipBackend { chips: 2 }).run(cross_chip_job);
    }))
    .expect_err("corrupted link frame must be caught");
    fault::clear();
    let msg = panic_text(payload);
    assert!(msg.contains("mPIPE link chip"), "link not named in: {msg}");
    assert!(msg.contains("CRC mismatch on frame"), "not a CRC catch: {msg}");

    // --- Duplicate: the replayed frame trips the sequence check. ---
    fault::install(FaultPlan {
        seed: 0,
        faults: vec![Fault::DuplicateLinkPacket { nth: 1 }],
    });
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Launcher::new(&cfg(2), MultiChipBackend { chips: 2 }).run(cross_chip_job);
    }))
    .expect_err("replayed link frame must be caught");
    fault::clear();
    let msg = panic_text(payload);
    assert!(msg.contains("mPIPE link chip"), "link not named in: {msg}");
    assert!(msg.contains("replayed frame"), "not a replay catch: {msg}");
    assert!(msg.contains("duplicate delivery"), "cause not spelled out: {msg}");

    // --- Drop: the first cross-chip frame is barrier protocol traffic;
    // dropping it wedges the receiver, the virtual event queue drains,
    // and the watchdog report names the installed fault. Runs twice:
    // virtual time makes the full diagnosis replay byte-identically. ---
    let drop_report = || {
        fault::install(FaultPlan {
            seed: 0,
            faults: vec![Fault::DropLinkPacket { nth: 1 }],
        });
        let watch = Arc::new(TimedWatch::new());
        let result = two_chips_watched(2, &watch).run_watched(cross_chip_job);
        fault::clear();
        match result {
            Ok(_) => panic!("dropped link frame was not caught"),
            Err(report) => report,
        }
    };
    let report = drop_report();
    assert!(
        report.contains("virtual event queue drained"),
        "watchdog header missing:\n{report}"
    );
    assert!(
        report.contains("per-PE stall diagnosis (4 PEs):"),
        "per-PE section missing:\n{report}"
    );
    assert!(
        report.contains("(chip 0)") && report.contains("(chip 1)"),
        "chip labels missing:\n{report}"
    );
    assert!(
        report.contains("active fault plan") && report.contains("DropLinkPacket(frame 1)"),
        "installed fault not named:\n{report}"
    );
    assert_eq!(report, drop_report(), "faulted multichip diagnosis must replay identically");

    // --- Mismatched cross-chip barrier, no faults installed: PE 4 (on
    // chip 1) skips the closing barrier; the diagnosis labels stalled
    // PEs on both chips and shows the bailed PE as finished. ---
    let watch = Arc::new(TimedWatch::new());
    let report = match two_chips_watched(3, &watch).run_watched(|ctx| {
        ctx.barrier_all();
        if ctx.my_pe() != 4 {
            ctx.barrier_all(); // PE 4 bails out instead
        }
    }) {
        Ok(_) => panic!("mismatched cross-chip barrier must be caught"),
        Err(report) => report,
    };
    assert!(
        report.contains("per-PE stall diagnosis (6 PEs):"),
        "per-PE section missing:\n{report}"
    );
    assert!(
        report.contains("PE 0 (chip 0)") && report.contains("PE 5 (chip 1)"),
        "stalled PEs not labeled per chip:\n{report}"
    );
    assert!(
        report.contains("PE 4 (chip 1)") && report.contains("finished"),
        "bailed PE not shown finished:\n{report}"
    );
    assert_eq!(watch.stall_report().as_deref(), Some(report.as_str()));
}
