//! Timed-engine deadlock canary: wedge a virtual-time job and assert
//! the desim scheduler's deadlock detector fires **the instant the
//! event queue drains**, with the attached [`tshmem::TimedWatch`]
//! rendering the same per-PE diagnosis the native watchdog produces.
//!
//! Under virtual time there is no wall clock to stall, so the
//! `JobWatch` approach cannot work; the scheduler itself is the
//! watchdog. The canary reuses the `set_blocking_protocol_sends` fault
//! hook (the PR-1 pre-fix send path) so the wedged PE's barrier traffic
//! takes the credit-blocked bounded-queue path of the timed engine, and
//! wedges PE 0 with a deliberately mismatched extra barrier: PE 0 parks
//! in the barrier recv forever while every other LP finishes.
//!
//! Own test binary: the fault flag is process-global.

use std::sync::Arc;

use tshmem::prelude::*;
use tshmem::TimedWatch;

#[test]
fn desim_watchdog_catches_timed_deadlock_and_names_the_parked_pe() {
    tshmem::fault::set_blocking_protocol_sends(true);
    let cfg = RuntimeConfig::new(4)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 16)
        .with_bounded_udn(1);
    let watch = Arc::new(TimedWatch::new());
    let launcher = Launcher::new(&cfg, TimedBackend).with_watch(WatchPlane::Virtual(watch.clone()));
    let result = launcher.run_watched(|ctx| {
        ctx.barrier_all();
        // Deliberate bug: PE 0 joins a barrier no other PE runs. Its
        // extra invocation collides with the other PEs' finalize-time
        // ring barrier (both are each PE's second barrier), so the whole
        // job wedges mid-protocol — the virtual event queue drains with
        // every LP parked in a barrier recv.
        if ctx.my_pe() == 0 {
            ctx.barrier_dissemination_explicit(ctx.world());
        }
    });
    tshmem::fault::set_blocking_protocol_sends(false);

    let Err(report) = result else {
        panic!("mismatched barrier did not deadlock the timed engine");
    };
    assert!(
        report.contains("timed watchdog: virtual event queue drained with unfinished LPs parked"),
        "missing timed watchdog header:\n{report}"
    );
    assert!(report.contains("per-PE stall diagnosis (4 PEs)"), "missing diagnosis:\n{report}");
    // Every PE is parked in the barrier-queue recv and named with its
    // coop channel and virtual clock.
    for pe in 0..4 {
        assert!(report.contains(&format!("PE {pe}: recv(q0)")), "PE {pe} missing:\n{report}");
    }
    assert!(report.contains("parked on ch0 @"), "no parked channel/clock in:\n{report}");
    // Service contexts are probed separately, idle in their recv loops.
    assert!(report.contains("PE 0 svc: recv(q3)"), "service probe missing:\n{report}");
    assert!(report.contains("parked on ch3"), "service park missing:\n{report}");
    // Useful-work counters rendered (spins stay zero: parked, not spinning).
    assert!(report.contains("useful="), "no counters in:\n{report}");
    // The stored report is also available through the watch handle.
    assert_eq!(watch.stall_report().as_deref(), Some(report.as_str()));
}
