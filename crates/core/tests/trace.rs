//! The timed engine's operation trace: complete, ordered, and
//! deterministic.

use tshmem::prelude::*;
use tshmem::trace::{summarize, to_tsv, TraceKind};

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 14)
        .with_trace()
}

fn workload(ctx: &ShmemCtx) {
    let v = ctx.shmalloc::<u64>(256);
    ctx.put(&v, 0, &vec![1u64; 256], (ctx.my_pe() + 1) % ctx.n_pes());
    ctx.barrier_all();
    ctx.compute(5000.0);
    let d = ctx.shmalloc::<u64>(256);
    ctx.sum_to_all(&d, &v, 256, ctx.world());
}

#[test]
fn trace_captures_all_operation_kinds() {
    let out = Launcher::new(&cfg(3), TimedBackend).run(workload);
    let trace = out.trace.expect("trace enabled");
    assert!(!trace.is_empty());
    for kind in [
        TraceKind::Copy,
        TraceKind::UdnSend,
        TraceKind::Compute,
        TraceKind::Wait,
    ] {
        assert!(
            trace.iter().any(|e| e.kind == kind),
            "missing {kind:?} events"
        );
    }
    // Well-formed: end >= start, PEs valid, sorted by start.
    for e in &trace {
        assert!(e.end >= e.start);
        assert!(e.pe < 3);
    }
    for w in trace.windows(2) {
        assert!(w[0].start <= w[1].start, "events must be time-ordered");
    }
    // Every PE shows up.
    for pe in 0..3 {
        assert!(trace.iter().any(|e| e.pe == pe), "PE {pe} silent");
    }
}

#[test]
fn trace_is_deterministic() {
    let run = || {
        let out = Launcher::new(&cfg(3), TimedBackend).run(workload);
        out.trace
            .unwrap()
            .iter()
            .map(|e| (e.pe, e.kind.name(), e.start.ps(), e.end.ps(), e.bytes))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_summary_and_tsv() {
    let out = Launcher::new(&cfg(2), TimedBackend).run(workload);
    let trace = out.trace.unwrap();
    let tsv = to_tsv(&trace);
    assert!(tsv.lines().count() == trace.len() + 1);
    assert!(tsv.starts_with("start_ns"));
    let summary = summarize(&trace, 2);
    // Compute charge of 5000 cycles = 5 us per PE must appear.
    for (pe, s) in summary.iter().enumerate() {
        assert!(s["compute"] >= 5000.0, "pe {pe}: {s:?}");
    }
}

#[test]
fn disabled_trace_costs_nothing_and_returns_none() {
    let plain = RuntimeConfig::new(2).with_partition_bytes(1 << 20);
    let out = Launcher::new(&plain, TimedBackend).run(workload);
    assert!(out.trace.is_none());
    // And the virtual clocks are identical with tracing on (observing
    // must not perturb the simulation).
    let traced = Launcher::new(&cfg(2), TimedBackend).run(workload);
    assert_eq!(
        out.clocks.iter().map(|c| c.ps()).collect::<Vec<_>>(),
        traced.clocks.iter().map(|c| c.ps()).collect::<Vec<_>>()
    );
}
