//! The timed engine: what the simulator costs the host, and what the
//! simulated hardware did (exact; it must not move when the simulator
//! gets faster).

use std::time::Instant;

use tshmem::trace::summarize;
use tshmem::{Launcher, RuntimeConfig, TimedBackend, TimedMode};

use super::{Host, Out};
use crate::stats::median_ns;
use crate::workloads::timed_paper::TimedPaper;

pub fn run(h: &Host, out: &mut Out) {
    let npes = if h.quick { 6 } else { 36 };
    let cfg = RuntimeConfig::new(npes).with_partition_bytes(1 << 20);
    let ms = median_ns(3, 1, || {
        Launcher::new(&cfg, TimedBackend).run(|ctx| std::hint::black_box(ctx.my_pe()));
    }) / 1e6;
    out.push(("engine.timed.launch_ms_36".into(), ms));

    // Host time per simulated barrier under the two scheduling disciplines.
    let iters = h.n(1000).min(40);
    let barrier_ns = |mode| {
        let found = Launcher::new(&cfg.with_timed_mode(mode), TimedBackend).run(|ctx| {
            ctx.barrier_all();
            let t0 = Instant::now();
            for _ in 0..iters {
                ctx.barrier_all();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        });
        found.values.into_iter().fold(0.0, f64::max)
    };
    let ed = barrier_ns(TimedMode::EventDriven);
    out.push((
        "engine.timed.cyclebox_over_ed".into(),
        barrier_ns(TimedMode::cycle_box()) / ed,
    ));

    // The timed_paper program once more with the engine's trace on.
    let w = TimedPaper::new(h.seed, h.quick);
    let (makespan_ps, clock_fold, events) = w.simulate_traced();
    out.push(("timed.sim_makespan_ps".into(), makespan_ps as f64));
    // 32 bits of the fold, so the value survives a trip through f64.
    out.push((
        "timed.sim_clock_hash".into(),
        ((clock_fold >> 32) ^ (clock_fold & 0xffff_ffff)) as f64,
    ));
    let per_pe = summarize(&events, w.npes());
    let total_s = |kind: &str| per_pe.iter().filter_map(|m| m.get(kind)).sum::<f64>() / 1e9;
    out.push(("trace.sim_copy_s".into(), total_s("copy")));
    out.push(("trace.sim_wait_s".into(), total_s("wait")));
    out.push(("trace.sim_udn_send_s".into(), total_s("udn_send")));
}
