//! Every name the benchmark prints, in one place: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics with the
//! end-to-end metric and workload each should move. `BENCHMARK.json` is
//! [`manifest_json`] of these tables; a test holds the two together.

use crate::json::quote;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    /// Epochs per second of `--seconds` on the host the sizes were set
    /// on: the duration argument changes the epoch count and nothing else.
    pub epochs_per_s: f64,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this layer metric should
    /// move. Empty for a metric that only attributes or guards.
    pub moves: &'static [(&'static str, &'static str)],
}

/// How long one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "rma_native",
        why: "native engine, 2 PEs: seeded put/get/strided/nbi/signal/atomic stream at 64 B to 16 MiB; the data plane does all the work and collectives none",
        epochs_per_s: 2.4,
    },
    WorkloadInfo {
        name: "coll_flat32",
        why: "coop engine, 32 PEs on 1 worker: barrier/reduce/broadcast/fcollect/alltoall round at the flat default algorithms; RMA bytes are negligible",
        epochs_per_s: 2.2,
    },
    WorkloadInfo {
        name: "coll_hier256",
        why: "coop engine, 256 PEs on 4 workers: the same round past the 64-PE auto-upgrade, so a threshold change that helps one scale and hurts the other shows",
        epochs_per_s: 1.6,
    },
    WorkloadInfo {
        name: "fft2d_app",
        why: "native engine, 2 PEs: the paper's 2D-FFT case study; the apps kernel dominates, so a data-plane or scheduler change should predict no change here",
        epochs_per_s: 2.0,
    },
    WorkloadInfo {
        name: "timed_paper",
        why: "timed engine, TILE-Gx36, 36 PEs: the paper-figure program; same library code as coll_flat32, so a simulator change moves only this one",
        epochs_per_s: 1.9,
    },
    WorkloadInfo {
        name: "server_jobs",
        why: "fair server, 2 slots, 5 tenants, 80/20 mix of 2-PE and 8-PE jobs: launch/teardown, arena recycling and admission dominate",
        epochs_per_s: 1.6,
    },
];

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

const LO: &str = "lower";
const HI: &str = "higher";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:expr) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: &[] }
    };
    ($name:literal, $unit:literal, $better:expr, $($m:literal @ $w:literal),+) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: &[$(($m, $w)),+] }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    // substrate
    layer!("substrate.channel.pingpong_ns", "ns", LO, "op_us" @ "coll_flat32", "solve_s" @ "server_jobs"),
    layer!("substrate.channel.send_recv_ns", "ns", LO, "op_us" @ "coll_flat32", "solve_s" @ "server_jobs"),
    layer!("substrate.sync.mutex_ns", "ns", LO, "op_us" @ "coll_flat32", "solve_s" @ "server_jobs"),
    // tmc
    layer!("tmc.common.copy_gbps_4k", "GB/s", HI, "solve_s" @ "rma_native", "op_us" @ "rma_native"),
    layer!("tmc.common.copy_gbps_16m", "GB/s", HI, "solve_s" @ "rma_native"),
    layer!("tmc.barrier.spin_ns", "ns", LO, "solve_s" @ "fft2d_app"),
    layer!("tmc.barrier.sync_ns", "ns", LO, "solve_s" @ "fft2d_app"),
    // udn
    layer!("udn.fabric.pingpong_ns", "ns", LO, "op_us" @ "coll_flat32", "solve_s" @ "rma_native"),
    layer!("udn.fabric.send_recv_ns", "ns", LO, "op_us" @ "coll_flat32", "solve_s" @ "rma_native"),
    // simulator substrate
    layer!("cachesim.memsys.copy_ns_per_kib", "ns", LO, "solve_s" @ "timed_paper"),
    layer!("desim.events.per_s_1k", "1/s", HI, "solve_s" @ "timed_paper"),
    layer!("desim.events.per_s_16k", "1/s", HI, "solve_s" @ "timed_paper"),
    layer!("desim.events.heap_per_s_1k", "1/s", HI),
    layer!("desim.coop.handoff_ns", "ns", LO, "solve_s" @ "timed_paper", "op_us" @ "timed_paper"),
    // heap
    layer!("heap.alloc_free_ns", "ns", LO, "setup_s" @ "rma_native"),
    layer!("heap.shmalloc_free_us", "us", LO, "setup_s" @ "rma_native", "setup_s" @ "coll_flat32"),
    // rma
    layer!("rma.put_dyn_ns_64", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.get_dyn_ns_64", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.put_dyn_ns_4k", "ns", LO, "solve_s" @ "rma_native", "op_us" @ "rma_native"),
    layer!("rma.get_dyn_ns_4k", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.put_dyn_gbps_16m", "GB/s", HI, "solve_s" @ "rma_native"),
    layer!("rma.get_dyn_gbps_16m", "GB/s", HI, "solve_s" @ "rma_native"),
    layer!("rma.put_static_us_4k", "us", LO, "solve_s" @ "rma_native"),
    layer!("rma.get_static_us_4k", "us", LO, "solve_s" @ "rma_native"),
    layer!("rma.put_ss_us_4k", "us", LO, "solve_s" @ "rma_native"),
    layer!("rma.iput_s2_ns_4k", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.iget_s2_ns_4k", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.nbi_train_us", "us", LO, "solve_s" @ "rma_native"),
    layer!("rma.put_signal_rtt_ns", "ns", LO, "solve_s" @ "rma_native"),
    layer!("rma.copy_efficiency_16m", "ratio", HI, "solve_s" @ "rma_native"),
    layer!("rma.redirected_frac", "frac", LO, "solve_s" @ "rma_native"),
    layer!("rma.locality_hit_frac", "frac", HI),
    // atomics
    layer!("atomics.fadd_ns", "ns", LO, "solve_s" @ "rma_native"),
    layer!("atomics.cswap_ns", "ns", LO, "solve_s" @ "rma_native"),
    // sync
    layer!("sync.barrier_ns_2pe", "ns", LO, "solve_s" @ "fft2d_app"),
    layer!("sync.lock_ns", "ns", LO),
    layer!("sync.quiet_ns", "ns", LO, "solve_s" @ "rma_native"),
    layer!("sync.fence_ns", "ns", LO),
    layer!("sync.wait_until_ns", "ns", LO, "solve_s" @ "rma_native"),
    layer!("sync.barrier_ring_us_32", "us", LO, "op_us" @ "coll_flat32"),
    layer!("sync.barrier_dissem_us_32", "us", LO, "op_us" @ "coll_flat32"),
    layer!("sync.barrier_hier_us_32", "us", LO, "op_us" @ "coll_flat32"),
    layer!("sync.barrier_ring_us_256", "us", LO, "op_us" @ "coll_hier256"),
    layer!("sync.barrier_dissem_us_256", "us", LO, "op_us" @ "coll_hier256"),
    layer!("sync.barrier_hier_us_256", "us", LO, "op_us" @ "coll_hier256"),
    layer!("sync.barrier_ms_1024", "ms", LO),
    layer!("sync.udn_sends_per_barrier_32", "count", LO, "op_us" @ "coll_flat32"),
    layer!("sync.udn_sends_per_barrier_256", "count", LO, "op_us" @ "coll_hier256"),
    // collectives
    layer!("collectives.reduce_naive_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.reduce_rd_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.reduce_hier_us_256", "us", LO, "solve_s" @ "coll_hier256"),
    layer!("collectives.bcast_pull_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.bcast_push_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.bcast_binomial_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.bcast_hier_us_256", "us", LO, "solve_s" @ "coll_hier256"),
    layer!("collectives.fcollect_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.fcollect_us_256", "us", LO, "solve_s" @ "coll_hier256"),
    layer!("collectives.alltoall_us_32", "us", LO, "solve_s" @ "coll_flat32"),
    layer!("collectives.reduce_ms_1024", "ms", LO),
    layer!("collectives.reduce_over_barrier_256", "ratio", LO, "solve_s" @ "coll_hier256"),
    // engine
    layer!("engine.native.launch_us", "us", LO, "setup_s" @ "rma_native", "setup_s" @ "fft2d_app"),
    layer!("engine.coop.launch_ms_32", "ms", LO, "setup_s" @ "coll_flat32"),
    layer!("engine.coop.launch_ms_256", "ms", LO, "setup_s" @ "coll_hier256"),
    layer!("engine.timed.launch_ms_36", "ms", LO, "setup_s" @ "timed_paper"),
    layer!("engine.coop.handoff_same_ns", "ns", LO, "op_us" @ "coll_flat32"),
    layer!("engine.coop.handoff_cross_ns", "ns", LO, "op_us" @ "coll_hier256"),
    layer!("engine.coop.locality_speedup_256", "ratio", HI, "op_us" @ "coll_hier256"),
    layer!("engine.coop.unpinned_ratio_32", "ratio", LO),
    layer!("engine.coop.workers_resolved", "count", HI),
    layer!("engine.timed.cyclebox_over_ed", "ratio", LO),
    layer!("engine.peak_rss_mib", "MiB", LO),
    // timed engine: simulated (exact) results and their attribution
    layer!("timed.sim_makespan_ps", "sim_ps", LO),
    layer!("timed.sim_clock_hash", "hash32", LO),
    layer!("trace.sim_copy_s", "sim_s", LO),
    layer!("trace.sim_wait_s", "sim_s", LO),
    layer!("trace.sim_udn_send_s", "sim_s", LO),
    // server
    layer!("server.start_ms", "ms", LO, "setup_s" @ "server_jobs"),
    layer!("server.shutdown_ms", "ms", LO, "setup_s" @ "server_jobs"),
    layer!("server.submit_us", "us", LO, "solve_s" @ "server_jobs"),
    layer!("server.noop_job_ms", "ms", LO, "op_us" @ "server_jobs", "solve_s" @ "server_jobs"),
    layer!("server.jobs_per_s", "1/s", HI, "solve_s" @ "server_jobs"),
    layer!("server.jobs_per_s_rr", "1/s", HI),
    layer!("server.job_p90_ms", "ms", LO, "solve_s" @ "server_jobs"),
    layer!("server.arena_recycled_frac", "frac", HI, "solve_s" @ "server_jobs"),
    layer!("server.rejected_frac", "frac", LO, "solve_s" @ "server_jobs"),
    layer!("server.retries", "count", LO, "solve_s" @ "server_jobs"),
    // apps
    layer!("apps.fft1d_us_1024", "us", LO, "solve_s" @ "fft2d_app"),
    layer!("apps.fft2d_serial_s", "s", LO, "solve_s" @ "fft2d_app"),
    layer!("apps.fft2d_nbi_s", "s", LO),
    layer!("apps.fft2d_blocking_s", "s", LO),
    layer!("apps.par_efficiency", "ratio", HI, "solve_s" @ "fft2d_app"),
    // the traced run's own spans
    layer!("span.engine.self_s", "s", LO),
    layer!("span.heap.self_s", "s", LO),
    layer!("span.rma.self_s", "s", LO),
    layer!("span.atomics.self_s", "s", LO),
    layer!("span.sync.self_s", "s", LO),
    layer!("span.collectives.self_s", "s", LO),
    layer!("span.apps.self_s", "s", LO),
    layer!("span.server.self_s", "s", LO),
    layer!("span.attributed_frac", "frac", HI),
    layer!("trace.span_overhead_ratio", "ratio", LO),
    layer!("trace.with_trace_ratio", "ratio", LO),
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
