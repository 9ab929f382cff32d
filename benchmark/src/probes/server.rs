//! The multi-tenant server: its lifetime, admission, and the same
//! closed-loop stream as `server_jobs` under both schedulers.

use std::time::Instant;

use tshmem::{JobSpec, RuntimeConfig, Server};

use super::{Host, Out};
use crate::stats::{median, median_ns};
use crate::workloads::server_jobs::{jobs, stream, ServerJobs};

pub fn run(h: &Host, out: &mut Out) {
    let (mut starts, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let server = Server::fair(ServerJobs::config());
        starts.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        server.shutdown();
        stops.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("server.start_ms".into(), median(&starts)));
    out.push(("server.shutdown_ms".into(), median(&stops)));

    let list = jobs(h.seed, 0x3d, 300);
    let server = Server::fair(ServerJobs::config());
    let noop = JobSpec::new(
        RuntimeConfig::new(2)
            .with_partition_bytes(256 * 1024)
            .with_private_bytes(64 * 1024)
            .with_temp_bytes(16 * 1024),
        |_| {},
    );
    // Admission alone, then the whole life of a job that does nothing.
    let mut submits = Vec::new();
    let ms = median_ns(5, 10, || {
        let t0 = Instant::now();
        let handle = server.submit(noop.clone()).expect("idle server admits");
        submits.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(handle.wait().outcome.is_completed(), "no-op job completes");
    }) / 1e6;
    out.push(("server.submit_us".into(), median(&submits)));
    out.push(("server.noop_job_ms".into(), ms));

    let mut latencies_ms = Vec::with_capacity(list.len());
    let t0 = Instant::now();
    let failed = stream(&server, &list, |r| {
        latencies_ms.push(r.latency.as_secs_f64() * 1e3)
    });
    let rate = list.len() as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(failed, 0, "probe jobs complete");
    out.push(("server.jobs_per_s".into(), rate));
    latencies_ms.sort_by(f64::total_cmp);
    out.push((
        "server.job_p90_ms".into(),
        latencies_ms[latencies_ms.len() * 9 / 10],
    ));
    let s = server.shutdown();
    let arenas = (s.arenas_fresh + s.arenas_recycled).max(1);
    out.push((
        "server.arena_recycled_frac".into(),
        s.arenas_recycled as f64 / arenas as f64,
    ));
    out.push((
        "server.rejected_frac".into(),
        s.rejected as f64 / (s.submitted + s.rejected).max(1) as f64,
    ));
    out.push(("server.retries".into(), s.retries as f64));

    let server = Server::round_robin(ServerJobs::config());
    let t0 = Instant::now();
    stream(&server, &list, |_| {});
    out.push((
        "server.jobs_per_s_rr".into(),
        list.len() as f64 / t0.elapsed().as_secs_f64(),
    ));
    server.shutdown();
}
