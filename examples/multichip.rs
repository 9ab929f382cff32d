//! Multi-device SHMEM (the paper's Section VI future work): one SHMEM
//! job spanning several simulated TILE-Gx chips connected by mPIPE
//! links, with the regime change between on-chip and cross-chip
//! communication made visible.
//!
//! ```text
//! cargo run --release --example multichip -- [chips] [pes_per_chip]
//! ```

use tshmem::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chips: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let per_chip: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    println!("SHMEM job across {chips} simulated TILE-Gx chips, {per_chip} PEs each");
    let cfg = RuntimeConfig::new(per_chip).with_partition_bytes(4 << 20);

    let out = Launcher::new(&cfg, MultiChipBackend { chips }).run(move |ctx| {
        let me = ctx.my_pe();
        let n = ctx.n_pes();
        let my_chip = me / per_chip;

        // Every PE contributes; the reduction spans all chips.
        let src = ctx.shmalloc::<i64>(1);
        let dst = ctx.shmalloc::<i64>(1);
        ctx.local_write(&src, 0, &[me as i64 + 1]);
        ctx.sum_to_all(&dst, &src, 1, ctx.world());
        let sum = ctx.local_read(&dst, 0, 1)[0];
        assert_eq!(sum, (n * (n + 1) / 2) as i64);

        // PE 0 measures intra- vs cross-chip put latency/bandwidth.
        let buf = ctx.shmalloc::<u64>(1 << 16);
        ctx.barrier_all();
        let mut report = None;
        if me == 0 && n > per_chip {
            let same_chip_peer = 1.min(n - 1);
            let cross_chip_peer = per_chip; // first PE of chip 1
            let sizes = [8usize, 4096, 512 * 1024];
            let mut rows = Vec::new();
            for &bytes in &sizes {
                let elems = (bytes / 8).max(1);
                let time_put = |peer: usize, ctx: &ShmemCtx| {
                    ctx.put_sym(&buf, 0, &buf, 0, elems, peer); // warm
                    let t0 = ctx.time_ns();
                    ctx.put_sym(&buf, 0, &buf, 0, elems, peer);
                    ctx.time_ns() - t0
                };
                let intra = time_put(same_chip_peer, ctx);
                let inter = time_put(cross_chip_peer, ctx);
                rows.push((bytes, intra, inter));
            }
            report = Some(rows);
        }
        ctx.barrier_all();
        (sum, my_chip, report)
    });

    println!(
        "global sum across chips: {} (simulated makespan {})",
        out.values[0].0, out.makespan
    );
    if let Some(rows) = &out.values[0].2 {
        println!("{:>10} {:>14} {:>14} {:>8}", "bytes", "intra-chip ns", "cross-chip ns", "ratio");
        for (b, intra, inter) in rows {
            println!("{b:>10} {intra:>14.0} {inter:>14.0} {:>8.1}", inter / intra);
        }
    }
    println!("multichip OK");
}
