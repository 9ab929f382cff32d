//! Native-engine RMA tests: every put/get form and all four address
//! classes of paper Section IV-B.

use tshmem::prelude::*;
use tshmem::runtime::launch;

fn cfg(npes: usize) -> RuntimeConfig {
    RuntimeConfig::new(npes)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 18)
        .with_temp_bytes(1 << 12)
}

#[test]
fn ring_put_delivers_to_neighbor() {
    let n = 4;
    let out = launch(&cfg(n), |ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<u64>(8);
        let next = (me + 1) % ctx.n_pes();
        let payload: Vec<u64> = (0..8).map(|i| (me * 100 + i) as u64).collect();
        ctx.put(&buf, 0, &payload, next);
        ctx.barrier_all();
        let prev = (me + ctx.n_pes() - 1) % ctx.n_pes();
        let got = ctx.local_read(&buf, 0, 8);
        assert_eq!(got[0], (prev * 100) as u64);
        assert_eq!(got[7], (prev * 100 + 7) as u64);
        got[0]
    });
    assert_eq!(out.len(), n);
}

#[test]
fn get_reads_remote_partition() {
    launch(&cfg(3), |ctx| {
        let me = ctx.my_pe();
        let buf = ctx.shmalloc::<f64>(16);
        let vals: Vec<f64> = (0..16).map(|i| me as f64 + i as f64 * 0.5).collect();
        ctx.local_write(&buf, 0, &vals);
        ctx.barrier_all();
        for pe in 0..ctx.n_pes() {
            let mut got = vec![0.0f64; 16];
            ctx.get(&mut got, &buf, 0, pe);
            assert_eq!(got[0], pe as f64);
            assert_eq!(got[2], pe as f64 + 1.0);
        }
    });
}

#[test]
fn elemental_p_and_g() {
    launch(&cfg(2), |ctx| {
        let v = ctx.shmalloc::<i32>(4);
        if ctx.my_pe() == 0 {
            ctx.p(&v, 2, -42, 1);
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            assert_eq!(ctx.local_read(&v, 2, 1)[0], -42);
        }
        // g from the other side.
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            assert_eq!(ctx.g(&v, 2, 1), -42);
        }
    });
}

#[test]
fn strided_iput_iget() {
    launch(&cfg(2), |ctx| {
        let v = ctx.shmalloc::<u32>(16);
        ctx.local_fill(&v, 0);
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            // Write 1,2,3,4 to indices 0,3,6,9 on PE 1.
            ctx.iput(&v, 0, 3, &[1, 2, 3, 4], 1, 4, 1);
            ctx.quiet();
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            let all = ctx.local_read(&v, 0, 16);
            assert_eq!(all[0], 1);
            assert_eq!(all[3], 2);
            assert_eq!(all[6], 3);
            assert_eq!(all[9], 4);
            assert_eq!(all[1], 0);
        }
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            let mut out = [0u32; 4];
            ctx.iget(&mut out, 1, &v, 0, 3, 4, 1);
            assert_eq!(out, [1, 2, 3, 4]);
        }
    });
}

#[test]
fn all_four_address_classes_roundtrip() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let n = 256usize;
        let dynv = ctx.shmalloc::<u64>(n);
        let statv = ctx.static_sym::<u64>(n);
        // Seed both with per-PE patterns.
        let pat: Vec<u64> = (0..n).map(|i| (me as u64) << 32 | i as u64).collect();
        ctx.local_write(&dynv, 0, &pat);
        ctx.local_write(&statv, 0, &pat);
        ctx.barrier_all();

        let other = 1 - me;
        if me == 0 {
            // dynamic-dynamic put: our dyn -> their dyn.
            let scratch = ctx.shmalloc::<u64>(n);
            ctx.put_sym(&scratch, 0, &dynv, 0, n, other);
            // dynamic-static put: our static -> their dyn... target dyn, source static.
            let scratch2 = ctx.shmalloc::<u64>(n);
            ctx.put_sym(&scratch2, 0, &statv, 0, n, other);
            // static-dynamic put: our dyn -> their STATIC (redirected).
            let stat2 = ctx.static_sym::<u64>(n);
            ctx.put_sym(&stat2, 0, &dynv, 0, n, other);
            // static-static put (temp-assisted).
            let stat3 = ctx.static_sym::<u64>(n);
            ctx.put_sym(&stat3, 0, &statv, 0, n, other);
            ctx.quiet();
            ctx.barrier_all();
            ctx.barrier_all(); // let PE 1 verify
        } else {
            let scratch = ctx.shmalloc::<u64>(n);
            let scratch2 = ctx.shmalloc::<u64>(n);
            let stat2 = ctx.static_sym::<u64>(n);
            let stat3 = ctx.static_sym::<u64>(n);
            ctx.barrier_all();
            let expect: Vec<u64> = (0..n).map(|i| i as u64).collect(); // PE 0's pattern
            assert_eq!(ctx.local_read(&scratch, 0, n), expect, "dd put");
            assert_eq!(ctx.local_read(&scratch2, 0, n), expect, "ds put");
            assert_eq!(ctx.local_read(&stat2, 0, n), expect, "sd put (redirected)");
            assert_eq!(ctx.local_read(&stat3, 0, n), expect, "ss put (temp)");
            ctx.barrier_all();
        }

        // And the four get classes, pulled by PE 1 from PE 0.
        ctx.barrier_all();
        if me == 1 {
            let tgt_dyn = ctx.shmalloc::<u64>(n);
            let tgt_stat = ctx.static_sym::<u64>(n);
            let expect: Vec<u64> = (0..n).map(|i| i as u64).collect();
            // dd get
            ctx.get_sym(&tgt_dyn, 0, &dynv, 0, n, 0);
            assert_eq!(ctx.local_read(&tgt_dyn, 0, n), expect, "dd get");
            // static target, dynamic source: direct
            ctx.get_sym(&tgt_stat, 0, &dynv, 0, n, 0);
            assert_eq!(ctx.local_read(&tgt_stat, 0, n), expect, "sd get");
            // dynamic target, static source: redirected
            ctx.local_fill(&tgt_dyn, 0);
            ctx.get_sym(&tgt_dyn, 0, &statv, 0, n, 0);
            assert_eq!(ctx.local_read(&tgt_dyn, 0, n), expect, "ds get (redirected)");
            // static-static get (temp-assisted)
            ctx.local_fill(&tgt_stat, 0);
            ctx.get_sym(&tgt_stat, 0, &statv, 0, n, 0);
            assert_eq!(ctx.local_read(&tgt_stat, 0, n), expect, "ss get (temp)");
            assert!(ctx.stats().redirected >= 2, "redirections must have happened");
        } else {
            let _ = ctx.shmalloc::<u64>(n);
            let _ = ctx.static_sym::<u64>(n);
        }
        ctx.barrier_all();
    });
}

#[test]
fn static_transfers_larger_than_temp_chunk() {
    // Temp is 4 kB in this config; move 40 kB through it.
    launch(&cfg(2), |ctx| {
        let n = 5 * 1024usize; // u64s -> 40 kB
        let statv = ctx.static_sym::<u64>(n);
        let me = ctx.my_pe();
        let pat: Vec<u64> = (0..n).map(|i| (me as u64 + 1) * 1_000_000 + i as u64).collect();
        ctx.local_write(&statv, 0, &pat);
        ctx.barrier_all();
        if me == 0 {
            let mut got = vec![0u64; n];
            ctx.get(&mut got, &statv, 0, 1);
            assert_eq!(got[0], 2_000_000);
            assert_eq!(got[n - 1], 2_000_000 + n as u64 - 1);
        }
        ctx.barrier_all();
    });
}

#[test]
fn put_to_self_and_get_from_self() {
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let v = ctx.shmalloc::<i64>(4);
        let s = ctx.static_sym::<i64>(4);
        ctx.put(&v, 0, &[9, 8, 7, 6], me);
        ctx.put(&s, 0, &[1, 2, 3, 4], me);
        assert_eq!(ctx.g(&v, 1, me), 8);
        assert_eq!(ctx.g(&s, 3, me), 4);
        ctx.barrier_all();
    });
}

#[test]
fn shmem_ptr_classification() {
    launch(&cfg(2), |ctx| {
        let v = ctx.shmalloc::<u32>(1);
        let s = ctx.static_sym::<u32>(1);
        assert!(ctx.ptr(&v, 0).is_some());
        assert!(ctx.ptr(&v, 1).is_some());
        assert!(ctx.ptr(&s, ctx.my_pe()).is_some());
        assert!(ctx.ptr(&s, 1 - ctx.my_pe()).is_none());
        ctx.barrier_all();
    });
}

#[test]
fn realloc_and_free_cycle() {
    launch(&cfg(2), |ctx| {
        let v = ctx.shmalloc::<u32>(8);
        ctx.local_write(&v, 0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let v2 = ctx.shrealloc(v, 1024);
        assert_eq!(ctx.local_read(&v2, 0, 4), vec![1, 2, 3, 4]);
        ctx.shfree(v2);
        // The heap is whole again: a big allocation succeeds.
        let big = ctx.try_shmalloc::<u8>(900 * 1024).expect("heap should be coalesced");
        ctx.shfree(big);
    });
}

#[test]
fn stats_count_operations() {
    launch(&cfg(2), |ctx| {
        let v = ctx.shmalloc::<u64>(4);
        ctx.p(&v, 0, 1, 1 - ctx.my_pe());
        let _ = ctx.g(&v, 0, 1 - ctx.my_pe());
        ctx.barrier_all();
        let st = ctx.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 1);
        assert_eq!(st.put_bytes, 8);
        assert!(st.barriers >= 2); // shmalloc + explicit
    });
}

#[test]
fn strided_ops_count_once_and_share_nelems_convention() {
    // Pins the iput/iget contract: `nelems` is the number of *logical*
    // elements transferred (shared by both sides; extra source capacity
    // beyond `(nelems-1)*stride` is ignored), and each strided call is
    // exactly one logical put/get in the stats regardless of element
    // count or stride.
    launch(&cfg(2), |ctx| {
        let me = ctx.my_pe();
        let v = ctx.shmalloc::<u64>(32);
        ctx.local_fill(&v, 0u64);
        ctx.barrier_all();
        if me == 0 {
            let before = ctx.stats();
            // Source has 16 elements but nelems=5 with sst=2 only reads
            // indices 0,2,4,6,8 of it.
            let src: Vec<u64> = (0..16).map(|i| 100 + i as u64).collect();
            ctx.iput(&v, 1, 3, &src, 2, 5, 1);
            ctx.quiet();
            let after = ctx.stats();
            assert_eq!(after.puts - before.puts, 1, "one logical put");
            assert_eq!(after.put_bytes - before.put_bytes, 5 * 8, "nelems bytes");
        }
        ctx.barrier_all();
        if me == 1 {
            let all = ctx.local_read(&v, 0, 32);
            for (k, want) in [(1, 100), (4, 102), (7, 104), (10, 106), (13, 108)] {
                assert_eq!(all[k], want, "target index {k}");
            }
            assert_eq!(all[0], 0);
            assert_eq!(all[2], 0);
            assert_eq!(all[16], 0, "nothing past nelems elements");
        }
        ctx.barrier_all();
        if me == 0 {
            let before = ctx.stats();
            // Destination has room for 16, but nelems=5 with
            // dst_stride=2 only writes indices 0,2,4,6,8.
            let mut out = [u64::MAX; 16];
            ctx.iget(&mut out, 2, &v, 1, 3, 5, 1);
            let after = ctx.stats();
            assert_eq!(after.gets - before.gets, 1, "one logical get");
            assert_eq!(after.get_bytes - before.get_bytes, 5 * 8);
            assert_eq!(out[0], 100);
            assert_eq!(out[8], 108);
            assert_eq!(out[1], u64::MAX, "stride gaps untouched");
            assert_eq!(out[10], u64::MAX, "nothing past nelems elements");
        }
        ctx.barrier_all();
    });
}

#[test]
fn strided_static_transfers_batch_through_temp() {
    // The acceptance check for the iput batching fix: a strided put to a
    // remote *static* target must stage whole temp-sized batches per
    // service interrupt, not one redirect per element. With a 512-byte
    // temp, a 256-element u64 transfer fits 64 elements per batch, so
    // exactly 4 redirects (it was 256 before the fix).
    let small_temp = RuntimeConfig::new(2)
        .with_partition_bytes(1 << 20)
        .with_private_bytes(1 << 18)
        .with_temp_bytes(512);
    launch(&small_temp, |ctx| {
        let me = ctx.my_pe();
        let n = 256usize;
        let statv = ctx.static_sym::<u64>(2 * n);
        ctx.local_fill(&statv, 0u64);
        ctx.barrier_all();
        if me == 0 {
            let src: Vec<u64> = (0..n as u64).map(|i| 0xABC0_0000 + i).collect();
            let before = ctx.stats();
            ctx.iput(&statv, 0, 2, &src, 1, n, 1);
            ctx.quiet();
            let after = ctx.stats();
            assert_eq!(after.puts - before.puts, 1);
            assert_eq!(after.redirected - before.redirected, 4, "4 temp batches, not 256");
        }
        ctx.barrier_all();
        if me == 1 {
            let all = ctx.local_read(&statv, 0, 2 * n);
            for i in 0..n {
                assert_eq!(all[2 * i], 0xABC0_0000 + i as u64, "element {i}");
                assert_eq!(all[2 * i + 1], 0, "stride gap {i}");
            }
        }
        ctx.barrier_all();
        if me == 0 {
            let before = ctx.stats();
            let mut out = vec![0u64; n];
            ctx.iget(&mut out, 1, &statv, 0, 2, n, 1);
            let after = ctx.stats();
            assert_eq!(after.gets - before.gets, 1);
            assert_eq!(after.redirected - before.redirected, 4, "iget batches too");
            assert_eq!(out[0], 0xABC0_0000);
            assert_eq!(out[n - 1], 0xABC0_0000 + n as u64 - 1);
        }
        ctx.barrier_all();
    });
}

#[test]
fn single_pe_job_works() {
    let out = launch(&cfg(1), |ctx| {
        let v = ctx.shmalloc::<i32>(4);
        ctx.put(&v, 0, &[5, 6, 7, 8], 0);
        ctx.barrier_all();
        ctx.sum_to_all(&v, &v, 4, ctx.world());
        ctx.g(&v, 3, 0)
    });
    assert_eq!(out, vec![8]);
}

/// A PE's interrupt-service context does not wait for its PE: a static
/// put and get to PE 1 are served while PE 1 spins on raw loads through
/// `shmem_ptr`, which never enter the runtime and so never yield — the
/// paper's handler is an interrupt, and it preempts the task (§IV-B2).
#[test]
fn static_transfers_are_served_while_the_target_spins_on_raw_loads() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = launch(&cfg(2), |ctx| {
            let flag = ctx.shmalloc::<u64>(1);
            let statv = ctx.static_sym::<u64>(4);
            if ctx.my_pe() == 0 {
                ctx.put(&statv, 0, &[1, 2, 3, 4], 1);
                let mut back = [0u64; 4];
                ctx.get(&mut back, &statv, 0, 1);
                ctx.p(&flag, 0, 1, 1);
                back.to_vec()
            } else {
                let raw = ctx.ptr(&flag, 1).expect("a dynamic object is addressable");
                // SAFETY: the flag is a live, aligned u64 of PE 1's
                // partition, written only through the runtime's copies.
                let flag = unsafe { AtomicU64::from_ptr(raw) };
                while flag.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                ctx.local_read(&statv, 0, 4)
            }
        });
        let _ = done.send(out);
    });
    let out = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("PE 1's service context never ran while PE 1 spun on a raw load");
    assert_eq!(out, vec![vec![1, 2, 3, 4]; 2]);
}
