//! Below the library: `substrate`, `tmc`, `udn`, `cachesim`, `desim`,
//! and the heap allocator on its own.

use std::time::Instant;

use cachesim::homing::Homing;
use cachesim::memsys::{MemRef, MemorySystem};
use desim::{QueueKind, Sim, SimTime};
use tmc::barrier::{SpinBarrier, SyncBarrier};
use tmc::common::CommonMemory;
use udn::UdnFabric;

use super::{Host, Out};
use crate::stats::{median, median_ns};

const STOP: u16 = 0xffff;

pub fn run(h: &Host, out: &mut Out) {
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // substrate: a channel round trip between two threads of one CPU is
    // the unit every coop and server hand-off is made of.
    {
        use substrate::channel::unbounded;
        let (atx, arx) = unbounded::<u64>();
        let (btx, brx) = unbounded::<u64>();
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(v) = arx.recv() {
                    if btx.send(v).is_err() {
                        break;
                    }
                }
            });
            let ns = median_ns(5, h.n(2000), || {
                atx.send(1).expect("echo thread alive");
                std::hint::black_box(brx.recv().expect("echo thread alive"));
            });
            put("substrate.channel.pingpong_ns", ns);
            drop(atx);
        });
        let (tx, rx) = unbounded::<u64>();
        let ns = median_ns(5, h.n(100_000), || {
            tx.send(1).expect("receiver alive");
            std::hint::black_box(rx.recv().expect("sender alive"));
        });
        put("substrate.channel.send_recv_ns", ns);
        let m = substrate::sync::Mutex::new(0u64);
        put(
            "substrate.sync.mutex_ns",
            median_ns(5, h.n(200_000), || *m.lock() += 1),
        );
    }

    // tmc: the copy every dynamic put and get is, and the two barriers.
    {
        const M16: usize = 16 << 20;
        let mem = CommonMemory::new(2 * M16, Homing::HashForHome);
        let ns4k = median_ns(5, h.n(20_000), || mem.copy_within(M16, 0, 4096));
        put("tmc.common.copy_gbps_4k", 4096.0 / ns4k);
        let ns16m = median_ns(5, h.n(100).min(4), || mem.copy_within(M16, 0, M16));
        put("tmc.common.copy_gbps_16m", M16 as f64 / ns16m);

        let iters = h.n(20_000);
        let spin = SpinBarrier::new(2);
        let sync = SyncBarrier::new(2);
        let total = 6 * iters; // median_ns: one warm-up batch and five timed
        std::thread::scope(|s| {
            s.spawn(|| {
                h.pin_pe(1);
                for _ in 0..total {
                    spin.wait();
                }
                for _ in 0..total {
                    sync.wait();
                }
            });
            put(
                "tmc.barrier.spin_ns",
                median_ns(5, iters, || {
                    spin.wait();
                }),
            );
            put(
                "tmc.barrier.sync_ns",
                median_ns(5, iters, || {
                    sync.wait();
                }),
            );
        });
    }

    // udn: the packet fabric under every protocol message.
    {
        let eps = UdnFabric::new(2);
        std::thread::scope(|s| {
            let echo = &eps[1];
            s.spawn(move || loop {
                let p = echo.recv(0);
                if p.header.tag == STOP {
                    break;
                }
                echo.send(0, 0, 1, &[p.header.src as u64]);
            });
            let ns = median_ns(5, h.n(2000), || {
                eps[0].send(1, 0, 1, &[7]);
                std::hint::black_box(eps[0].recv(0));
            });
            put("udn.fabric.pingpong_ns", ns);
            eps[0].send(1, 0, STOP, &[]);
        });
        let ns = median_ns(5, h.n(100_000), || {
            eps[0].send(0, 1, 1, &[7, 8]);
            std::hint::black_box(eps[0].recv(1));
        });
        put("udn.fabric.send_recv_ns", ns);
    }

    // cachesim: host time to cost one simulated KiB of copy.
    {
        let device = tile_arch::device::Device::tile_gx8036();
        let mut ms = MemorySystem::new(device, 36);
        let mut now = SimTime::ZERO;
        let mut k = 0u64;
        let ns = median_ns(5, h.n(4000), || {
            k += 1;
            let dst = MemRef::new((k % 256) << 12, Homing::HashForHome);
            let src = MemRef::new((1 << 24) + ((k % 256) << 12), Homing::HashForHome);
            now = ms.copy((k % 36) as usize, dst, src, 4096, now);
        });
        put("cachesim.memsys.copy_ns_per_kib", ns / 4.0);
    }

    // desim: raw event-core throughput, and one LP hand-off.
    {
        let total = h.n(400_000);
        let rate = |kind, chains| median(&[(); 3].map(|_| event_rate(kind, chains, total)));
        put("desim.events.per_s_1k", rate(QueueKind::Calendar, 1024));
        put("desim.events.per_s_16k", rate(QueueKind::Calendar, 16384));
        put(
            "desim.events.heap_per_s_1k",
            rate(QueueKind::ReferenceHeap, 1024),
        );

        let trips = h.n(5000);
        let r = desim::coop::run::<u64, f64, _>(2, 1, |lp| {
            let lat = SimTime::from_ns(10);
            if lp.id() == 0 {
                let mut means = Vec::new();
                for _ in 0..5 {
                    let t0 = Instant::now();
                    for _ in 0..trips {
                        lp.send(1, 0, 1, lat);
                        lp.recv(0);
                    }
                    // Two hand-offs per round trip.
                    means.push(t0.elapsed().as_nanos() as f64 / (2 * trips) as f64);
                }
                median(&means)
            } else {
                for _ in 0..5 * trips {
                    lp.recv(0);
                    lp.send(0, 0, 1, lat);
                }
                0.0
            }
        });
        put("desim.coop.handoff_ns", r.values[0]);
    }

    // heap: the allocator under shmalloc, without the barrier.
    {
        let mut heap = tshmem::heap::Heap::new(1 << 20);
        let ns = median_ns(5, h.n(100_000), || {
            let a = heap.alloc(256).expect("heap has room");
            let b = heap.alloc(4096).expect("heap has room");
            heap.free(a).expect("live block");
            heap.free(b).expect("live block");
        });
        put("heap.alloc_free_ns", ns / 2.0);
    }
}

/// Mean chain delay in ps: a chain fires about every half microsecond
/// of virtual time, the timed engine's event granularity.
const CHAIN_MEAN_PS: u64 = 1 << 19;

/// One self-rescheduling chain step: mix four words of state and
/// reschedule a pseudo-random delay ahead. The capture fits the calendar
/// core's inline event cell; the reference heap boxes it.
fn chain_step(s: &mut Sim<'_>, mut st: [u64; 4]) {
    st[0] = st[0]
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(st[1]);
    st[1] = st[1].rotate_left(7) ^ st[0];
    let delay = (st[0] & (2 * CHAIN_MEAN_PS - 1)) + 1;
    s.schedule_in(SimTime::from_ps(delay), move |s2| chain_step(s2, st));
}

/// Events per second of host time with `chains` pending events, over
/// about `total` events after a warm-up horizon.
fn event_rate(kind: QueueKind, chains: usize, total: usize) -> f64 {
    let mut sim = Sim::with_kind(kind);
    for c in 0..chains {
        let x = (c as u64 ^ 0x5851_f42d_4c95_7f2d).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let st = [x, x.rotate_left(31), c as u64, 0];
        sim.schedule_at(SimTime::from_ps((c as u64) << 10), move |s| {
            chain_step(s, st)
        });
    }
    sim.run_until(SimTime::from_ps(8 * CHAIN_MEAN_PS));
    let warm = sim.executed();
    let horizon = sim.now().ps() + (total as u64 * CHAIN_MEAN_PS) / chains as u64;
    let t0 = Instant::now();
    sim.run_until(SimTime::from_ps(horizon));
    let secs = t0.elapsed().as_secs_f64();
    (sim.executed() - warm) as f64 / secs
}
