//! Message passing through `fence`: PE 0 writes data into a static
//! object on PE 1, fences, then raises a flag in PE 1's heap; PE 1 waits
//! for the flag and then reads the data. `shmem_fence` orders every put,
//! nbi put and AMO a PE issues to another PE, whatever their addresses,
//! so the data must be there — on every engine, whichever path each
//! write takes (a redirected request served later, or a copy or AMO done
//! at issue).
//!
//! On the timed engine `StallServiceHandler` on the observer holds its
//! first request back, so a fence that did not order the redirected
//! data before the flag fails there every time, not by chance.

use tshmem::prelude::*;
use tshmem::{EngineBackend, Fault};

const ROUNDS: u64 = 40;
const OBSERVER: usize = 1;

#[derive(Clone, Copy, Debug)]
enum Data {
    /// `put_nbi` into the static object: a redirected request left pending.
    PutNbi,
    /// Blocking `put` into the static object.
    Put,
}

#[derive(Clone, Copy, Debug)]
enum Flag {
    Inc,
    PutNbi,
    P,
}

/// Rounds in which the observer found the flag raised and the data not
/// there yet (0 when `fence` orders them).
fn stale_reads<B: EngineBackend>(launcher: Launcher<B>, data: Data, flag: Flag) -> u64 {
    let out = launcher.run(move |ctx| {
        let slot = ctx.static_sym::<u64>(1);
        let raised = ctx.shmalloc::<u64>(1);
        ctx.local_write(&slot, 0, &[0]);
        ctx.local_write(&raised, 0, &[0]);
        ctx.barrier_all();
        let mut stale = 0;
        for round in 1..=ROUNDS {
            match ctx.my_pe() {
                0 => {
                    match data {
                        Data::PutNbi => ctx.put_nbi(&slot, 0, &[round], OBSERVER),
                        Data::Put => ctx.put(&slot, 0, &[round], OBSERVER),
                    }
                    ctx.fence();
                    match flag {
                        Flag::Inc => ctx.inc(&raised, 0, OBSERVER),
                        Flag::PutNbi => ctx.put_nbi(&raised, 0, &[round], OBSERVER),
                        Flag::P => ctx.p(&raised, 0, round, OBSERVER),
                    }
                }
                OBSERVER => {
                    ctx.wait_until(&raised, 0, Cmp::Ge, round);
                    if ctx.local_read(&slot, 0, 1)[0] != round {
                        stale += 1;
                    }
                }
                _ => {}
            }
            ctx.barrier_all();
        }
        stale
    });
    out.values[OBSERVER]
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(2).with_partition_bytes(1 << 20)
}

const CASES: [(Data, Flag); 6] = [
    (Data::PutNbi, Flag::Inc),
    (Data::PutNbi, Flag::PutNbi),
    (Data::PutNbi, Flag::P),
    (Data::Put, Flag::Inc),
    (Data::Put, Flag::PutNbi),
    (Data::Put, Flag::P),
];

fn coop(workers: usize) -> CoopBackend {
    CoopBackend { workers, ..Default::default() }
}

#[test]
fn fence_orders_data_before_flag_on_native() {
    for (data, flag) in CASES {
        assert_eq!(stale_reads(Launcher::new(&cfg(), NativeBackend), data, flag), 0, "{data:?} then {flag:?}");
    }
}

#[test]
fn fence_orders_data_before_flag_on_one_coop_worker() {
    for (data, flag) in CASES {
        assert_eq!(stale_reads(Launcher::new(&cfg(), coop(1)), data, flag), 0, "{data:?} then {flag:?}");
    }
}

#[test]
fn fence_orders_data_before_flag_on_two_coop_workers() {
    for (data, flag) in CASES {
        assert_eq!(stale_reads(Launcher::new(&cfg(), coop(2)), data, flag), 0, "{data:?} then {flag:?}");
    }
}

#[test]
fn fence_orders_data_before_flag_on_the_timed_engine() {
    for (data, flag) in CASES {
        assert_eq!(stale_reads(Launcher::new(&cfg(), TimedBackend), data, flag), 0, "{data:?} then {flag:?}");
        let stalled = Launcher::new(&cfg(), TimedBackend).with_faults([Fault::StallServiceHandler {
            pe: OBSERVER,
            requests: 1,
            micros: 200,
        }]);
        assert_eq!(stale_reads(stalled, data, flag), 0, "{data:?} then {flag:?}, the observer's handler stalled");
    }
}
