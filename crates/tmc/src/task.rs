//! Task-to-tile binding: one task per tile, the configuration TSHMEM
//! requires for its spin-barrier and UDN usage.
//!
//! The real launcher forks one process per tile and binds it for the
//! lifetime of the run; our analog is a [`Lanes`] pool: OS threads that
//! outlive the task they ran, so whoever keeps the pool — one launch, or
//! a server for all of its jobs — pays for a thread once. (Hard CPU
//! affinity is not portable from std; the binding is logical — within
//! one [`Lanes::run`] each tile id is owned by exactly one lane, which is
//! the property the protocols rely on. Lanes inherit the affinity of the
//! thread that started them.)
//!
//! Which lanes come back is the trust rule: a lane whose task **returned**
//! lists itself idle again; a lane whose task **unwound** never does —
//! its thread ends after handing over the payload — and a lane whose
//! task never finishes is simply never seen again. Lanes are not an
//! isolation boundary: successive tasks on one lane share its
//! thread-locals, affinity and name, as they share the address space.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use substrate::sync::Mutex;

/// What a lane is handed: run the task — catching its unwind — and
/// return whether it unwound, plus what is left to do once the lane is
/// back on the idle list (or gone): handing over the result.
type Work = Box<dyn FnOnce() -> (bool, After) + Send>;
type After = Box<dyn FnOnce()>;

enum Order {
    Run(Work),
    /// End, and tell whoever is closing the pool.
    Exit(Arc<Latch>),
}

struct Lane {
    /// Written by whoever took this lane off the idle list, then the
    /// lane is unparked. A lane acts on nothing but this slot, so an
    /// unpark left over from an earlier task's waits only makes it look.
    order: Mutex<Option<Order>>,
    thread: Thread,
}

struct Pool {
    /// Most recently idle last: the warmest lane is reused first.
    idle: Vec<Arc<Lane>>,
    /// Lane threads that have not ended: idle, running, or stuck.
    live: usize,
    /// A closed pool lists no lane: each ends with the task it is in.
    closed: bool,
    /// Every lane thread not joined yet ([`Lanes::close`] joins).
    handles: Vec<JoinHandle<()>>,
}

struct Shared {
    pool: Mutex<Pool>,
    spawned: AtomicU64,
    reused: AtomicU64,
    retired: AtomicU64,
}

impl Shared {
    fn lane_ended(&self) {
        self.pool.lock().live -= 1;
    }
}

/// Counters of one [`Lanes`] pool; all but `live` are monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Tasks that needed a new thread.
    pub spawned: u64,
    /// Tasks that ran on an idle lane.
    pub reused: u64,
    /// Lanes that ended because their task unwound.
    pub retired: u64,
    /// Lane threads that have not ended: idle, running, or stuck in a
    /// task that never finishes.
    pub live: u64,
}

/// Resident lanes (see the module docs).
pub struct Lanes {
    shared: Arc<Shared>,
}

impl Default for Lanes {
    fn default() -> Self {
        Self::new()
    }
}

impl Lanes {
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                pool: Mutex::new(Pool {
                    idle: Vec::new(),
                    live: 0,
                    closed: false,
                    handles: Vec::new(),
                }),
                spawned: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                retired: AtomicU64::new(0),
            }),
        }
    }

    pub fn stats(&self) -> LaneStats {
        LaneStats {
            spawned: self.shared.spawned.load(Ordering::Relaxed),
            reused: self.shared.reused.load(Ordering::Relaxed),
            retired: self.shared.retired.load(Ordering::Relaxed),
            live: self.shared.pool.lock().live as u64,
        }
    }

    /// Hand `work` to an idle lane, or to a new thread as its first task
    /// when none is idle. `Ok(true)` if a thread was spawned; on `Err`
    /// `work` has been dropped without running.
    fn start(&self, work: Work) -> std::io::Result<bool> {
        let idle = {
            let mut pool = self.shared.pool.lock();
            let lane = pool.idle.pop();
            pool.live += usize::from(lane.is_none());
            lane
        };
        if let Some(lane) = idle {
            *lane.order.lock() = Some(Order::Run(work));
            lane.thread.unpark();
            self.shared.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let shared = self.shared.clone();
        let spawn = thread::Builder::new() // cold: only when no lane is idle
            .name("lane".into())
            .spawn(move || lane_main(&shared, work));
        match spawn {
            Ok(handle) => {
                self.shared.pool.lock().handles.push(handle);
                self.shared.spawned.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) => {
                self.shared.lane_ended();
                Err(e)
            }
        }
    }

    /// Run `f(tile)` for each of `n` tiles, each on an idle lane or —
    /// when none is idle at that moment — on a new one; returns the
    /// results indexed by tile and how many lanes had to be spawned. A
    /// tile never queues behind a running one, so tiles that wait for
    /// each other (as PEs do) each get a lane of their own. Does not
    /// return before every tile has finished.
    ///
    /// # Panics
    /// Re-raises the payload of the lowest tile that panicked, after
    /// every tile has finished.
    pub fn run<R, F>(&self, n: usize, f: F) -> (Vec<R>, usize)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        assert!(n > 0, "need at least one tile");
        let slots: Vec<Mutex<Option<thread::Result<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(n);
        let mut spawned = 0;
        {
            // Declared after `f` and `slots`, so it is dropped — and
            // waits — before either, on return and on unwind alike.
            let _all_arrived = WaitOnDrop(&latch);
            for (tile, slot) in slots.iter().enumerate() {
                let (f, arrival) = (&f, latch.clone());
                let work: Box<dyn FnOnce() -> (bool, After) + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(tile)));
                    let unwound = result.is_err();
                    *slot.lock() = Some(result);
                    (unwound, Box::new(move || arrival.arrive()))
                });
                // SAFETY: the two types differ only in the lifetime bound
                // of the trait object. `work` borrows `f` and `slots`; a
                // lane's last touch of either is the slot store above,
                // which precedes its `latch.arrive()` (the returned
                // `After` owns nothing but the latch's `Arc`), and
                // `_all_arrived` keeps this frame alive — whether `run`
                // returns or unwinds — until every `work` handed to a
                // lane has arrived. A `work` that `start` could not hand
                // to a lane was dropped unrun before `start` returned,
                // and is taken off the latch below.
                let work = unsafe { std::mem::transmute::<Box<dyn FnOnce() -> (bool, After) + Send + '_>, Work>(work) };
                match self.start(work) {
                    Ok(new) => spawned += usize::from(new),
                    Err(e) => {
                        latch.pending.fetch_sub(n - tile, Ordering::AcqRel);
                        panic!("spawn lane thread for tile {tile}: {e}");
                    }
                }
            }
        }
        let values = slots
            .into_iter()
            .map(|slot| match slot.into_inner().expect("every tile stored its result") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect();
        (values, spawned)
    }

    /// The detached form: run `task` on a lane, then `done` with its
    /// result (`Err` = the payload it unwound with) on the same lane.
    /// `done` runs after the lane has listed itself idle — or, if the
    /// task unwound, after the lane has been counted retired — so whoever
    /// learns through `done` that the task is over finds the lane
    /// reusable and the counters settled. It must not block for long, and
    /// must not panic when handed `Ok` (its lane is listed idle by then).
    ///
    /// # Panics
    /// If a needed thread cannot be spawned.
    pub fn spawn<T, F, D>(&self, task: F, done: D)
    where
        T: 'static,
        F: FnOnce() -> T + Send + 'static,
        D: FnOnce(thread::Result<T>) + Send + 'static,
    {
        let work: Work = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            (result.is_err(), Box::new(move || done(result)))
        });
        self.start(work).expect("spawn lane thread");
    }

    /// End every idle lane and join every lane thread that has ended.
    /// From here on no lane lists itself idle: one still running — or
    /// started later — ends with its task, and is joined by the next
    /// `close` if it gets that far. Closing a pool before its first task
    /// makes it the per-task thread spawn it replaces: no lane ever parks
    /// to wait for a task that will not come. Also what dropping does.
    pub fn close(&self) {
        let idle = {
            let mut pool = self.shared.pool.lock();
            pool.closed = true;
            std::mem::take(&mut pool.idle)
        };
        {
            let idle_ended = Latch::new(idle.len());
            let _wait = WaitOnDrop(&idle_ended);
            for lane in &idle {
                *lane.order.lock() = Some(Order::Exit(idle_ended.clone()));
                lane.thread.unpark();
            }
        }
        let ended: Vec<_> = {
            let mut pool = self.shared.pool.lock();
            // With nothing live every thread is past its last
            // instruction here; otherwise some lane is still in a task
            // (or stuck in one) and only the finished are safe to wait on.
            let none_live = pool.live == 0;
            let (ended, running) = std::mem::take(&mut pool.handles).into_iter().partition(|h| none_live || h.is_finished());
            pool.handles = running;
            ended
        };
        for handle in ended {
            // A lane catches its task's unwind, so there is no payload.
            let _ = handle.join();
        }
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        self.close();
    }
}

fn lane_main(shared: &Shared, first: Work) {
    let me = Arc::new(Lane {
        order: Mutex::new(None),
        thread: thread::current(),
    });
    let mut work = first;
    loop {
        let (unwound, after) = work();
        if unwound {
            shared.retired.fetch_add(1, Ordering::Relaxed);
        }
        let listed = !unwound && {
            let mut pool = shared.pool.lock();
            if !pool.closed {
                pool.idle.push(me.clone());
            }
            !pool.closed
        };
        if !listed {
            shared.lane_ended();
            after();
            return;
        }
        after();
        work = loop {
            // Taken in its own statement: the slot must not stay locked
            // while this lane is parked.
            let order = me.order.lock().take();
            match order {
                Some(Order::Run(work)) => break work,
                Some(Order::Exit(closer)) => {
                    shared.lane_ended();
                    closer.arrive();
                    return;
                }
                None => thread::park(),
            }
        };
    }
}

/// Counts lanes down to zero for the thread that made it.
struct Latch {
    pending: AtomicUsize,
    waiter: Thread,
}

impl Latch {
    fn new(pending: usize) -> Arc<Self> {
        Arc::new(Self {
            pending: AtomicUsize::new(pending),
            waiter: thread::current(),
        })
    }

    /// Release: everything the lane did happens-before the waiter's
    /// Acquire load of zero.
    fn arrive(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiter.unpark();
        }
    }
}

struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        while self.0.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;

    #[test]
    fn results_indexed_by_tile_over_borrowed_data() {
        let lanes = Lanes::new();
        let rows: Vec<Vec<u64>> = (0..8).map(|t| (0..=t).collect()).collect();
        let seen = AtomicUsize::new(0);
        let (sums, _) = lanes.run(8, |t| {
            seen.fetch_add(1, Ordering::Relaxed);
            rows[t].iter().sum::<u64>()
        });
        assert_eq!(sums, vec![0, 1, 3, 6, 10, 15, 21, 28]);
        assert_eq!(seen.into_inner(), 8);
    }

    #[test]
    fn a_fresh_pool_spawns_every_lane_and_a_warm_one_none() {
        let lanes = Lanes::new();
        // Tiles that meet each other, as PEs do: no lane is free to take
        // a second tile of the same run.
        let meet = |n| {
            let all = Barrier::new(n);
            move |_| {
                all.wait();
                thread::current().id()
            }
        };
        let (first, spawned) = lanes.run(5, meet(5));
        assert_eq!(spawned, 5);
        let (again, spawned) = lanes.run(5, meet(5));
        assert_eq!(spawned, 0);
        let threads: HashSet<ThreadId> = first.into_iter().chain(again).collect();
        assert_eq!(threads.len(), 5, "the second run reused the first run's threads");
        // A wider run spawns only the difference.
        assert_eq!(lanes.run(7, meet(7)).1, 2);
        assert_eq!(
            lanes.stats(),
            LaneStats { spawned: 7, reused: 10, retired: 0, live: 7 }
        );
        lanes.close();
        assert_eq!(lanes.stats().live, 0, "closing ends every idle lane");
    }

    #[test]
    fn a_pool_closed_before_its_first_task_keeps_no_lane() {
        let lanes = Lanes::new();
        lanes.close();
        for round in 1..=2 {
            let all = Barrier::new(4);
            assert_eq!(lanes.run(4, |_| all.wait().is_leader()).1, 4, "nothing to reuse");
            // Counted out before `run` returned, not parked for more.
            assert_eq!(lanes.stats(), LaneStats { spawned: 4 * round, reused: 0, retired: 0, live: 0 });
        }
        lanes.close();
        assert!(lanes.shared.pool.lock().handles.is_empty(), "every thread joined");
    }

    #[test]
    fn a_panicking_tile_retires_its_lane_and_only_its_lane() {
        let lanes = Lanes::new();
        let finished = AtomicUsize::new(0);
        let ids = Mutex::new(Vec::new());
        let all = Barrier::new(6);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            lanes.run(6, |t| {
                ids.lock().push((t, thread::current().id()));
                all.wait();
                if t == 4 || t == 2 {
                    panic!("tile {t} exploded");
                }
                // The others outlast the panics: `run` must wait for them.
                thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "tile 2 exploded", "lowest tile first");
        assert_eq!(finished.load(Ordering::Relaxed), 4, "re-raised only after every tile finished");
        assert_eq!(
            lanes.stats(),
            LaneStats { spawned: 6, reused: 0, retired: 2, live: 4 }
        );
        let unwound: Vec<ThreadId> = ids.lock().iter().filter(|(t, _)| *t == 4 || *t == 2).map(|(_, id)| *id).collect();
        // The four clean lanes carry the next run; the unwound two never do.
        let (next, spawned) = lanes.run(4, |_| thread::current().id());
        assert_eq!(spawned, 0);
        assert!(next.iter().all(|id| !unwound.contains(id)));
    }

    #[test]
    fn spawn_reports_after_the_lane_is_idle_again() {
        let lanes = Lanes::new();
        let (tx, rx) = mpsc::channel();
        for round in 0..50u32 {
            let tx = tx.clone();
            lanes.spawn(move || round * 2, move |r| tx.send(r.unwrap()).unwrap());
            // Knowing the result means the lane is already listed: the
            // next task can never need a second thread.
            assert_eq!(rx.recv().unwrap(), round * 2);
        }
        assert_eq!(lanes.stats(), LaneStats { spawned: 1, reused: 49, retired: 0, live: 1 });
        // An unwinding task hands its payload over, settled: retired and gone.
        let (tx, rx) = mpsc::channel();
        lanes.spawn(|| panic!("detached task exploded"), move |r: thread::Result<()>| tx.send(r.is_err()).unwrap());
        assert!(rx.recv().unwrap());
        assert_eq!(lanes.stats(), LaneStats { spawned: 1, reused: 50, retired: 1, live: 0 });
    }

    #[test]
    fn a_stale_unpark_between_tasks_starts_nothing() {
        let lanes = Lanes::new();
        let runs = AtomicUsize::new(0);
        let all = Barrier::new(3);
        let (handles, _) = lanes.run(3, |_| {
            all.wait();
            thread::current()
        });
        for _ in 0..20 {
            // What a `Thread` kept in some wait list of a finished job
            // does to an idle lane — or to one already in its next task.
            handles.iter().for_each(Thread::unpark);
            lanes.run(3, |_| {
                all.wait();
                runs.fetch_add(1, Ordering::Relaxed)
            });
        }
        assert_eq!(runs.into_inner(), 60);
        assert_eq!(lanes.stats().spawned, 3);
    }

    #[test]
    fn dropping_the_pool_ends_its_idle_lanes() {
        let lanes = Lanes::new();
        let all = Barrier::new(4);
        lanes.run(4, |_| all.wait().is_leader());
        let shared = lanes.shared.clone();
        drop(lanes);
        assert_eq!(shared.pool.lock().live, 0);
        assert!(shared.pool.lock().idle.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_tiles_panics() {
        Lanes::new().run(0, |_| ());
    }
}
