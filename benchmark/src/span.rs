//! The benchmark's own span recorder.
//!
//! A span brackets one call into a layer's public function, made from
//! the benchmark's files: nothing inside the program is instrumented.
//! Spans collect in per-thread buffers and move to a shared list when a
//! lane ends; [`write_tsv`] puts them on disk when the run ends.
//! Recording is off unless a traced run turns it on, and an untraced
//! call costs one relaxed load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whose public function a span brackets. `Bench` is the benchmark's
/// own scaffolding (epoch, PE lane, round).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    Bench,
    Engine,
    Heap,
    Rma,
    Atomics,
    Sync,
    Collectives,
    Apps,
    Server,
}

impl Layer {
    /// The layers a program owns, in the order the metrics list them.
    pub const PROGRAM: [Layer; 8] = [
        Layer::Engine,
        Layer::Heap,
        Layer::Rma,
        Layer::Atomics,
        Layer::Sync,
        Layer::Collectives,
        Layer::Apps,
        Layer::Server,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Engine => "engine",
            Layer::Heap => "heap",
            Layer::Rma => "rma",
            Layer::Atomics => "atomics",
            Layer::Sync => "sync",
            Layer::Collectives => "collectives",
            Layer::Apps => "apps",
            Layer::Server => "server",
        }
    }
}

/// PE recorded for spans of the launching (main) thread.
pub const MAIN: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root. May live on another
    /// thread (a PE lane's parent is the launch that spawned it).
    pub parent: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub pe: u32,
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

struct Local {
    /// High bits of every id this thread hands out, so ids are unique
    /// without a shared counter on the hot path.
    lane: u64,
    next: u64,
    pe: u32,
    epoch: u32,
    /// Parent for spans opened with an empty stack.
    base_parent: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local {
        lane: 0, next: 0, pe: MAIN, epoch: 0, base_parent: 0, stack: Vec::new(), spans: Vec::new(),
    }) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off. Flip only between epochs.
pub fn enable(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tag the calling thread's later spans with an epoch.
pub fn set_epoch(epoch: u32) {
    LOCAL.with(|l| l.borrow_mut().epoch = epoch);
}

/// Id of the innermost open span on this thread (0 when none, or when
/// recording is off): what a spawned lane names as its parent.
pub fn current() -> u64 {
    LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0))
}

/// Run `f` inside a span.
#[inline]
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let (id, parent, start_ns) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.lane == 0 {
            l.lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed) << 40;
        }
        l.next += 1;
        let id = l.lane | l.next;
        let parent = l.stack.last().copied().unwrap_or(l.base_parent);
        l.stack.push(id);
        (id, parent, now_ns())
    });
    let r = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        let (pe, epoch) = (l.pe, l.epoch);
        l.spans.push(Span {
            id,
            parent,
            layer,
            name,
            pe,
            epoch,
            start_ns,
            end_ns,
        });
    });
    r
}

/// Run a PE closure's body as one lane: a `bench.pe` span whose parent
/// is `parent` (the launch span on the spawning thread), after which the
/// thread's buffer moves to the shared list. PE threads end with their
/// launch, so every closure body goes through here.
pub fn lane<R>(pe: usize, epoch: u32, parent: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.pe = pe as u32;
        l.epoch = epoch;
        l.base_parent = parent;
    });
    let r = span(Layer::Bench, "bench.pe", f);
    flush_thread();
    r
}

/// Move the calling thread's finished spans to the shared list.
pub fn flush_thread() {
    let mut spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    DONE.lock().expect("span list poisoned").append(&mut spans);
}

/// Take every span recorded so far (flushing the caller's own buffer).
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *DONE.lock().expect("span list poisoned"))
}

/// What the traced run reports from its spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Median, over timed rounds, of each layer's self time inside the
    /// round, averaged over the PE lanes of that round. Seconds.
    pub round_self_s: HashMap<Layer, f64>,
    /// Median, over epochs, of each layer's self time outside rounds
    /// (launch, allocation, free), PE-lane spans averaged over lanes.
    pub epoch_self_s: HashMap<Layer, f64>,
    /// Median over rounds of (program layers' self time) / (round time).
    pub attributed_frac: f64,
    pub rounds: usize,
}

/// A span's duration minus the part of it its children cover. Children
/// on other threads may overlap each other, so this takes the union.
fn self_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut upto) = (0, span.start_ns);
    for &(s, e) in children.iter() {
        let s = s.max(upto);
        let e = e.min(span.end_ns);
        if e > s {
            covered += e - s;
            upto = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

pub fn summarize(spans: &[Span]) -> Summary {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    // The round each span sits under, if any: walk up, same thread only.
    let round_of = |mut i: usize| -> Option<usize> {
        loop {
            if spans[i].name == "bench.round" {
                return Some(i);
            }
            i = *index.get(&spans[i].parent)?;
        }
    };

    // (epoch, pe) -> that lane's rounds in start order, so the k-th round
    // of every lane of an epoch is the same round of the workload.
    let mut lanes: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "bench.round" {
            lanes.entry((s.epoch, s.pe)).or_default().push(i);
        }
    }
    let mut round_key: HashMap<usize, (u32, usize)> = HashMap::new();
    for ((epoch, _), rounds) in lanes.iter_mut() {
        rounds.sort_by_key(|&i| spans[i].start_ns);
        for (k, &i) in rounds.iter().enumerate() {
            round_key.insert(i, (*epoch, k));
        }
    }
    let mut lane_count: HashMap<u32, f64> = HashMap::new();
    for (epoch, _) in lanes.keys() {
        *lane_count.entry(*epoch).or_default() += 1.0;
    }
    let lanes_in_epoch = |epoch: u32| lane_count.get(&epoch).copied().unwrap_or(1.0);

    #[derive(Default)]
    struct Acc {
        by_layer: HashMap<Layer, f64>,
        wall: f64,
    }
    let mut rounds: HashMap<(u32, usize), Acc> = HashMap::new();
    let mut epochs: HashMap<u32, Acc> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = self_ns(s, kids.get_mut(&s.id).map_or(&mut [][..], |k| &mut k[..])) as f64 * 1e-9;
        match round_of(i) {
            Some(r) => {
                let acc = rounds.entry(round_key[&r]).or_default();
                let share = 1.0 / lanes_in_epoch(s.epoch);
                *acc.by_layer.entry(s.layer).or_default() += own * share;
                if r == i {
                    acc.wall += (s.end_ns - s.start_ns) as f64 * 1e-9 * share;
                }
            }
            None => {
                let share = if s.pe == MAIN {
                    1.0
                } else {
                    1.0 / lanes_in_epoch(s.epoch)
                };
                *epochs
                    .entry(s.epoch)
                    .or_default()
                    .by_layer
                    .entry(s.layer)
                    .or_default() += own * share;
            }
        }
    }

    let mut out = Summary {
        rounds: rounds.len(),
        ..Default::default()
    };
    fn med<K>(accs: &HashMap<K, Acc>, layer: Layer) -> f64 {
        let v: Vec<f64> = accs
            .values()
            .map(|a| a.by_layer.get(&layer).copied().unwrap_or(0.0))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }
    for layer in Layer::PROGRAM {
        out.round_self_s.insert(layer, med(&rounds, layer));
        out.epoch_self_s.insert(layer, med(&epochs, layer));
    }
    let fracs: Vec<f64> = rounds
        .values()
        .filter(|a| a.wall > 0.0)
        .map(|a| {
            Layer::PROGRAM
                .iter()
                .filter_map(|l| a.by_layer.get(l))
                .sum::<f64>()
                / a.wall
        })
        .collect();
    out.attributed_frac = if fracs.is_empty() {
        0.0
    } else {
        crate::stats::median(&fracs)
    };
    out
}

/// One line per span: id, parent, layer, name, pe (`-` for the main
/// thread), epoch, start and end in ns since the recorder started.
pub fn write_tsv<'a>(
    path: &std::path::Path,
    spans: impl IntoIterator<Item = &'a Span>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tlayer\tname\tpe\tepoch\tstart_ns\tend_ns")?;
    for s in spans {
        let pe = if s.pe == MAIN {
            "-".to_string()
        } else {
            s.pe.to_string()
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.layer.name(),
            s.name,
            pe,
            s.epoch,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, layer: Layer, name: &'static str, pe: u32, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name,
            pe,
            epoch: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_union() {
        // launch [0,100] on main; two overlapping PE lanes [10,60] and [20,90].
        let launch = sp(1, 0, Layer::Engine, "engine.launch", MAIN, 0, 100);
        let mut kids = vec![(20, 90), (10, 60)];
        assert_eq!(self_ns(&launch, &mut kids), 20);
    }

    #[test]
    fn round_attribution_sums_to_the_round() {
        // One lane, one round [0,100]: a barrier [10,40] holding a put [20,30], and a put [50,90].
        let spans = vec![
            sp(1, 0, Layer::Bench, "bench.round", 0, 0, 100),
            sp(2, 1, Layer::Sync, "sync.barrier_all", 0, 10, 40),
            sp(3, 2, Layer::Rma, "rma.put", 0, 20, 30),
            sp(4, 1, Layer::Rma, "rma.put", 0, 50, 90),
        ];
        let s = summarize(&spans);
        assert_eq!(s.rounds, 1);
        assert!((s.round_self_s[&Layer::Sync] - 20e-9).abs() < 1e-15);
        assert!((s.round_self_s[&Layer::Rma] - 50e-9).abs() < 1e-15);
        assert!((s.attributed_frac - 0.7).abs() < 1e-12);
    }
}
