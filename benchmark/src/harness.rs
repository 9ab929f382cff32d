//! One run: pin, make the inputs, run the epochs, reduce them to the
//! named metrics, and say where and how the run was made.

use std::path::PathBuf;
use std::process::Command;

use crate::json::quote;
use crate::registry::{self, WorkloadInfo};
use crate::span::{self, Layer};
use crate::stats::median;
use crate::{affinity, probes, workloads, Epoch};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// The contract's duration argument: it sets the number of epochs
    /// and nothing else, so `attempted` repeats at one seed.
    pub seconds: f64,
    pub trace: bool,
    /// Test sizes: seconds of work shrink to tens of milliseconds.
    pub quick: bool,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One JSON object: host, pinning, resolved configuration, sizes.
    pub provenance: String,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fewest epochs a full-size run reduces to one number.
pub const MIN_EPOCHS: usize = 24;

/// Epochs for a duration argument.
pub fn epochs_for(info: &WorkloadInfo, seconds: f64, quick: bool) -> usize {
    if quick {
        3
    } else {
        ((seconds * info.epochs_per_s).round() as usize).max(MIN_EPOCHS)
    }
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Pin the calling thread (and every thread it spawns later) to the
/// highest allowed CPU. `None` when the kernel refuses or reports no CPUs.
fn pin_process(allowed: &[usize]) -> Option<usize> {
    allowed.last().copied().filter(|&c| affinity::pin(c))
}

struct Reduced {
    solve_s: f64,
    op_us: f64,
    setup_s: f64,
    attempted: u64,
    failed: u64,
}

fn reduce(epochs: &[Epoch]) -> Reduced {
    let solves: Vec<f64> = epochs.iter().map(|e| e.solve_s).collect();
    let setups: Vec<f64> = epochs.iter().map(|e| e.setup_s).collect();
    let ops: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.op_us.iter().copied())
        .collect();
    Reduced {
        solve_s: median(&solves),
        op_us: median(&ops),
        setup_s: median(&setups),
        attempted: epochs.iter().map(|e| e.attempted).sum(),
        failed: epochs.iter().map(|e| e.failed).sum(),
    }
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let info = registry::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // Provenance that spawns a process comes first: nothing else is running yet.
    let git_rev = tool_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = tool_line("rustc", &["-V"]);
    let allowed = affinity::allowed_cpus();
    // Read before pinning: afterwards std reports the one pinned CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Every workload pins the launching thread, so every thread a launch
    // spawns (PE lanes, service contexts, workers) starts on that CPU; the
    // native workloads then move each PE lane to a CPU of its own.
    let pinned_cpu = pin_process(&allowed);

    let mut w = workloads::make(info.name, args.seed, args.quick, &allowed);
    let rounds = w.rounds();
    let epochs = epochs_for(info, args.seconds, args.quick);
    let mut metrics = Vec::new();
    let (attempted, failed, resolved);

    if !args.trace {
        let done: Vec<Epoch> = (0..epochs).map(|e| w.epoch(e as u32)).collect();
        let r = reduce(&done);
        (attempted, failed, resolved) = (r.attempted, r.failed, w.resolved());
        for (m, v) in registry::END_TO_END
            .iter()
            .zip([r.solve_s, r.op_us, r.setup_s])
        {
            metrics.push(Metric {
                name: m.name.into(),
                value: v,
                unit: m.unit,
            });
        }
    } else {
        // Two fifths of the epochs, alternately untraced and traced, so
        // the two arms see the same drift; the rest of the run is the
        // layer probes.
        let pairs = (epochs / 5).max(1);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for p in 0..pairs {
            span::enable(false);
            plain.push(w.epoch(2 * p as u32));
            span::enable(true);
            traced.push(span::span(Layer::Bench, "bench.epoch", || {
                w.epoch(2 * p as u32 + 1)
            }));
        }
        span::enable(false);
        let spans = span::take();
        let (rp, rt) = (reduce(&plain), reduce(&traced));
        (attempted, failed) = (rp.attempted + rt.attempted, rp.failed + rt.failed);
        // After the epochs: the server reports the slots it ran with.
        resolved = w.resolved();
        let s = span::summarize(&spans);
        // Every span is summarised; the file holds the first traced epoch
        // (a million spans of the others would say the same again).
        let path = args.out_dir.join(format!("spans-{}.tsv", info.name));
        span::write_tsv(&path, spans.iter().filter(|s| s.epoch <= 1))
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let mut found: Vec<(String, f64)> = Vec::new();
        for layer in Layer::PROGRAM {
            // Launch, allocation and free happen once an epoch, outside
            // the rounds; every other layer is read per round.
            let v = match layer {
                Layer::Engine | Layer::Heap => s.epoch_self_s[&layer],
                _ => s.round_self_s[&layer],
            };
            found.push((format!("span.{}.self_s", layer.name()), v));
        }
        found.push(("span.attributed_frac".into(), s.attributed_frac));
        found.push(("trace.span_overhead_ratio".into(), rt.solve_s / rp.solve_s));
        drop(w);
        found.extend(probes::run_all(&probes::Host {
            allowed: allowed.clone(),
            quick: args.quick,
            seed: args.seed,
        }));

        for m in registry::PER_LAYER {
            let v = found
                .iter()
                .find(|(n, _)| n == m.name)
                .ok_or_else(|| format!("no probe reported {}", m.name))?
                .1;
            metrics.push(Metric {
                name: m.name.into(),
                value: v,
                unit: m.unit,
            });
        }
        if let Some((n, _)) = found.iter().find(|(n, _)| registry::per_layer(n).is_none()) {
            return Err(format!("probe reported unregistered metric {n}"));
        }
    }

    // Leave the calling thread as it was found: a caller that runs again
    // must see the whole mask, not the one CPU this run was pinned to.
    affinity::set_cpus(&allowed);

    let list = |v: &[usize]| {
        v.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut prov = vec![
        ("workload", quote(info.name)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.to_string()),
        ("epochs", epochs.to_string()),
        ("rounds", rounds.to_string()),
        ("nproc", nproc.to_string()),
        ("allowed_cpus", format!("[{}]", list(&allowed))),
        (
            "pinned_cpu",
            pinned_cpu.map_or("null".into(), |c| c.to_string()),
        ),
        // Fewer than two CPUs: the native workloads time-share one core
        // and no number compares with a two-CPU run.
        (
            "comparable",
            (allowed.len() >= 2 && pinned_cpu.is_some()).to_string(),
        ),
        ("git_rev", quote(&git_rev)),
        ("rustc", quote(&rustc)),
    ];
    prov.extend(resolved);
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();

    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        provenance: format!("{{\"provenance\": {{{}}}}}", prov.join(", ")),
    })
}
