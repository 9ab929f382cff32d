//! Seed replay binary for the stress harness.
//!
//! A failing property run prints `seed=0x… case=N`; this binary
//! regenerates the identical program (same SplitMix64 stream, same
//! `% n` draws) and re-runs it under the watchdog:
//!
//! ```text
//! cargo run -p stress -- --seed 0x7453484d454d5031 --case 3 --pes 4 --depth 1
//! ```
//!
//! `--depth 0` (default) means unbounded queues. `--engine timed` runs
//! the same program on the virtual-time engine, where the desim
//! scheduler's drained queue is the watchdog. `--fault-plan S` hands the
//! launch the seeded fault plan `S` (replayable: the same seed draws the
//! same faults). `--canary`
//! adds `Fault::BlockingProtocolSends` to it — the plain blocking
//! protocol sends behind the dissemination-barrier deadlock — so
//! watchdog reports can be reproduced on demand.

use std::process::ExitCode;
use std::time::Duration;

use stress::program::{gen_program, RngDraw};
use stress::run::{resolve_coop_workers, run, Engine, Outcome};
use tshmem::{Fault, FaultPlan, TimedMode};
use stress::serve::{serve, Sched, ServeOpts};

struct Args {
    seed: u64,
    case: u64,
    pes: usize,
    depth: Option<usize>,
    stall_secs: u64,
    engine: Engine,
    fault_plan: Option<u64>,
    canary: bool,
    serve: Option<ServeOpts>,
}

fn parse_num(s: &str) -> u64 {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.unwrap_or_else(|_| {
        eprintln!("not a number: {s}");
        std::process::exit(2)
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: substrate::proptest_mini::Config::default().seed,
        case: 0,
        pes: 4,
        depth: None,
        stall_secs: 5,
        engine: Engine::Native,
        fault_plan: None,
        canary: false,
        serve: None,
    };
    // `--workers` and `--cycle-box` refine whichever `--engine` is given,
    // in any order; the engine is assembled once parsing is done.
    let mut workers = 0;
    let mut cycle_box = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value after {flag}");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = parse_num(&val()),
            "--case" => args.case = parse_num(&val()),
            // `--npes` is the alias the scaling docs use; both spellings
            // set the same field.
            "--pes" | "--npes" => args.pes = parse_num(&val()) as usize,
            "--workers" => workers = parse_num(&val()) as usize,
            "--depth" => {
                let d = parse_num(&val()) as usize;
                args.depth = (d > 0).then_some(d);
            }
            "--stall-secs" => args.stall_secs = parse_num(&val()),
            "--engine" => {
                args.engine = match val().as_str() {
                    "native" => Engine::Native,
                    "timed" => Engine::Timed(TimedMode::EventDriven),
                    "multichip" => Engine::Multichip(TimedMode::EventDriven),
                    "coop" => Engine::Coop { workers: 0 },
                    other => {
                        eprintln!("unknown engine: {other} (native|timed|multichip|coop)");
                        std::process::exit(2);
                    }
                }
            }
            "--cycle-box" => cycle_box = true,
            "--fault-plan" => args.fault_plan = Some(parse_num(&val())),
            "--canary" => args.canary = true,
            "--serve" => {
                args.serve.get_or_insert_with(ServeOpts::default);
            }
            "--jobs" => {
                args.serve.get_or_insert_with(ServeOpts::default).jobs =
                    parse_num(&val()) as usize;
            }
            "--fault-frac" => {
                let v = val();
                let frac: f64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("not a fraction: {v}");
                    std::process::exit(2)
                });
                args.serve.get_or_insert_with(ServeOpts::default).fault_frac = frac;
            }
            "--pool-workers" => {
                args.serve.get_or_insert_with(ServeOpts::default).pool_workers =
                    parse_num(&val()) as usize;
            }
            "--sched" => {
                let v = val();
                args.serve.get_or_insert_with(ServeOpts::default).sched = match v.as_str() {
                    "rr" | "round-robin" => Sched::RoundRobin,
                    "fair" => Sched::Fair,
                    other => {
                        eprintln!("unknown scheduler: {other} (rr|fair)");
                        std::process::exit(2);
                    }
                };
            }
            "--panic-pe" => {
                args.serve.get_or_insert_with(ServeOpts::default).panic_pe =
                    Some(parse_num(&val()) as usize);
            }
            "--help" | "-h" => {
                println!(
                    "usage: stress [--seed N] [--case N] [--pes N | --npes N] [--depth N] \
                     [--stall-secs N] [--engine native|timed|multichip|coop] \
                     [--cycle-box] [--workers M] [--fault-plan S] [--canary]\n       \
                     stress --serve [--seed N] [--jobs N] [--fault-frac F] \
                     [--pool-workers M] [--sched rr|fair] [--panic-pe P]\n\
                     Replays the stress program generated by (seed, case) on \
                     `pes` PEs at UDN queue depth `depth` (0 = unbounded).\n\
                     --engine timed runs under virtual time with the desim \
                     deadlock watchdog instead of the wall-clock one; \
                     --engine multichip splits the (even) PE count across two \
                     simulated chips joined by an mPIPE link; \
                     --engine coop multiplexes the PEs over --workers OS threads \
                     (0 = auto) for 256–1024-PE oversubscription runs, with the \
                     stall window scaled accordingly.\n\
                     --cycle-box (timed/multichip only) selects the lockstep \
                     cycle-box scheduling discipline instead of exact \
                     event-driven order; the replay hint carries it, because \
                     the two modes take different schedules to the same \
                     final state.\n\
                     --fault-plan S runs the launch under the seeded fault plan S.\n\
                     --canary reintroduces the pre-fix blocking protocol sends.\n\
                     --serve drives the multi-tenant server pool with an open-loop \
                     stream of --jobs seeded programs, a --fault-frac \
                     fraction of hostile tenants (panics + wedges), reporting \
                     jobs/sec and p50/p99 latency; --panic-pe P instead hands one \
                     job a one-shot PanicPe fault plan for PE P and requires exactly \
                     one Faulted job."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    // Cross-flag validation happens here, at parse time, so a bad
    // combination fails before any program generation or fault-plan
    // drawing runs. The multichip engine splits the job across
    // exactly 2 simulated chips with npes/2 PEs on each, so an odd PE
    // count cannot be laid out.
    if cycle_box {
        match &mut args.engine {
            Engine::Timed(mode) | Engine::Multichip(mode) => *mode = TimedMode::cycle_box(),
            _ => {
                eprintln!("--cycle-box selects a virtual-time scheduling discipline; it needs --engine timed or --engine multichip");
                std::process::exit(2);
            }
        }
    }
    if matches!(args.engine, Engine::Multichip(_)) && !args.pes.is_multiple_of(2) {
        eprintln!(
            "--engine multichip splits the PE count evenly across 2 chips; \
             --pes {} is odd — pick an even PE count",
            args.pes
        );
        std::process::exit(2);
    }
    // `--engine coop` without `--workers` (or with `--workers 0`) used
    // to hand the backend a zero and let it guess silently — and the
    // replay hint then printed the meaningless `--workers 0`. Resolve
    // the auto-size here, at parse time, with the same rule the backend
    // applies (host parallelism, at least 2, at most one worker per
    // PE), announce it, and bake the concrete M into the hint.
    if let Engine::Coop { workers: w } = &mut args.engine {
        *w = resolve_coop_workers(workers, args.pes);
        if workers == 0 {
            eprintln!(
                "--workers not given (or 0): auto-sized the coop worker pool to {w} \
                 from host parallelism; pass --workers M to pin it"
            );
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(mut opts) = args.serve {
        opts.seed = args.seed;
        let summary = serve(&opts);
        println!(
            "serve: {} jobs in {:.2} jobs/sec — {} completed, {} faulted, {} evicted, \
             {} shed; healthy latency p50={:?} p99={:?}; arenas fresh={} recycled={}; \
             lanes spawned={} reused={} retired={} still live={}",
            summary.jobs,
            summary.jobs_per_sec,
            summary.completed,
            summary.faulted,
            summary.evicted,
            summary.shed,
            summary.p50,
            summary.p99,
            summary.server.arenas_fresh,
            summary.server.arenas_recycled,
            summary.server.lanes_spawned,
            summary.server.lanes_reused,
            summary.server.lanes_retired,
            summary.server.lanes_live,
        );
        if summary.ok() {
            println!("serve: every job resolved in its expected outcome class");
            return ExitCode::SUCCESS;
        }
        for m in &summary.mismatches {
            println!("serve MISMATCH: {m}");
        }
        return ExitCode::from(2);
    }
    let prog = gen_program(&mut RngDraw::new(args.seed, args.case), args.pes);
    // The resolved coop worker count is part of the replay identity
    // (stall windows scale with oversubscription), so the seed line
    // carries it whenever the coop engine runs.
    let workers = match args.engine {
        Engine::Coop { workers } => format!(" workers={workers}"),
        _ => String::new(),
    };
    eprintln!(
        "seed={:#018x} case={} pes={} depth={:?} temp={}B algos={:?} steps={}{workers}",
        args.seed,
        args.case,
        args.pes,
        args.depth,
        prog.temp_bytes,
        prog.algos,
        prog.steps.len()
    );
    let mut plan = args.fault_plan.map(|fp| FaultPlan::from_seed(fp, args.pes));
    if args.canary {
        eprintln!("canary mode: protocol sends degraded to pre-fix blocking sends");
        plan.get_or_insert_with(|| FaultPlan::from([])).faults.push(Fault::BlockingProtocolSends);
    }
    if let Some(plan) = &plan {
        eprintln!("running under {}", plan.describe());
    }
    let hint = {
        let depth = args.depth.unwrap_or(0);
        let canary = if args.canary { " --canary" } else { "" };
        // The scheduling discipline is part of the replay identity: the
        // two modes reach the same final state along different
        // schedules, so the hint must pin the one that failed.
        let cb = |mode| if mode == TimedMode::EventDriven { "" } else { " --cycle-box" };
        let engine = match args.engine {
            Engine::Native => String::new(),
            Engine::Timed(mode) => format!(" --engine timed{}", cb(mode)),
            Engine::Multichip(mode) => format!(" --engine multichip{}", cb(mode)),
            Engine::Coop { workers } => format!(" --engine coop --workers {workers}"),
        };
        let fp = match args.fault_plan {
            Some(s) => format!(" --fault-plan {s:#x}"),
            None => String::new(),
        };
        format!(
            "cargo run -p stress -- --seed {:#x} --case {} --pes {} --depth {}{engine}{fp}{canary}",
            args.seed, args.case, args.pes, depth
        )
    };
    // Odd multichip PE counts were rejected in parse_args, before
    // anything ran.
    let stall = Duration::from_secs(args.stall_secs);
    let outcome = run(&prog, args.depth, plan.as_ref(), &args.engine, stall, &hint);
    match outcome {
        Outcome::Completed => {
            println!("completed: final state matched the sequential oracle on every PE");
            ExitCode::SUCCESS
        }
        Outcome::Stalled(report) => {
            println!("{report}");
            ExitCode::from(2)
        }
    }
}
