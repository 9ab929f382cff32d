//! The benchmark checked at its `--quick` size: the registry and
//! `BENCHMARK.json` agree with each other and with what every workload
//! prints, a corrupted result is caught, and the seed reaches the inputs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;

use tshmem_benchmark::harness::{self, RunArgs};
use tshmem_benchmark::workloads::{coll, fft2d_app, rma_native, server_jobs, timed_paper};
use tshmem_benchmark::{affinity, json, registry, Workload};

/// Workloads pin threads and flip process-wide switches (span recording,
/// coop locality): one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick(workload: &str, seed: u64, trace: bool) -> harness::Report {
    let args = RunArgs {
        workload: workload.into(),
        seed,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans"),
    };
    harness::run(&args).expect("quick run")
}

fn valid_name(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn registry_is_well_formed_and_is_the_manifest() {
    assert!((2..=8).contains(&registry::WORKLOADS.len()));
    assert!((1..=16).contains(&registry::END_TO_END.len()));
    assert!((1..=128).contains(&registry::PER_LAYER.len()));
    assert!((1..=60).contains(&registry::RUN_SECONDS));
    let mut names = BTreeSet::new();
    for w in &registry::WORKLOADS {
        assert!(
            valid_name(w.name, 64, "_.-")
                && w.name.starts_with(|c: char| c.is_ascii_alphanumeric())
        );
        // The design rule: a full-size run is a median over at least 24 epochs.
        let epochs = harness::epochs_for(w, f64::from(registry::RUN_SECONDS), false);
        assert!(epochs >= harness::MIN_EPOCHS, "{}: {epochs} epochs", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(names.insert(w.name), "duplicate {}", w.name);
    }
    for m in &registry::END_TO_END {
        assert!(
            valid_name(m.name, 64, "_.-") && valid_name(m.unit, 16, "_/%.-"),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25 && ["lower", "higher"].contains(&m.better));
        assert!(names.insert(m.name), "duplicate {}", m.name);
    }
    assert!(registry::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    for m in registry::PER_LAYER {
        assert!(
            valid_name(m.name, 64, "_.-") && valid_name(m.unit, 16, "_/%.-"),
            "{}",
            m.name
        );
        assert!(["lower", "higher"].contains(&m.better));
        assert!(names.insert(m.name), "duplicate {}", m.name);
        for (metric, workload) in m.moves {
            assert!(
                registry::END_TO_END.iter().any(|e| e.name == *metric),
                "{}: {metric}",
                m.name
            );
            assert!(
                registry::workload(workload).is_some(),
                "{}: {workload}",
                m.name
            );
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        registry::manifest_json(),
        "regenerate with `tshmem-benchmark manifest`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let v = json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_workload_prints_exactly_the_registered_names() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let end_to_end: Vec<&str> = registry::END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = registry::PER_LAYER.iter().map(|m| m.name).collect();
    for w in &registry::WORKLOADS {
        let plain = quick(w.name, 7, false);
        assert!(
            plain.correct && plain.failed == 0 && plain.attempted >= 1,
            "{}",
            w.name
        );
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, end_to_end, "{}", w.name);
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0",
            w.name
        );
        // Fixed work: the same seed attempts the same operations.
        assert_eq!(
            quick(w.name, 7, false).attempted,
            plain.attempted,
            "{}",
            w.name
        );

        let traced = quick(w.name, 7, true);
        assert!(traced.correct, "{}", w.name);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer, "{}", w.name);
        let line = json::parse(&traced.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let prov = json::parse(&traced.provenance).expect("provenance line is JSON");
        for key in [
            "nproc",
            "allowed_cpus",
            "pinned_cpu",
            "seed",
            "epochs",
            "rounds",
            "git_rev",
            "rustc",
        ] {
            assert!(
                prov.get("provenance").and_then(|p| p.get(key)).is_some(),
                "{}: {key}",
                w.name
            );
        }
        if w.name == "server_jobs" {
            let slots = prov
                .get("provenance")
                .and_then(|p| p.get("server_slots"))
                .and_then(json::Value::as_f64);
            assert_eq!(slots, Some(2.0), "slots as the running server reports them");
        }
    }
}

#[test]
fn a_corrupted_result_flips_correct() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let allowed = affinity::allowed_cpus();
    let failed =
        |w: &mut dyn Workload, epochs: u32| (0..epochs).map(|e| w.epoch(e).failed).sum::<u64>();

    let mut w = rma_native::RmaNative::new(3, true, &allowed);
    assert_eq!(failed(&mut w, 1), 0);
    w.corrupt = true;
    assert!(failed(&mut w, 1) > 0, "rma_native");

    let mut w = coll::Coll::flat32(3, true);
    assert_eq!(failed(&mut w, 1), 0);
    w.corrupt = true;
    assert!(failed(&mut w, 1) > 0, "coll");

    let mut w = fft2d_app::Fft2dApp::new(3, true, &allowed);
    assert_eq!(failed(&mut w, 1), 0);
    w.corrupt = true;
    assert!(failed(&mut w, 1) > 0, "fft2d_app");

    // The timed engine's check is that simulated clocks repeat: the hook
    // perturbs the second epoch only.
    let mut w = timed_paper::TimedPaper::new(3, true);
    assert_eq!(failed(&mut w, 2), 0);
    let mut w = timed_paper::TimedPaper::new(3, true);
    w.corrupt = true;
    assert!(failed(&mut w, 2) > 0, "timed_paper");

    let mut w = server_jobs::ServerJobs::new(3, true);
    assert_eq!(failed(&mut w, 1), 0);
    w.corrupt = true;
    assert_eq!(
        failed(&mut w, 1),
        1,
        "server_jobs: exactly the corrupted job"
    );
}

#[test]
fn the_seed_reaches_the_inputs() {
    assert_eq!(rma_native::program(1, 2, 50), rma_native::program(1, 2, 50));
    assert_ne!(rma_native::program(1, 2, 50), rma_native::program(2, 2, 50));
    assert_eq!(server_jobs::jobs(1, 0, 40), server_jobs::jobs(1, 0, 40));
    assert_ne!(server_jobs::jobs(1, 0, 40), server_jobs::jobs(2, 0, 40));
    // The mix does not depend on the seed: one 8-PE job in five, always.
    for seed in [1, 2, 3] {
        assert_eq!(
            server_jobs::jobs(seed, 0, 40)
                .iter()
                .filter(|j| j.npes == 8)
                .count(),
            8
        );
    }
    // Same multiset of operation kinds whatever the seed.
    let kinds = |seed| {
        let mut k: Vec<String> = rma_native::program(seed, 1, 50)[0]
            .iter()
            .map(|op| format!("{:?}/{}", op.kind, op.words))
            .collect();
        k.sort();
        k
    };
    assert_eq!(kinds(1), kinds(2));
}
