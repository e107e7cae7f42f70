//! Small-size self-check of the benchmark: every workload, timed and
//! traced, must pass its output checks with zero failed operations, and
//! its exact work counters must repeat across two runs of one seed. A
//! planted ledger entry with a wrong counter must count as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::util::{counters_json, RunArgs, WORKLOADS};
use perfbench::Sizes;
use std::path::{Path, PathBuf};

fn args(workload: &str, trace: bool, out_dir: &Path) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        out_dir: out_dir.to_path_buf(),
    }
}

// One test: the traced runs switch em-obs tracing, which is process-wide.
#[test]
fn workloads_check_outputs_and_repeat_counters() {
    em_rt::set_threads(2);
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selfcheck");
    let _ = std::fs::remove_dir_all(&out_dir);
    let sizes = Sizes::small();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let a = args(workload, trace, &out_dir);
            let first = perfbench::run(&a, &sizes).expect("workload runs");
            let tag = format!("{workload} trace={trace}");
            assert_eq!(first.failed, 0, "{tag}: {:?}", first.notes);
            assert!(first.attempted > 0, "{tag}: nothing attempted");
            assert!(!first.counters.is_empty(), "{tag}: no work counters");
            assert!(
                first.metrics.iter().all(|m| m.value.is_finite()),
                "{tag}: non-finite metric"
            );
            let again = perfbench::run(&a, &sizes).expect("workload runs again");
            assert_eq!(again.failed, 0, "{tag} (repeat): {:?}", again.notes);
            assert_eq!(first.counters, again.counters, "{tag}: counters drifted");
            if !trace {
                let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
                assert_eq!(
                    names,
                    ["setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib"],
                    "{tag}"
                );
            }
        }
    }

    // Drift detection: plant a wrong counter under a fresh seed's key.
    let mut a = args("serve_repeat", false, &out_dir);
    a.seed = 4;
    let honest = perfbench::run(&a, &sizes).expect("workload runs");
    assert_eq!(honest.failed, 0, "{:?}", honest.notes);
    let mut planted = honest.counters.clone();
    *planted.get_mut("pairs_scored").expect("counter exists") += 1;
    let ledger = out_dir.join("ledger.jsonl");
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let line = text
        .lines()
        .find(|l| l.contains("\"serve_repeat/small-") && l.contains("/seed=4/trace=0\""))
        .expect("ledger entry for the honest run");
    let entry = em_rt::Json::parse(line).expect("ledger line parses");
    let key = entry.get("key").and_then(em_rt::Json::as_str).expect("key");
    let mut kept: Vec<String> = text
        .lines()
        .filter(|l| *l != line)
        .map(str::to_string)
        .collect();
    kept.push(
        em_rt::Json::obj([
            ("key", em_rt::Json::from(key)),
            ("counters", counters_json(&planted)),
        ])
        .render(),
    );
    std::fs::write(&ledger, kept.join("\n") + "\n").expect("rewrite ledger");
    let drifted = perfbench::run(&a, &sizes).expect("workload runs");
    assert_eq!(
        drifted.failed, 1,
        "planted drift not caught: {:?}",
        drifted.notes
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
