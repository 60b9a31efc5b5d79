//! Determinism self-test at small scale: for one seed, two runs of each
//! read-only workload generate the same schedule and report identical
//! count-type metrics, and every answer matches the oracle.

use perfbench::drive::{run, Outcome, RunConfig};
use perfbench::schedule::Workload;
use std::path::PathBuf;

/// Count-type metrics that must repeat exactly for a fixed seed.
const UNTRACED_COUNTS: [&str; 1] = ["resp_kib_per_query"];
const TRACED_COUNTS: [&str; 6] = [
    "cache.response_hit_ratio",
    "pool.misses_per_op",
    "store.records_decoded_per_op",
    "client.blocks_per_query",
    "server.blocks_per_result",
    "codec.answer_kib",
];

fn small(w: Workload, trace: bool, tag: &str) -> Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{}-{tag}", w.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = RunConfig::new(w, 11, 1, trace, dir);
    cfg.patients = 120;
    cfg.setups = 1;
    cfg.timed_ops = Some(24);
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert!(out.correct(), "{}: {:?}", w.name(), out.first_bad);
    assert_eq!(out.failed, 0);
    out
}

#[test]
fn read_only_workloads_repeat_exactly() {
    // One test, run sequentially: the program's metrics registry is
    // process-wide, and the runs read deltas of it.
    for w in [Workload::PointPaged, Workload::ScanHot] {
        for (trace, names) in [(false, &UNTRACED_COUNTS[..]), (true, &TRACED_COUNTS[..])] {
            let a = small(w, trace, "a");
            let b = small(w, trace, "b");
            assert_eq!(a.schedule, b.schedule, "{}", w.name());
            assert_eq!(a.attempted, b.attempted);
            for name in names {
                let (x, y) = (a.metric(name), b.metric(name));
                assert!(x.is_some(), "{}: {name} missing", w.name());
                assert_eq!(x, y, "{}: {name} differs between runs", w.name());
            }
        }
    }
}
