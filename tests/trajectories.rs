//! Tier-1 check of the committed trajectory files: every `BENCH_*.json`
//! at the repository root is a row list that `mo_bench::traj` reads, in
//! the layout its writer produces (so an append changes only the end of
//! the file), and every row says which harness measured what, and where.

use mo_bench::traj;
use oblivious::mo::certify::json::Json;

const FILES: [&str; 4] = [
    "BENCH_rt.json",
    "BENCH_serve.json",
    "BENCH_dist.json",
    "BENCH_sim.json",
];

fn rows(name: &str) -> Vec<Json> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let rows = traj::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        traj::render(&rows) == text,
        "{name} is not in the trajectory writer's layout"
    );
    rows
}

#[test]
fn every_trajectory_row_names_its_harness_measurement_and_host() {
    for name in FILES {
        let rows = rows(name);
        assert!(!rows.is_empty(), "{name} has no rows");
        for (i, row) in rows.iter().enumerate() {
            let what = format!("{name} row {i}");
            assert!(
                row.get("harness").and_then(Json::as_str).is_some(),
                "{what}: harness"
            );
            let pr = row.get("pr").and_then(Json::as_u64);
            let commit = row.get("commit").and_then(Json::as_str);
            assert!(pr.is_some() || commit.is_some(), "{what}: pr or commit");
            match row.get("host") {
                // A back-filled median says where it was published.
                Some(Json::Str(h)) if h == "unrecorded" => {
                    assert!(
                        row.get("source").and_then(Json::as_str).is_some(),
                        "{what}: source"
                    );
                }
                Some(Json::Obj(_)) => {}
                other => panic!("{what}: host stamp {other:?}"),
            }
        }
    }
}

/// A `mo-benchmark` row holds a parent and a change median of the same
/// `BENCHMARK.json` metrics, for a workload that belongs in its file.
#[test]
fn benchmark_rows_pair_parent_and_change_medians_per_workload() {
    let workloads = [
        (
            "BENCH_serve.json",
            &["serve_mixed", "serve_burst_small"][..],
        ),
        ("BENCH_dist.json", &["dist_sort", "dist_ngep"][..]),
        ("BENCH_sim.json", &["sim_replay"][..]),
    ];
    let metrics = [
        "throughput_ops_s",
        "op_p50_ms",
        "op_tail_ms",
        "setup_s",
        "peak_rss_mib",
    ];
    for (name, wanted) in workloads {
        for (i, row) in rows(name).iter().enumerate() {
            let what = format!("{name} row {i}");
            assert_eq!(
                row.get("harness").and_then(Json::as_str),
                Some("mo-benchmark")
            );
            let workload = row.get("workload").and_then(Json::as_str);
            assert!(
                wanted.contains(&workload.unwrap_or("")),
                "{what}: {workload:?}"
            );
            let keys = |side: &str| match row.get(side) {
                Some(Json::Obj(fields)) => {
                    for (k, v) in fields {
                        assert!(metrics.contains(&k.as_str()), "{what}: {side}.{k}");
                        assert!(v.as_f64().is_some_and(|v| v > 0.0), "{what}: {side}.{k}");
                    }
                    fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
                }
                other => panic!("{what}: {side} is {other:?}"),
            };
            let parent = keys("parent");
            assert!(parent.iter().any(|k| k == "throughput_ops_s"), "{what}");
            assert_eq!(parent, keys("change"), "{what}");
        }
    }
}

/// `BENCH_rt.json` starts with the record PR 20 wrote, its numbers as
/// they were.
#[test]
fn the_runtime_trajectory_starts_at_the_pr_20_record() {
    let rows = rows("BENCH_rt.json");
    let first = &rows[0];
    assert_eq!(
        first.get("harness").and_then(Json::as_str),
        Some("bench_rt")
    );
    assert_eq!(first.get("pr").and_then(Json::as_u64), Some(20));
    assert_eq!(first.get("median_of").and_then(Json::as_u64), Some(7));
    let kernels = first.get("kernels").and_then(Json::as_arr).unwrap();
    let pool_ns: Vec<u64> = kernels
        .iter()
        .map(|k| k.get("pool_ns").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(
        pool_ns,
        [3467591, 3398622, 8151881, 18002341, 4443874, 22519234]
    );
}
