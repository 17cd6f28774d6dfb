//! FUSION-MT pinned across commits (DESIGN.md §12).
//!
//! `tests/golden/tiles_small.json` is the stdout of
//! `tile_scaling --scale small --tile-threads 1`: every Table 1 suite on
//! its own tile of one multi-tile system. Replaying it at one and at two
//! tile threads must reproduce the file byte for byte, so a change that
//! moves any tile statistic — on every thread count alike — fails here
//! rather than only in a cross-thread comparison. CI pins the paper
//! scale the same way against `tests/golden/tiles_paper.json`.
//!
//! An intentional model change regenerates the file with the command
//! above and says so in CHANGES.md.

use fusion_core::systems::MultiTileSystem;
use fusion_types::SystemConfig;
use fusion_workloads::{all_suites, build_suite, Scale};

/// The tile stats exactly as `tile_scaling` prints them.
fn tile_scaling_stdout(tile_threads: usize) -> String {
    let workloads: Vec<_> = all_suites()
        .into_iter()
        .map(|s| build_suite(s, Scale::Small))
        .collect();
    let results =
        MultiTileSystem::new(&SystemConfig::small()).run_parallel(&workloads, tile_threads);
    let rows: Vec<String> = results.iter().map(|r| r.to_json()).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[test]
fn small_tiles_match_the_committed_golden_at_one_and_two_threads() {
    let golden = include_str!("golden/tiles_small.json");
    for threads in [1, 2] {
        let out = tile_scaling_stdout(threads);
        if out != golden {
            let line = out
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            panic!(
                "FUSION-MT at {threads} tile thread(s) diverged from tiles_small.json at {line}"
            );
        }
    }
}
