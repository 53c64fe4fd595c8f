//! The compression-build counter counts full pipeline runs only. One
//! `#[test]` in a process of its own, so the exact delta of the
//! process-wide `hddm_compress_builds_total` counter holds.

use hddm_asg::regular_grid;
use hddm_compress::{builds_total, CompressedGrid};

#[test]
fn build_counter_counts_pipeline_runs_only() {
    let grid = regular_grid(3, 3);
    let before = builds_total();
    let _ = CompressedGrid::build(&grid);
    let mut inc = CompressedGrid::empty(3);
    inc.append_nodes(&grid, &(0..grid.len() as u32).collect::<Vec<_>>());
    assert_eq!(builds_total(), before + 1);
}
