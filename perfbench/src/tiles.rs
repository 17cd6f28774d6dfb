//! `tiles_paper`: the seven paper-scale suites on seven FUSION tiles,
//! replayed by `MultiTileSystem` with round-barrier snapshot/merge.

use std::time::Instant;

use fusion_accel::Workload;
use fusion_core::systems::MultiTileSystem;
use fusion_core::{MemoMark, RunControl, SimResult};
use fusion_types::SystemConfig;
use fusion_workloads::{all_suites, build_suite, Scale};

use crate::layers::{from_spans, hw_totals, Layers};
use crate::procfs::cpu_seconds;
use crate::reference::{digest, key};
use crate::rep::{Checker, Rep};
use crate::shuffle;
use crate::spans::{durations_ms, Tracer};
use crate::stats::{median, ratio, JobTime};

pub const NAME: &str = "tiles_paper";

/// Tile passes per repetition.
const PASSES: usize = 4;

/// Tile worker threads of a measured pass (the box has two cores).
const TILE_THREADS: usize = 2;

/// Builds the seven suites in the seed's order and returns them in
/// suite order, which fixes each suite's tile.
fn build(seed: u64, mut tr: Option<&mut Tracer>) -> Vec<Workload> {
    let mut order: Vec<usize> = (0..all_suites().len()).collect();
    shuffle(&mut order, seed);
    let mut built: Vec<Option<Workload>> = all_suites().iter().map(|_| None).collect();
    for i in order {
        let suite = all_suites()[i];
        built[i] = Some(match tr.as_deref_mut() {
            Some(tr) => tr.span("workloads.build_suite", |_| {
                build_suite(suite, Scale::Paper)
            }),
            None => build_suite(suite, Scale::Paper),
        });
    }
    built
        .into_iter()
        .map(|w| w.expect("every suite index is in the permutation"))
        .collect()
}

fn pass(wls: &[Workload], threads: usize) -> Result<Vec<SimResult>, String> {
    MultiTileSystem::new(&SystemConfig::small())
        .run_guarded(wls, &RunControl::default(), threads)
        .map_err(|e| format!("tile pass ({threads} threads): {e}"))
}

fn check_pass(result: &Result<Vec<SimResult>, String>, rep: &mut Rep, check: &mut Checker) {
    match result {
        Ok(tiles) if tiles.len() == all_suites().len() => {
            let outputs = tiles
                .iter()
                .zip(all_suites())
                .enumerate()
                .map(|(i, (res, suite))| {
                    let tile = format!("tile{i}");
                    (key(&[NAME, &tile, suite.label()]), digest(&res.to_json()))
                })
                .collect();
            check.op(rep, outputs, None);
        }
        Ok(tiles) => check.op(
            rep,
            Vec::new(),
            Some(format!("{} tile results", tiles.len())),
        ),
        Err(e) => check.op(rep, Vec::new(), Some(e.clone())),
    }
}

fn total_refs(wls: &[Workload]) -> u64 {
    wls.iter().map(Workload::total_refs).sum()
}

pub fn untraced(seed: u64, check: &mut Checker) -> Rep {
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let wls = build(seed, None);
    rep.setup_s = t0.elapsed().as_secs_f64();
    for _ in 0..PASSES {
        let t = Instant::now();
        let result = pass(&wls, TILE_THREADS);
        let nanos = t.elapsed().as_nanos() as u64;
        check_pass(&result, &mut rep, check);
        let pass = JobTime {
            mark: MemoMark::Off,
            refs: total_refs(&wls),
            nanos,
        };
        rep.jobs.push((key(&[NAME, "pass"]), pass));
    }
    check.assert_complete(NAME, &rep);
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;
    rep
}

/// One traced repetition; the single-thread passes run after the
/// `workload` span so its duration stays comparable to the untraced wall.
pub fn traced(seed: u64, tr: &mut Tracer, check: &mut Checker) -> (Rep, Layers) {
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let mut last = None;
    let wls = tr.span("workload", |tr| {
        let wls = tr.span("setup", |tr| build(seed, Some(tr)));
        for _ in 0..PASSES {
            let result = tr.span("tiles.pass", |_| pass(&wls, TILE_THREADS));
            tr.span("check", |_| check_pass(&result, &mut rep, check));
            last = result.ok();
        }
        wls
    });
    tr.span("tiles.seq", |tr| {
        for _ in 0..PASSES {
            let result = tr.span("tiles.seq_pass", |_| pass(&wls, 1));
            check_pass(&result, &mut rep, check);
        }
    });
    check.assert_complete(NAME, &rep);

    let spans = tr.spans();
    from_spans(spans, &mut layers);
    let par = median(&durations_ms(spans, "tiles.pass"));
    let seq = median(&durations_ms(spans, "tiles.seq_pass"));
    layers.insert("workloads.refs".into(), total_refs(&wls) as f64);
    layers.insert("tiles.pass_ms".into(), par);
    layers.insert("tiles.seq_pass_ms".into(), seq);
    layers.insert("tiles.speedup".into(), ratio(seq, par));
    layers.insert("tiles.refs".into(), total_refs(&wls) as f64);
    hw_totals(last.iter().flatten(), &mut layers);
    (rep, layers)
}
