//! `grid_paper` and `grid_l2`: design-space sweeps at paper scale.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fusion_accel::io::encode_workload;
use fusion_accel::{DecodedTrace, Workload};
use fusion_core::journal::{fnv1a, scale_label};
use fusion_core::memo::run_fold;
use fusion_core::{
    code_version, design_grid, full_grid, plan_resume, read_journal, run_system_guarded_memo,
    JournalHeader, JournalRow, JournalSink, JournalWriter, MemoMark, MemoProbe, PhaseMemo,
    RunControl, RunKey, SimResult, Sweep, SweepJob, SystemKind, TraceCache,
};
use fusion_types::error::SimError;
use fusion_types::{SystemConfig, CACHE_BLOCK_BYTES};
use fusion_workloads::{build_suite, Scale, SuiteId};

use crate::layers::{from_spans, hw_totals, Layers};
use crate::procfs::cpu_seconds;
use crate::reference::{digest, key};
use crate::rep::{Checker, Rep};
use crate::spans::{durations_ms, Tracer};
use crate::stats::{median, ratio, JobTime};
use crate::{paper, shuffle};

const SCALE: Scale = Scale::Paper;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// `design_grid(&SystemConfig::small())`: 196 points, 105 memo hits.
    Paper,
    /// `full_grid` at L2 = 1, 2, 4, 8 MB: 112 points, no memo hits,
    /// journaled.
    L2,
}

impl Grid {
    pub fn name(self) -> &'static str {
        match self {
            Grid::Paper => "grid_paper",
            Grid::L2 => "grid_l2",
        }
    }

    /// The grid in the seed's submission order.
    pub fn jobs(self, seed: u64) -> Vec<SweepJob> {
        let mut jobs = match self {
            Grid::Paper => design_grid(&SystemConfig::small()),
            Grid::L2 => [1usize, 2, 4, 8]
                .into_iter()
                .flat_map(|mb| {
                    let mut cfg = SystemConfig::small();
                    cfg.l2.capacity_bytes = mb << 20;
                    full_grid(&cfg).into_iter().map(move |mut job| {
                        job.variant = format!("l2_{mb}m");
                        job
                    })
                })
                .collect(),
        };
        shuffle(&mut jobs, seed);
        jobs
    }

    /// Variant label of the rows at the base configuration.
    fn base_variant(self) -> &'static str {
        match self {
            Grid::Paper => "base",
            Grid::L2 => "l2_4m",
        }
    }

    /// Memo hits the grid must see (fallbacks must always be 0).
    fn expected_hits(self) -> u64 {
        match self {
            Grid::Paper => 105,
            Grid::L2 => 0,
        }
    }

    fn journaled(self) -> bool {
        self == Grid::L2
    }
}

fn journal_header(jobs: usize) -> JournalHeader {
    JournalHeader {
        scale: scale_label(SCALE).to_string(),
        code_version: code_version(),
        grid: jobs,
    }
}

/// Runs the trace analysis the job's system replays with: the oracle DMA
/// windows for SC, the forwarding pairs for FU-Dx (SH and FU have none).
fn analysis(wl: &Workload, decoded: &DecodedTrace, job: &SweepJob) {
    match job.system {
        SystemKind::Scratch => {
            decoded.dma_windows(wl, job.config.scratchpad.capacity_bytes / CACHE_BLOCK_BYTES);
        }
        SystemKind::FusionDx => {
            decoded.forward_pairs(wl, job.config.l0x.blocks());
        }
        SystemKind::Shared | SystemKind::Fusion => {}
    }
}

fn row_key(grid: Grid, job: &SweepJob) -> String {
    key(&[
        grid.name(),
        job.system.label(),
        job.suite.label(),
        &job.variant,
    ])
}

/// Checks one grid point and records its output.
fn check_point(
    grid: Grid,
    job: &SweepJob,
    result: &Result<SimResult, impl std::fmt::Display>,
    rep: &mut Rep,
    check: &mut Checker,
) {
    match result {
        Ok(res) => check.op(
            rep,
            vec![(row_key(grid, job), digest(&res.to_json()))],
            None,
        ),
        Err(e) => check.op(rep, Vec::new(), Some(format!("{}: {e}", job.label()))),
    }
}

fn paper_err_of(grid: Grid, rows: &[(&SweepJob, &SimResult)]) -> Result<f64, String> {
    let base: BTreeMap<(&str, &str), &SimResult> = rows
        .iter()
        .filter(|(job, _)| job.variant == grid.base_variant())
        .map(|(job, res)| ((job.system.label(), job.suite.label()), *res))
        .collect();
    paper::paper_err_of(&|sys, suite| base.get(&(sys, suite)).copied())
}

fn check_memo(grid: Grid, hits: u64, fallbacks: u64, check: &mut Checker) {
    check.assert(hits == grid.expected_hits() && fallbacks == 0, || {
        format!(
            "{}: memo {hits} hits / {fallbacks} fallbacks, expected {} / 0",
            grid.name(),
            grid.expected_hits()
        )
    });
}

/// One untraced repetition: set-up, then `Sweep::run` as `sim sweep
/// --scale paper --threads 1` runs it.
pub fn untraced(grid: Grid, seed: u64, run_dir: &Path, check: &mut Checker) -> Rep {
    let jobs = grid.jobs(seed);
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();

    let traces = Arc::new(TraceCache::new());
    for job in &jobs {
        let trace = traces.get(job.suite, SCALE);
        analysis(&trace.workload, &trace.decoded, job);
    }
    rep.setup_s = t0.elapsed().as_secs_f64();

    let mut sweep = Sweep::new(SCALE)
        .threads(1)
        .with_trace_cache(Arc::clone(&traces));
    let mut sink = None;
    if grid.journaled() {
        match JournalWriter::create(&journal_path(run_dir), &journal_header(jobs.len())) {
            Ok(w) => {
                let s = Arc::new(JournalSink::new(w));
                sweep = sweep.with_journal(Arc::clone(&s));
                sink = Some(s);
            }
            Err(e) => check.assert(false, || format!("journal create: {e}")),
        }
    }
    let run_start = Instant::now();
    let outcomes = sweep.run(jobs.clone());
    let run_ns = run_start.elapsed().as_nanos() as f64;

    for o in &outcomes {
        check_point(grid, &o.job, &o.result, &mut rep, check);
    }
    let memo = sweep.memo_stats();
    check_memo(grid, memo.hits, memo.digest_fallbacks, check);
    if let Some(s) = &sink {
        check.assert(s.lost().is_none(), || {
            format!("journal lost: {:?}", s.lost())
        });
    }
    check.assert_complete(grid.name(), &rep);
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;

    let mut times = Vec::new();
    let mut queue_ns = 0.0;
    for o in &outcomes {
        let Ok(res) = &o.result else { continue };
        let t = JobTime {
            mark: o.memo.mark,
            refs: res.metrics.refs_simulated,
            nanos: res.metrics.wall_nanos,
        };
        rep.jobs.push((row_key(grid, &o.job), t));
        queue_ns += res.metrics.queue_delay_nanos as f64;
        times.push(t);
    }
    let rows: Vec<(&SweepJob, &SimResult)> = outcomes
        .iter()
        .filter_map(|o| Some((&o.job, o.result.as_ref().ok()?)))
        .collect();
    match paper_err_of(grid, &rows) {
        Ok(e) => rep.paper_err = Some(e),
        Err(e) => check.assert(false, || e),
    }

    let job_ns: f64 = times.iter().map(|t| t.nanos as f64).sum();
    let retries: u32 = outcomes.iter().map(|o| o.attempts.saturating_sub(1)).sum();
    rep.layers.insert(
        "sweep.queue_ms".into(),
        ratio(queue_ns, times.len() as f64) / 1e6,
    );
    rep.layers
        .insert("sweep.overhead_ms".into(), (run_ns - job_ns) / 1e6);
    rep.layers
        .insert("sweep.retries".into(), f64::from(retries));
    rep
}

pub fn journal_path(run_dir: &Path) -> PathBuf {
    run_dir.join("grid_l2.wal")
}

/// One traced repetition: the calls the sequential sweep path makes,
/// one public function at a time, each inside a span. Returns the
/// repetition's outputs and its per-layer metrics.
pub fn traced(
    grid: Grid,
    seed: u64,
    run_dir: &Path,
    tr: &mut Tracer,
    check: &mut Checker,
) -> (Rep, Layers) {
    let jobs = grid.jobs(seed);
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let memo = PhaseMemo::new();
    let mut built: HashMap<SuiteId, (Workload, DecodedTrace)> = HashMap::new();
    let mut fingerprints: HashMap<SuiteId, u64> = HashMap::new();
    let mut results: Vec<Result<SimResult, SimError>> = Vec::with_capacity(jobs.len());
    let mut marks: Vec<MemoMark> = Vec::with_capacity(jobs.len());
    let path = journal_path(run_dir);

    tr.span("workload", |tr| {
        tr.span("setup", |tr| {
            for job in &jobs {
                let (wl, decoded) = built.entry(job.suite).or_insert_with(|| {
                    tr.span("trace_cache.get", |tr| {
                        let wl =
                            tr.span("workloads.build_suite", |_| build_suite(job.suite, SCALE));
                        let decoded = tr.span("accel.decode", |_| DecodedTrace::decode(&wl));
                        (wl, decoded)
                    })
                });
                tr.span("accel.analysis", |_| analysis(wl, decoded, job));
            }
        });
        let mut writer = None;
        if grid.journaled() {
            let header = journal_header(jobs.len());
            match tr.span("journal.create", |_| JournalWriter::create(&path, &header)) {
                Ok(w) => writer = Some(w),
                Err(e) => check.assert(false, || format!("journal create: {e}")),
            }
        }
        tr.span("sweep", |tr| {
            for (i, job) in jobs.iter().enumerate() {
                let (wl, decoded) = &built[&job.suite];
                tr.job_span("sweep.job", Some(i), |tr| {
                    let key = tr.job_span("memo.key", Some(i), |_| RunKey {
                        system: job.system,
                        suite: job.suite,
                        scale: SCALE,
                        fold: run_fold(job.system, wl, &job.config),
                        phases: wl.phases.len(),
                    });
                    let probe = MemoProbe::new(&memo, key);
                    let label = job.label();
                    let ctl = RunControl {
                        label: &label,
                        ..RunControl::default()
                    };
                    let result = tr.job_span("replay", Some(i), |_| {
                        run_system_guarded_memo(
                            job.system,
                            wl,
                            decoded,
                            &job.config,
                            &ctl,
                            Some(&probe),
                        )
                    });
                    if probe.mark() == MemoMark::Hit {
                        tr.rename_last("replay", "memo.splice");
                    }
                    if let (Some(w), Ok(res)) = (writer.as_mut(), &result) {
                        let fp = *fingerprints.entry(job.suite).or_insert_with(|| {
                            tr.job_span("accel.encode", Some(i), |_| fnv1a(&encode_workload(wl)))
                        });
                        let row = tr.job_span("journal.row", Some(i), |_| {
                            JournalRow::for_result(job, SCALE, res, 1, 0, fp)
                        });
                        if let Err(e) = tr.job_span("journal.append", Some(i), |_| w.append(&row)) {
                            check.assert(false, || format!("journal append: {e}"));
                        }
                    }
                    marks.push(probe.mark());
                    results.push(result);
                });
            }
        });
        if grid.journaled() {
            let read = tr.span("journal.read", |_| {
                std::fs::read(&path).map(|bytes| (bytes.len(), read_journal(&bytes)))
            });
            match read {
                Ok((bytes, recovery)) => {
                    let plan = tr.span("journal.plan", |_| {
                        plan_resume(&jobs, SCALE, &recovery, &code_version(), &mut |s| {
                            fingerprints.get(&s).copied().unwrap_or(0)
                        })
                    });
                    let rows_ok = plan.as_ref().map_or(0, |p| p.resumed_count());
                    layers.insert("journal.bytes".into(), bytes as f64);
                    layers.insert("journal.rows_ok".into(), rows_ok as f64);
                    check.assert(rows_ok == jobs.len(), || {
                        format!("journal resumes {rows_ok} of {} rows", jobs.len())
                    });
                }
                Err(e) => check.assert(false, || format!("journal read: {e}")),
            }
        }
        tr.span("check", |_| {
            for (job, result) in jobs.iter().zip(&results) {
                check_point(grid, job, result, &mut rep, check);
            }
            let m = memo.stats();
            check_memo(grid, m.hits, m.digest_fallbacks, check);
            check.assert_complete(grid.name(), &rep);
        });
    });

    let spans = tr.spans();
    from_spans(spans, &mut layers);
    let refs_of = |i: usize| built[&jobs[i].suite].1.total_refs();
    let mut by_system: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut by_suite: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut replay_events = 0u64;
    for s in spans.iter().filter(|s| s.name == "replay") {
        let i = s.job.expect("replay spans carry their job");
        for (map, label) in [
            (&mut by_system, jobs[i].system.label()),
            (&mut by_suite, jobs[i].suite.label()),
        ] {
            let e = map.entry(label).or_default();
            e.0 += refs_of(i);
            e.1 += s.nanos();
        }
        if let Ok(res) = &results[i] {
            replay_events += res.total_sim_events();
        }
    }
    for (label, (refs, ns)) in &by_system {
        let name = label.to_lowercase();
        layers.insert(format!("replay.{name}_ms"), *ns as f64 / 1e6);
        layers.insert(
            format!("replay.{name}_mrefs_s"),
            ratio(*refs as f64 * 1e3, *ns as f64),
        );
    }
    for (label, (refs, ns)) in &by_suite {
        let name = label.trim_end_matches('.').to_lowercase();
        layers.insert(
            format!("replay.{name}_mrefs_s"),
            ratio(*refs as f64 * 1e3, *ns as f64),
        );
    }
    let (replayed_refs, replay_ns) = by_system
        .values()
        .fold((0, 0), |(r, n), (dr, dn)| (r + dr, n + dn));
    layers.insert("replay.refs".into(), replayed_refs as f64);
    layers.insert(
        "replay.ns_per_event".into(),
        ratio(replay_ns as f64, replay_events as f64),
    );
    layers.insert(
        "workloads.refs".into(),
        built.values().map(|(_, d)| d.total_refs()).sum::<u64>() as f64,
    );
    let m = memo.stats();
    layers.insert("memo.hits".into(), m.hits as f64);
    layers.insert("memo.misses".into(), m.misses as f64);
    layers.insert("memo.fallbacks".into(), m.digest_fallbacks as f64);
    layers.insert("memo.hit_rate".into(), m.hit_rate());
    let spliced: u64 = (0..jobs.len())
        .filter(|&i| marks[i] == MemoMark::Hit)
        .map(refs_of)
        .sum();
    layers.insert("memo.refs_spliced".into(), spliced as f64);
    layers.insert(
        "journal.append_p50_ms".into(),
        median(&durations_ms(spans, "journal.append")),
    );
    hw_totals(results.iter().flatten(), &mut layers);
    (rep, layers)
}
