//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen
//! ```
//!
//! The benchmark drives the simulator's public functions from outside
//! and times those calls. It repeats the workload until `--seconds` have
//! passed, checks every output against `reference.txt`, and prints one
//! JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a separate traced
//! run with `--trace 1`. End-to-end host times are corrected for the
//! host's speed during the run, which a probe thread measures (`host`).
//! `--regen` rewrites `reference.txt`. See README.md for the metrics,
//! workloads and findings.

mod grid;
mod host;
mod layers;
mod paper;
mod procfs;
mod reference;
mod rep;
mod spans;
mod stats;
mod tiles;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fusion_core::MemoMark;
use grid::Grid;
use host::HostProbe;
use layers::{Layers, PER_LAYER};
use reference::Reference;
use rep::{Checker, Rep};
use spans::{total_ms, Tracer};
use stats::{median, percentile, ReplayAccount};

const USAGE: &str = "usage: perfbench --workload <grid_paper|grid_l2|tiles_paper|verify_acc> \
                     --seed <n> --seconds <1..=120> --trace <0|1>\n       perfbench --regen";

/// Printed for an end-to-end metric that a workload does not exercise
/// (no replay in `verify_acc`, no model check in the replay workloads, no
/// base-config grid rows outside the grids), so every run reports the
/// full metric set with nonzero values.
const NOT_APPLICABLE: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    Grid(Grid),
    Tiles,
    Verify,
}

const ALL: [Work; 4] = [
    Work::Grid(Grid::Paper),
    Work::Grid(Grid::L2),
    Work::Tiles,
    Work::Verify,
];

impl Work {
    fn name(self) -> &'static str {
        match self {
            Work::Grid(g) => g.name(),
            Work::Tiles => tiles::NAME,
            Work::Verify => verify::NAME,
        }
    }

    fn untraced(self, seed: u64, run_dir: &Path, check: &mut Checker) -> Rep {
        match self {
            Work::Grid(g) => grid::untraced(g, seed, run_dir, check),
            Work::Tiles => tiles::untraced(seed, check),
            Work::Verify => verify::untraced(check),
        }
    }

    fn traced(
        self,
        seed: u64,
        run_dir: &Path,
        tr: &mut Tracer,
        check: &mut Checker,
    ) -> (Rep, Layers) {
        match self {
            Work::Grid(g) => grid::traced(g, seed, run_dir, tr, check),
            Work::Tiles => tiles::traced(seed, tr, check),
            Work::Verify => verify::traced(tr, check),
        }
    }
}

struct Args {
    work: Work,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--regen"] {
        return Ok(None);
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        if opts.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| {
        opts.get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let work = ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Some(Args {
        work,
        seed,
        seconds,
        trace,
    }))
}

/// SplitMix64 Fisher-Yates shuffle: the seed fixes the order of the
/// work, never its outcome.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn run_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The end-to-end metrics of a set of untraced repetitions. Host times
/// are medians over the repetitions (per operation key for the operation
/// latencies, after rescaling each sample to the median repetition)
/// divided by the run's host correction `host`; host rates are multiplied
/// by it.
fn end_to_end(
    reps: &[Rep],
    peak_rss_mib: f64,
    host: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let of = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>()) / host;
    let samples = stats::scale_to_median_rep(reps.iter().map(|r| (r.wall_s, &r.jobs[..])));
    let per_job = stats::median_per_job(&samples);
    // Latency of an operation that did work: a memo splice is not one.
    let op_ms: Vec<f64> = per_job
        .iter()
        .filter(|j| j.mark != MemoMark::Hit)
        .map(|j| j.nanos as f64 / 1e6 / host)
        .collect();
    let replay = ReplayAccount::of(&per_job);
    let states: Vec<f64> = reps.iter().filter_map(|r| r.states_per_s).collect();
    let rate_or_na = |applies: bool, rate: f64| {
        if applies {
            rate * host
        } else {
            NOT_APPLICABLE
        }
    };
    let paper_err = reps
        .iter()
        .find_map(|r| r.paper_err)
        .unwrap_or(NOT_APPLICABLE);
    vec![
        ("setup_s", of(|r| r.setup_s), "s"),
        ("wall_s", of(|r| r.wall_s), "s"),
        ("cpu_s", of(|r| r.cpu_s), "s"),
        (
            "replay_mrefs_s",
            rate_or_na(replay.replayed_refs > 0, replay.mrefs_per_s()),
            "Mrefs/s",
        ),
        ("job_p50_ms", percentile(&op_ms, 0.5), "ms"),
        ("job_p80_ms", percentile(&op_ms, 0.8), "ms"),
        ("peak_rss_mb", peak_rss_mib, "MiB"),
        (
            "states_per_s",
            rate_or_na(!states.is_empty(), median(&states)),
            "1/s",
        ),
        ("paper_err", paper_err, "ln"),
    ]
}

/// Medians of the per-layer values over traced repetitions (absent = 0).
fn per_layer(samples: &[Layers]) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let xs: Vec<f64> = samples
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&xs), unit)
        })
        .collect()
}

fn result_json(check: &Checker, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.failed == 0,
        check.attempted,
        check.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn measure(args: &Args, reference: &Reference) -> Result<String, String> {
    let run_dir = run_dir()?;
    let mut check = Checker::new(reference);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut layer_samples = Vec::new();
    let mut span_log = String::new();
    let mut peak_rss_mib = 0.0;
    let probe = HostProbe::start();
    loop {
        // Traced and untraced repetitions alternate which goes first, so
        // warm-up does not land on one side of the overhead.
        let traced_first = args.trace && reps.len() % 2 == 1;
        let mut tr = Tracer::new();
        let mut traced =
            traced_first.then(|| args.work.traced(args.seed, &run_dir, &mut tr, &mut check));
        let rep = args.work.untraced(args.seed, &run_dir, &mut check);
        if reps.is_empty() {
            // The high-water mark of one repetition: later repetitions
            // only add allocator slack.
            peak_rss_mib = procfs::peak_rss_mib();
        }
        if args.trace && traced.is_none() {
            traced = Some(args.work.traced(args.seed, &run_dir, &mut tr, &mut check));
        }
        if let Some((traced, mut layers)) = traced {
            check.assert(traced.outputs == rep.outputs, || {
                format!("{}: traced outputs differ from untraced", args.work.name())
            });
            let traced_ms = total_ms(tr.spans(), "workload");
            eprintln!(
                "traced repetition {}: wall {:.4} s",
                reps.len(),
                traced_ms / 1e3
            );
            layers.insert("trace.overhead_ms".into(), traced_ms - rep.wall_s * 1e3);
            layers.extend(rep.layers.iter().map(|(k, v)| (k.clone(), *v)));
            tr.write_jsonl(layer_samples.len(), &mut span_log);
            layer_samples.push(layers);
        }
        eprintln!(
            "repetition {}: setup {:.4} s, wall {:.4} s, cpu {:.2} s",
            reps.len(),
            rep.setup_s,
            rep.wall_s,
            rep.cpu_s
        );
        reps.push(rep);
        if start.elapsed() >= budget {
            break;
        }
    }
    let host = probe.finish();
    let _ = std::fs::remove_file(grid::journal_path(&run_dir));

    let metrics = if args.trace {
        let spans_path = run_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.work.name(),
            args.seed
        ));
        std::fs::write(&spans_path, span_log)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        eprintln!("spans: {}", spans_path.display());
        for layers in &mut layer_samples {
            layers.insert("host.probe_ms".into(), host.median_ms);
        }
        per_layer(&layer_samples)
    } else {
        end_to_end(&reps, peak_rss_mib, host.correction())
    };
    eprintln!(
        "{}: seed {}, {} repetition(s), {:.1} s, host probe {:.4} ms over {} samples (factor {:.4}, correction {:.4})",
        args.work.name(),
        args.seed,
        reps.len(),
        start.elapsed().as_secs_f64(),
        host.median_ms,
        host.samples,
        host.factor(),
        host.correction()
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<24} {value:>16.6} {unit}");
    }
    for p in check.problems.iter().take(20) {
        eprintln!("FAILED: {p}");
    }
    Ok(result_json(&check, &metrics))
}

/// Runs each workload once and rewrites `reference.txt` from its outputs.
fn regen() -> Result<(), String> {
    let run_dir = run_dir()?;
    let empty = Reference::default();
    let mut entries = BTreeMap::new();
    for work in ALL {
        let mut check = Checker::new(&empty);
        let rep = work.untraced(0, &run_dir, &mut check);
        if check.errors > 0 {
            return Err(format!(
                "{}: {} operation(s) errored",
                work.name(),
                check.errors
            ));
        }
        eprintln!("{}: {} outputs", work.name(), rep.outputs.len());
        entries.extend(rep.outputs);
    }
    let _ = std::fs::remove_file(grid::journal_path(&run_dir));
    let path = reference::path();
    std::fs::write(&path, reference::render(&entries))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args {
        None => regen(),
        Some(args) => Reference::committed()
            .and_then(|reference| measure(&args, &reference))
            .map(|json| println!("{json}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload grid_l2 --seed 7 --seconds 10 --trace 1"))
            .expect("valid")
            .expect("not regen");
        assert_eq!(
            (a.work, a.seed, a.seconds, a.trace),
            (Work::Grid(Grid::L2), 7, 10, true)
        );
        assert!(parse_args(&argv("--regen")).expect("valid").is_none());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload verify_acc --seed 1 --seconds 0 --trace 0",
            "--workload verify_acc --seed 1 --seconds 1 --trace 2",
            "--workload verify_acc --seed 1 --seconds 1",
            "--workload verify_acc --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..196).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..196).collect();
        shuffle(&mut c, 6);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..196).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let reference = Reference::default();
        let check = Checker::new(&reference);
        let line = result_json(&check, &[("wall_s", 1.5, "s"), ("bad", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
