//! `verify_acc`: exhaustive model check of the ACC lease protocol.

use std::hint::black_box;
use std::time::Instant;

use fusion_core::MemoMark;
use fusion_verify::{VerifyProtocol, VerifyReport, VerifySpec};

use crate::layers::{from_spans, Layers};
use crate::procfs::cpu_seconds;
use crate::reference::key;
use crate::rep::{Checker, Rep};
use crate::spans::{total_ms, Tracer};
use crate::stats::{median, JobTime};

pub const NAME: &str = "verify_acc";

/// Set-up is only parsing the request, far below the clock's resolution,
/// so it is timed over batches and reported per request (median batch).
const SETUP_BATCH: u32 = 200_000;
const SETUP_BATCHES: usize = 5;

/// The request `sim verify --protocol acc --horizon 2` makes.
fn spec(protocol: &str, horizon: &str) -> VerifySpec {
    VerifySpec {
        protocol: VerifyProtocol::parse(protocol).expect("known protocol"),
        horizon: Some(horizon.parse().expect("numeric horizon")),
        ..VerifySpec::default()
    }
}

fn setup() -> (VerifySpec, f64) {
    let per_request: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                black_box(spec(black_box("acc"), black_box("2")));
            }
            t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
        })
        .collect();
    (spec("acc", "2"), median(&per_request))
}

/// Checks the report; returns the explored state count.
fn check_report(report: &VerifyReport, rep: &mut Rep, check: &mut Checker) -> u64 {
    let [p] = &report.protocols[..] else {
        check.op(rep, Vec::new(), Some("expected one protocol report".into()));
        return 0;
    };
    let e = &p.exploration;
    let error = if !e.complete {
        Some("state space not closed".to_string())
    } else {
        e.violation
            .as_ref()
            .map(|ce| format!("violation: {}", ce.violation.detail))
    };
    let outputs = [
        ("states", e.states as u64),
        ("transitions", e.transitions),
        ("depth", e.depth as u64),
    ]
    .into_iter()
    .map(|(k, v)| (key(&[NAME, k]), v.to_string()))
    .collect();
    check.op(rep, outputs, error);
    e.states as u64
}

pub fn untraced(check: &mut Checker) -> Rep {
    let mut rep = Rep::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let (spec, setup_s) = setup();
    rep.setup_s = setup_s;
    let t = Instant::now();
    let report = fusion_verify::run(&spec);
    let secs = t.elapsed().as_secs_f64();
    let states = check_report(&report, &mut rep, check);
    check.assert_complete(NAME, &rep);
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = cpu_seconds() - cpu0;
    let run = JobTime {
        mark: MemoMark::Off,
        refs: 0,
        nanos: (secs * 1e9) as u64,
    };
    rep.jobs.push((key(&[NAME, "run"]), run));
    rep.states_per_s = Some(states as f64 / secs);
    rep
}

pub fn traced(tr: &mut Tracer, check: &mut Checker) -> (Rep, Layers) {
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    tr.span("workload", |tr| {
        let (spec, _) = tr.span("setup", |_| setup());
        let report = tr.span("verify.run", |_| fusion_verify::run(&spec));
        tr.span("check", |_| check_report(&report, &mut rep, check));
        if let [p] = &report.protocols[..] {
            let e = &p.exploration;
            layers.insert("verify.states".into(), e.states as f64);
            layers.insert("verify.transitions".into(), e.transitions as f64);
            layers.insert("verify.depth".into(), e.depth as f64);
        }
    });
    check.assert_complete(NAME, &rep);
    from_spans(tr.spans(), &mut layers);
    layers.insert(
        "verify.explore_ms".into(),
        total_ms(tr.spans(), "verify.run"),
    );
    (rep, layers)
}
