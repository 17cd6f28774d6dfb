//! `paper_err`: distance of the base-config grid rows from the paper
//! figures that EXPERIMENTS.md quotes (table in `paper_reference.tsv`).

use fusion_core::SimResult;

const TABLE: &str = include_str!("../paper_reference.tsv");

/// One quoted paper figure and where its measured counterpart lives.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRef {
    pub figure: String,
    pub suite: String,
    pub system: String,
    pub field: String,
    pub paper: f64,
    pub source: String,
}

/// Parses the tab-separated table (`#` lines are comments).
pub fn parse(text: &str) -> Result<Vec<PaperRef>, String> {
    let mut refs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [figure, suite, system, field, paper, source] = f[..] else {
            return Err(format!("paper table line {}: want 6 fields", i + 1));
        };
        let paper = paper
            .parse::<f64>()
            .map_err(|e| format!("paper table line {}: {e}", i + 1))?;
        refs.push(PaperRef {
            figure: figure.to_string(),
            suite: suite.to_string(),
            system: system.to_string(),
            field: field.to_string(),
            paper,
            source: source.to_string(),
        });
    }
    Ok(refs)
}

/// The committed table.
pub fn table() -> Vec<PaperRef> {
    parse(TABLE).expect("paper_reference.tsv is well formed (unit-tested)")
}

/// The measured value of `r` given a lookup of base rows by
/// `(system label, suite label)`; `None` if a row or field is missing.
pub fn measured<'a>(
    r: &PaperRef,
    row: &dyn Fn(&str, &str) -> Option<&'a SimResult>,
) -> Option<f64> {
    let res = row(&r.system, &r.suite)?;
    Some(match r.field.as_str() {
        "ax_tlb_lookups" => res.ax_tlb_lookups as f64,
        "ax_rmap_lookups" => res.ax_rmap_lookups as f64,
        "dma_transfers" => res.dma_transfers as f64,
        "tile.fwd_l0_to_l0" => res.tile?.fwd_l0_to_l0 as f64,
        "speedup_vs_sc" => {
            let sc = row("SC", &r.suite)?;
            sc.total_cycles as f64 / res.total_cycles.max(1) as f64
        }
        _ => return None,
    })
}

/// Mean |ln(measured / paper)| over the pairs where both are nonzero
/// (0 when no pair qualifies).
pub fn paper_err(pairs: &[(f64, f64)]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter(|(m, p)| *m != 0.0 && *p != 0.0)
        .map(|(m, p)| (m / p).ln().abs())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        logs.iter().sum::<f64>() / logs.len() as f64
    }
}

/// `paper_err` of the base rows; every table entry must resolve.
pub fn paper_err_of<'a>(row: &dyn Fn(&str, &str) -> Option<&'a SimResult>) -> Result<f64, String> {
    let mut pairs = Vec::new();
    for r in table() {
        let m = measured(&r, row)
            .ok_or_else(|| format!("no measured value for {} {} {}", r.system, r.suite, r.field))?;
        pairs.push((m, r.paper));
    }
    Ok(paper_err(&pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_abs_log_ratio_skips_zero_pairs() {
        let e = std::f64::consts::E;
        // |ln e| = 1, |ln 1/e| = 1, |ln 1| = 0; the zero pairs drop out.
        let pairs = [(e, 1.0), (1.0, e), (5.0, 5.0), (0.0, 3.0), (3.0, 0.0)];
        assert!((paper_err(&pairs) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(paper_err(&[(0.0, 1.0)]), 0.0);
    }

    #[test]
    fn committed_table_parses_and_cites_experiments() {
        let refs = table();
        assert_eq!(refs.len(), 18);
        assert!(refs
            .iter()
            .all(|r| r.source.starts_with("EXPERIMENTS.md:") && r.paper > 0.0));
        assert!(parse("a\tb\n").is_err());
    }

    #[test]
    fn measured_reads_fields_and_speedup() {
        use fusion_core::runner::{run_system, SystemKind};
        use fusion_types::SystemConfig;
        use fusion_workloads::{build_suite, Scale, SuiteId};
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let cfg = SystemConfig::small();
        let sc = run_system(SystemKind::Scratch, &wl, &cfg).expect("tiny SC run");
        let fu = run_system(SystemKind::Fusion, &wl, &cfg).expect("tiny FU run");
        let row = |sys: &str, suite: &str| match (sys, suite) {
            ("SC", "FFT") => Some(&sc),
            ("FU", "FFT") => Some(&fu),
            _ => None,
        };
        let r = |field: &str, system: &str| PaperRef {
            figure: "t".into(),
            suite: "FFT".into(),
            system: system.into(),
            field: field.into(),
            paper: 1.0,
            source: String::new(),
        };
        let speedup = sc.total_cycles as f64 / fu.total_cycles as f64;
        assert_eq!(measured(&r("speedup_vs_sc", "FU"), &row), Some(speedup));
        assert_eq!(
            measured(&r("ax_tlb_lookups", "FU"), &row),
            Some(fu.ax_tlb_lookups as f64)
        );
        assert_eq!(measured(&r("dma_transfers", "SH"), &row), None);
        assert_eq!(measured(&r("no_such_field", "FU"), &row), None);
    }
}
