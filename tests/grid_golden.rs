//! The 196-point design grid pinned across commits.
//!
//! `tests/golden/grid_{tiny,small}.txt` hold, for `design_grid(&SystemConfig
//! ::small())` swept at that scale, one FNV-1a-64 digest per grid point of
//! its `SimResult::to_json` (the timing-free result row `sim sweep --json`
//! prints) and one digest per top-level JSON field over every row. A change
//! that moves any simulated statistic of any grid point fails here, naming
//! the first row that diverged and the first field that did.
//!
//! An intentional model change regenerates both files with
//! `UPDATE_GOLDEN=1 cargo test --release --test grid_golden` and says so in
//! CHANGES.md.

use fusion_core::journal::fnv1a;
use fusion_core::{design_grid, Sweep};
use fusion_types::SystemConfig;
use fusion_workloads::Scale;

/// Splits a JSON object into its top-level `(key, raw value)` pairs.
/// Enough JSON for `SimResult::to_json`: string keys, and values whose
/// strings contain no escaped quotes.
fn top_level_fields(json: &str) -> Vec<(String, String)> {
    let body = json
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("a JSON object");
    let mut fields = Vec::new();
    let (mut depth, mut in_str, mut start) = (0i32, false, 0usize);
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
        .into_iter()
        .map(|f| {
            let (k, v) = f.split_once(':').expect("key:value");
            (k.trim_matches('"').to_string(), v.to_string())
        })
        .collect()
}

/// The golden text for the design grid at `scale`: `row <label> <digest>`
/// per grid point in grid order, then `field <name> <digest>` per
/// top-level field (the digest of that field's values over all rows, one
/// per line).
fn grid_digests(scale: Scale) -> String {
    let jobs = design_grid(&SystemConfig::small());
    let outcomes = Sweep::new(scale).threads(1).run(jobs);
    let mut out = String::new();
    let mut columns: Vec<(String, String)> = Vec::new();
    for o in &outcomes {
        let json = o.expect_result().to_json();
        out.push_str(&format!(
            "row {} {:016x}\n",
            o.job.label(),
            fnv1a(json.as_bytes())
        ));
        let fields = top_level_fields(&json);
        if columns.is_empty() {
            columns = fields
                .iter()
                .map(|(k, _)| (k.clone(), String::new()))
                .collect();
        }
        assert_eq!(
            fields.len(),
            columns.len(),
            "{}: field count",
            o.job.label()
        );
        for ((k, v), (name, col)) in fields.iter().zip(&mut columns) {
            assert_eq!(k, name, "{}: field order", o.job.label());
            col.push_str(v);
            col.push('\n');
        }
    }
    for (name, col) in &columns {
        out.push_str(&format!("field {name} {:016x}\n", fnv1a(col.as_bytes())));
    }
    out
}

fn check(scale: Scale, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let got = grid_digests(scale);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1)"));
    if got == want {
        return;
    }
    let lines = |s: &str, tag: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with(tag))
            .map(str::to_string)
            .collect()
    };
    let (got_rows, want_rows) = (lines(&got, "row "), lines(&want, "row "));
    let row = got_rows
        .iter()
        .zip(&want_rows)
        .position(|(a, b)| a != b)
        .map_or_else(
            || format!("row count {} vs {}", got_rows.len(), want_rows.len()),
            |i| {
                format!(
                    "row {i} ({})",
                    want_rows[i].split(' ').nth(1).unwrap_or("?")
                )
            },
        );
    let field = lines(&got, "field ")
        .iter()
        .zip(&lines(&want, "field "))
        .find(|(a, b)| a != b)
        .map_or_else(
            || "field set".to_string(),
            |(_, b)| format!("field {}", b.split(' ').nth(1).unwrap_or("?")),
        );
    panic!("design grid diverged from {file}: first at {row}, first diverging {field}");
}

#[test]
fn tiny_design_grid_matches_the_committed_digests() {
    check(Scale::Tiny, "grid_tiny.txt");
}

#[test]
fn small_design_grid_matches_the_committed_digests() {
    check(Scale::Small, "grid_small.txt");
}

#[test]
fn top_level_fields_split_only_at_depth_zero() {
    let f = top_level_fields(r#"{"a":1,"b":{"x":[1,2],"y":"p,q"},"c":[{"n":3}]}"#);
    let keys: Vec<&str> = f.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["a", "b", "c"]);
    assert_eq!(f[1].1, r#"{"x":[1,2],"y":"p,q"}"#);
}
