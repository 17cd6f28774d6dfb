//! The committed correctness reference (`reference.txt`).
//!
//! One tab-separated line per checked output: the workload, the output's
//! identity and its expected value. Grid rows and tile results are keyed
//! by identity, never by position, so the seed's permutation of the work
//! cannot change what a key expects. Values are FNV-1a-64 digests of
//! `SimResult::to_json`, which carries no host timing, or plain counts.

use std::collections::BTreeMap;
use std::path::PathBuf;

const COMMITTED: &str = include_str!("../reference.txt");

const HEADER: &str = "\
# Correctness reference for perfbench: <workload> <identity...> <expected>.
# Grid and tile values are FNV-1a-64 digests of SimResult::to_json.
# Regenerate after an intentional model change (and say so in CHANGES.md):
#   cargo run --release --manifest-path perfbench/Cargo.toml -- --regen
";

/// Digest of one result's timing-free JSON.
pub fn digest(json: &str) -> String {
    format!("{:016x}", fusion_core::journal::fnv1a(json.as_bytes()))
}

/// Joins key fields into the reference's key form.
pub fn key(fields: &[&str]) -> String {
    fields.join("\t")
}

#[derive(Debug, Default)]
pub struct Reference {
    expected: BTreeMap<String, String>,
}

impl Reference {
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut expected = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((k, v)) = line.rsplit_once('\t') else {
                return Err(format!("reference line {}: no tab", i + 1));
            };
            if expected.insert(k.to_string(), v.to_string()).is_some() {
                return Err(format!("reference line {}: duplicate key", i + 1));
            }
        }
        Ok(Reference { expected })
    }

    pub fn committed() -> Result<Reference, String> {
        Reference::parse(COMMITTED)
    }

    /// Number of entries for `workload`.
    pub fn count(&self, workload: &str) -> usize {
        let prefix = format!("{workload}\t");
        self.expected
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .count()
    }

    /// `None` when `value` is what `key` expects, else why not.
    pub fn mismatch(&self, key: &str, value: &str) -> Option<String> {
        match self.expected.get(key) {
            Some(v) if v == value => None,
            Some(v) => Some(format!("{key}: got {value}, reference {v}")),
            None => Some(format!("{key}: not in the reference")),
        }
    }
}

/// Renders a full reference file from `(key, value)` entries.
pub fn render(entries: &BTreeMap<String, String>) -> String {
    let mut out = HEADER.to_string();
    for (k, v) in entries {
        out.push_str(&format!("{k}\t{v}\n"));
    }
    out
}

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_and_mismatch() {
        let mut e = BTreeMap::new();
        e.insert(
            key(&["grid_paper", "SC", "FFT", "base"]),
            "00ff".to_string(),
        );
        e.insert(key(&["verify_acc", "states"]), "12".to_string());
        let r = Reference::parse(&render(&e)).expect("roundtrip");
        assert_eq!(r.count("grid_paper"), 1);
        assert_eq!(r.mismatch("verify_acc\tstates", "12"), None);
        assert!(r.mismatch("verify_acc\tstates", "13").is_some());
        assert!(r.mismatch("verify_acc\tdepth", "1").is_some());
        assert!(Reference::parse("a\tb\na\tc\n").is_err());
    }

    #[test]
    fn committed_reference_parses() {
        let r = Reference::committed().expect("committed reference parses");
        assert_eq!(r.count("grid_paper"), 196);
        assert_eq!(r.count("grid_l2"), 112);
        assert_eq!(r.count("tiles_paper"), 7);
        assert_eq!(r.count("verify_acc"), 3);
    }
}
