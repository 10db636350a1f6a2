//! Committed golden digests: one 64-bit digest per op, per workload and
//! seed, in `perfbench/golden.tsv` (`workload<TAB>seed<TAB>op<TAB>hex`).

use std::collections::{BTreeMap, BTreeSet};

/// The golden table, compiled into the benchmark.
pub const GOLDEN_TSV: &str = include_str!("../golden.tsv");

/// Golden digests keyed by `(workload, seed, op)`.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    digests: BTreeMap<(String, u64, String), u64>,
    seeds: BTreeSet<(String, u64)>,
}

impl Golden {
    /// Parses a golden table. Blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut g = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || {
                format!(
                    "golden.tsv line {}: expected workload, seed, op, hex digest",
                    n + 1
                )
            };
            if f.len() != 4 {
                return Err(bad());
            }
            let seed: u64 = f[1].parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(f[3], 16).map_err(|_| bad())?;
            g.insert(f[0], seed, f[2], digest);
        }
        Ok(g)
    }

    /// The table compiled into the benchmark.
    pub fn committed() -> Self {
        Golden::parse(GOLDEN_TSV).expect("the committed golden table parses")
    }

    /// Adds or replaces one entry.
    pub fn insert(&mut self, workload: &str, seed: u64, op: &str, digest: u64) {
        self.seeds.insert((workload.to_string(), seed));
        self.digests
            .insert((workload.to_string(), seed, op.to_string()), digest);
    }

    /// Whether any digest is committed for this workload and seed.
    pub fn covers(&self, workload: &str, seed: u64) -> bool {
        self.seeds.contains(&(workload.to_string(), seed))
    }

    /// The committed digest of one op, if any.
    pub fn get(&self, workload: &str, seed: u64, op: &str) -> Option<u64> {
        self.digests
            .get(&(workload.to_string(), seed, op.to_string()))
            .copied()
    }

    /// Renders entries in the table's own format.
    pub fn to_tsv(&self) -> String {
        self.digests
            .iter()
            .map(|((w, s, op), d)| format!("{w}\t{s}\t{op}\t{d:016x}\n"))
            .collect()
    }
}
