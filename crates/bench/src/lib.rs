//! # jtune-bench
//!
//! The snapshot format and compare rule of `benches/counts.rs`. Each
//! count is an exact integer total over an exact integer denominator, so
//! the gate compares with `==`; wall time lives in `bench-e2e`.

#![warn(missing_docs)]

use std::fmt;

use jtune_util::json::{self, JsonObject, JsonValue};

/// One exact count: `total` events over `per` units of work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Count {
    /// Stable name, e.g. `flagtree.enforce.allocs_per_call`.
    pub name: String,
    /// Events counted.
    pub total: u64,
    /// Units of work they were counted over (calls, evaluations, frames).
    pub per: u64,
}

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mean = self.total as f64 / self.per.max(1) as f64;
        write!(f, "{}/{} (= {mean:.2})", self.total, self.per)
    }
}

/// A set of counts and the `rustc -V` they were taken with: allocation
/// counts may move with the standard library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// `rustc -V` output.
    pub rustc: String,
    /// The counts, in measurement order.
    pub counts: Vec<Count>,
}

impl Snapshot {
    /// An empty snapshot taken with `rustc`.
    pub fn new(rustc: impl Into<String>) -> Snapshot {
        Snapshot {
            rustc: rustc.into(),
            counts: Vec::new(),
        }
    }

    /// Append a count of `total` over `per`.
    pub fn push(&mut self, name: impl Into<String>, total: u64, per: u64) {
        let name = name.into();
        self.counts.push(Count { name, total, per });
    }

    /// Render as JSON, one count per line.
    pub fn to_json(&self) -> String {
        let mut rows = Vec::new();
        for c in &self.counts {
            let row = JsonObject::new().str("name", &c.name).u64("total", c.total);
            rows.push(row.u64("per", c.per).finish());
        }
        let counts = format!("[\n  {}\n]", rows.join(",\n  "));
        let head = JsonObject::new().str("rustc", &self.rustc);
        head.raw("counts", &counts).finish() + "\n"
    }

    /// Parse a snapshot written by [`Snapshot::to_json`].
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text)?;
        let rustc = v.get("rustc").and_then(JsonValue::as_str);
        let rows = v.get("counts").and_then(JsonValue::as_array);
        let (Some(rustc), Some(rows)) = (rustc, rows) else {
            return Err("a snapshot needs a \"rustc\" string and a \"counts\" array".into());
        };
        let mut snapshot = Snapshot::new(rustc);
        for row in rows {
            let int = |key| row.get(key).and_then(JsonValue::as_u64);
            let name = row.get("name").and_then(JsonValue::as_str);
            match (name, int("total"), int("per")) {
                (Some(name), Some(total), Some(per)) => snapshot.push(name, total, per),
                _ => return Err(format!("malformed count row: {row:?}")),
            }
        }
        Ok(snapshot)
    }
}

/// Every count that differs between `old` and `new`, one line each,
/// naming the count with its old and new value. A count present on only
/// one side differs. Empty means the snapshots agree.
pub fn compare(old: &Snapshot, new: &Snapshot) -> Vec<String> {
    let find = |s: &Snapshot, name: &str| s.counts.iter().find(|c| c.name == name).cloned();
    let mut diffs = Vec::new();
    for o in &old.counts {
        match find(new, &o.name) {
            None => diffs.push(format!("{}: {o} -> missing", o.name)),
            Some(n) if n != *o => diffs.push(format!("{}: {o} -> {n}", o.name)),
            Some(_) => {}
        }
    }
    for n in new.counts.iter().filter(|n| find(old, &n.name).is_none()) {
        diffs.push(format!("{}: missing -> {n}", n.name));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &[(&str, u64, u64)] = &[("enforce", 3174, 64), ("sim_run", 704, 64)];

    fn snapshot(counts: &[(&str, u64, u64)]) -> Snapshot {
        let mut s = Snapshot::new("rustc 1.0.0");
        counts
            .iter()
            .for_each(|&(name, total, per)| s.push(name, total, per));
        s
    }

    #[test]
    fn equal_snapshots_pass_and_survive_a_round_trip() {
        let s = snapshot(OLD);
        let parsed = Snapshot::parse(&s.to_json()).expect("own output parses");
        assert_eq!(parsed, s);
        assert!(compare(&s, &parsed).is_empty());
    }

    #[test]
    fn a_risen_count_fails_naming_it() {
        let new = snapshot(&[("enforce", 3238, 64), ("sim_run", 704, 64)]);
        let diffs = compare(&snapshot(OLD), &new);
        assert_eq!(diffs, ["enforce: 3174/64 (= 49.59) -> 3238/64 (= 50.59)"]);
    }

    #[test]
    fn a_lowered_count_fails_naming_it() {
        let new = snapshot(&[("enforce", 3174, 64), ("sim_run", 640, 64)]);
        let diffs = compare(&snapshot(OLD), &new);
        assert_eq!(diffs, ["sim_run: 704/64 (= 11.00) -> 640/64 (= 10.00)"]);
    }

    #[test]
    fn a_count_missing_from_either_side_fails() {
        let (both, one) = (snapshot(OLD), snapshot(&OLD[..1]));
        let diffs = [compare(&both, &one), compare(&one, &both)];
        assert_eq!(diffs[0], ["sim_run: 704/64 (= 11.00) -> missing"]);
        assert_eq!(diffs[1], ["sim_run: missing -> 704/64 (= 11.00)"]);
    }
}
