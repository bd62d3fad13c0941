//! The JDK-7 HotSpot flag table, kept as data.
//!
//! `hotspot7.tsv` holds one tab-separated row per flag, in [`FlagId`]
//! order: name, category, shape, bounds, default, kind, perf marker and
//! description. Its `#` comment lines say where the values come from and
//! why some defaults matter. [`parse`] reads it once, inside
//! [`crate::hotspot_registry`]; the names and descriptions borrow from the
//! embedded text, so they stay `&'static str`.
//!
//! [`FlagId`]: crate::FlagId

use crate::spec::{Category, FlagKind, FlagSpec};
use crate::value::{parse_size, Domain, FlagValue};

/// The committed flag table.
pub(crate) const HOTSPOT7: &str = include_str!("hotspot7.tsv");

/// Parse a table in the `hotspot7.tsv` format, skipping blank and `#`
/// lines, into specs in row order.
///
/// # Panics
/// Panics on a malformed row, naming its line number.
pub(crate) fn parse(text: &'static str) -> Vec<FlagSpec> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(i, line)| parse_row(line).unwrap_or_else(|e| panic!("hotspot7.tsv:{}: {e}", i + 1)))
        .collect()
}

fn parse_row(line: &'static str) -> Result<FlagSpec, String> {
    let (mut cols, mut found) = ([""; 9], 0);
    for field in line.split('\t') {
        if let Some(col) = cols.get_mut(found) {
            *col = field;
        }
        found += 1;
    }
    if found != 9 {
        return Err(format!("expected 9 tab-separated columns, found {found}"));
    }
    let [name, category, shape, lo, hi, default, kind, perf, desc] = cols;
    let category = Category::ALL
        .into_iter()
        .find(|c| c.name() == category)
        .ok_or_else(|| format!("unknown category {category:?}"))?;
    let kind = match kind {
        "product" => FlagKind::Product,
        "diagnostic" => FlagKind::Diagnostic,
        "experimental" => FlagKind::Experimental,
        "manageable" => FlagKind::Manageable,
        "develop" => FlagKind::Develop,
        _ => return Err(format!("unknown kind {kind:?}")),
    };
    let int = |s: &str| s.parse().map_err(|_| format!("{s:?} is not an integer"));
    let size = |s: &str| parse_size(s).ok_or_else(|| format!("{s:?} is not a size"));
    let double = |s: &str| s.parse().map_err(|_| format!("{s:?} is not a number"));
    let boolean = |s: &str| s.parse().map_err(|_| format!("{s:?} is not true or false"));
    let (domain, value) = match shape {
        "bool" if lo == "-" && hi == "-" => (Domain::Bool, FlagValue::Bool(boolean(default)?)),
        "bool" => return Err("a bool's bounds must be \"-\"".to_string()),
        "int" | "int-log" => (
            Domain::IntRange {
                lo: int(lo)?,
                hi: int(hi)?,
                log_scale: shape == "int-log",
            },
            FlagValue::Int(int(default)?),
        ),
        "size" => (
            Domain::IntRange {
                lo: size(lo)?,
                hi: size(hi)?,
                log_scale: true,
            },
            FlagValue::Int(size(default)?),
        ),
        "double" => (
            Domain::DoubleRange {
                lo: double(lo)?,
                hi: double(hi)?,
            },
            FlagValue::Double(double(default)?),
        ),
        _ => return Err(format!("unknown shape {shape:?}")),
    };
    if !domain.contains(value) {
        return Err(format!(
            "default {default} of {name} is outside {lo}..={hi}"
        ));
    }
    Ok(FlagSpec {
        name,
        category,
        domain,
        default: value,
        kind,
        is_size: shape == "size",
        perf: boolean(perf)?,
        desc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<FlagSpec> {
        parse(HOTSPOT7)
    }

    #[test]
    fn over_600_flags_total() {
        assert!(all().len() > 600, "only {}", all().len());
    }

    #[test]
    fn a_healthy_minority_is_performance_relevant() {
        let specs = all();
        let perf = specs.iter().filter(|s| s.perf).count();
        // The simulator reads 40–110 flags; the rest are inert on purpose.
        assert!((40..=110).contains(&perf), "perf flag count {perf}");
        let frac = perf as f64 / specs.len() as f64;
        assert!(frac < 0.2, "too many perf flags: {frac}");
    }

    #[test]
    fn every_category_is_populated() {
        let specs = all();
        for cat in Category::ALL {
            assert!(
                specs.iter().any(|s| s.category == cat),
                "category {} has no flags",
                cat.name()
            );
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for s in all() {
            assert!(!s.desc.is_empty(), "{} has no description", s.name);
        }
    }

    #[test]
    fn rows_parse_every_shape() {
        let specs = parse(
            "# comment\n\n\
             A\theap\tsize\t1m\t2g\t64m\tproduct\ttrue\tsize\n\
             B\tjit\tint-log\t1\t100\t10\tdiagnostic\tfalse\tlog int\n\
             C\tgc.cms\tdouble\t0\t1\t0.5\tdevelop\tfalse\tdouble\n\
             D\tmisc\tbool\t-\t-\ttrue\tmanageable\tfalse\tbool\n",
        );
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].default, FlagValue::Int(64 << 20));
        assert!(specs[0].is_size && specs[0].perf);
        assert_eq!(
            specs[1].domain,
            Domain::IntRange {
                lo: 1,
                hi: 100,
                log_scale: true
            }
        );
        assert_eq!(specs[2].default, FlagValue::Double(0.5));
        assert_eq!(specs[3].kind, FlagKind::Manageable);
        assert_eq!(specs[3].category, Category::Misc);
    }

    fn parse_error(row: &str) -> String {
        let text: &'static str = format!("# header\n\n{row}\n").leak();
        let err = std::panic::catch_unwind(|| parse(text)).unwrap_err();
        err.downcast_ref::<String>().cloned().unwrap()
    }

    #[test]
    fn malformed_rows_panic_naming_their_line() {
        for (row, message) in [
            ("A\theap\tint\t1\t10\t5\tproduct\tfalse", "expected 9"),
            ("A\theap\tint\t1\t10\t5\tproduct\tfalse\tx\ty", "expected 9"),
            (
                "A\theap\tstring\t1\t10\t5\tproduct\tfalse\tx",
                "unknown shape",
            ),
            (
                "A\theap\tint\t1\t10\t5\tnotproduct\tfalse\tx",
                "unknown kind",
            ),
            (
                "A\theap.young\tint\t1\t10\t5\tproduct\tfalse\tx",
                "unknown category",
            ),
            (
                "A\theap\tint\t1\t10\t11\tproduct\tfalse\tx",
                "outside 1..=10",
            ),
            (
                "A\theap\tsize\t1m\t2m\t4m\tproduct\tfalse\tx",
                "outside 1m..=2m",
            ),
            (
                "A\theap\tdouble\t0\t1\t1.5\tproduct\tfalse\tx",
                "outside 0..=1",
            ),
            ("A\theap\tsize\t1q\t2m\t1m\tproduct\tfalse\tx", "not a size"),
            ("A\theap\tbool\t0\t1\ttrue\tproduct\tfalse\tx", "bounds"),
            (
                "A\theap\tbool\t-\t-\tyes\tproduct\tfalse\tx",
                "not true or false",
            ),
        ] {
            let err = parse_error(row);
            assert!(err.starts_with("hotspot7.tsv:3: "), "{row:?}: {err}");
            assert!(err.contains(message), "{row:?}: {err}");
        }
    }
}
