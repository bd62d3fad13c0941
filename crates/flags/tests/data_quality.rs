//! Registry data-quality audit: structural invariants over all 750+
//! entries that per-module unit tests don't cover.

use jtune_flags::{hotspot_registry, Domain, FlagKind, FlagValue};

#[test]
fn flag_names_look_like_hotspot_flags() {
    for (_, spec) in hotspot_registry().iter() {
        assert!(
            spec.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{} has non-flag characters",
            spec.name
        );
        assert!(
            spec.name.chars().next().unwrap().is_ascii_alphabetic(),
            "{} starts oddly",
            spec.name
        );
        assert!(
            spec.name.len() >= 3 && spec.name.len() <= 60,
            "{}",
            spec.name
        );
    }
}

#[test]
fn size_flags_are_log_scaled_ints() {
    for (_, spec) in hotspot_registry().iter() {
        if spec.is_size {
            match &spec.domain {
                Domain::IntRange { log_scale, lo, .. } => {
                    assert!(log_scale, "{} is a size but linear", spec.name);
                    assert!(*lo >= 0, "{} negative size", spec.name);
                }
                other => panic!("{} is a size with domain {other:?}", spec.name),
            }
        }
    }
}

#[test]
fn int_domains_are_ordered_and_nonempty() {
    for (_, spec) in hotspot_registry().iter() {
        match &spec.domain {
            Domain::IntRange { lo, hi, .. } => {
                assert!(lo <= hi, "{}: lo {lo} > hi {hi}", spec.name)
            }
            Domain::DoubleRange { lo, hi } => {
                assert!(lo < hi, "{}: degenerate double range", spec.name)
            }
            Domain::Bool => {}
        }
    }
}

#[test]
fn collector_selection_flags_are_all_perf_relevant_bools() {
    let r = hotspot_registry();
    for name in [
        "UseSerialGC",
        "UseParallelGC",
        "UseParallelOldGC",
        "UseConcMarkSweepGC",
        "UseG1GC",
        "UseParNewGC",
    ] {
        let spec = r.spec(r.id(name).unwrap());
        assert!(matches!(spec.domain, Domain::Bool), "{name} not a bool");
        assert!(spec.perf, "{name} not perf-marked");
        assert!(spec.tunable(), "{name} not tunable");
    }
}

#[test]
fn exactly_one_collector_enabled_by_default() {
    let r = hotspot_registry();
    let on = [
        "UseSerialGC",
        "UseParallelGC",
        "UseConcMarkSweepGC",
        "UseG1GC",
    ]
    .iter()
    .filter(|n| r.spec(r.id(n).unwrap()).default == FlagValue::Bool(true))
    .count();
    assert_eq!(
        on, 1,
        "JDK-7 defaults must enable exactly the parallel collector"
    );
}

#[test]
fn percentage_flags_stay_within_percent_domains() {
    // Any flag whose name ends in Percent/Percentage/Fraction-as-percent
    // style must not allow values above 1000 (catches unit typos in the
    // data files).
    for (_, spec) in hotspot_registry().iter() {
        if spec.name.ends_with("Percent") || spec.name.ends_with("Percentage") {
            if let Domain::IntRange { hi, .. } = spec.domain {
                assert!(
                    hi <= 100_000,
                    "{}: suspicious percent bound {hi}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn diagnostics_category_is_fully_inert() {
    for (_, spec) in hotspot_registry().iter() {
        if spec.category == jtune_flags::Category::Diagnostics {
            assert!(!spec.perf, "{} is diagnostics but perf-marked", spec.name);
        }
    }
}

#[test]
fn defaults_of_perf_flags_round_trip_the_command_line() {
    // Render every perf flag set AWAY from its default, then parse back.
    let r = hotspot_registry();
    let mut config = jtune_flags::JvmConfig::default_for(r);
    for (id, spec) in r.iter() {
        if !spec.perf || !spec.tunable() {
            continue;
        }
        let flipped = match (spec.default, &spec.domain) {
            (FlagValue::Bool(b), _) => FlagValue::Bool(!b),
            (FlagValue::Int(v), Domain::IntRange { lo, hi, .. }) => {
                FlagValue::Int(if v == *hi { *lo } else { *hi })
            }
            (FlagValue::Double(v), Domain::DoubleRange { lo, hi }) => {
                FlagValue::Double(if (v - *hi).abs() < 1e-12 { *lo } else { *hi })
            }
            _ => continue,
        };
        config.set(id, flipped);
    }
    let args = config.to_args(r);
    assert!(args.len() > 80, "only {} args", args.len());
    let back = jtune_flags::JvmConfig::parse_args(r, &args).expect("round trip");
    assert_eq!(back.fingerprint(), config.fingerprint());
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of every spec, in `FlagId` order, hashed field by field.
/// A change to the table's storage must leave this constant unedited.
#[test]
fn registry_contents_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (id, spec) in hotspot_registry().iter() {
        h = fnv1a(h, &id.0.to_le_bytes());
        h = fnv1a(h, spec.name.as_bytes());
        h = fnv1a(h, spec.category.name().as_bytes());
        let domain = if let Domain::IntRange { lo, hi, log_scale } = spec.domain {
            [1, lo as u64, hi as u64, log_scale as u64]
        } else if let Domain::DoubleRange { lo, hi } = spec.domain {
            [2, lo.to_bits(), hi.to_bits(), 0]
        } else if matches!(spec.domain, Domain::Bool) {
            [3, 0, 0, 0]
        } else {
            panic!("{}: unexpected domain", spec.name)
        };
        let default = if let FlagValue::Int(v) = spec.default {
            [1, v as u64]
        } else if let FlagValue::Double(v) = spec.default {
            [2, v.to_bits()]
        } else if let FlagValue::Bool(v) = spec.default {
            [3, v as u64]
        } else {
            panic!("{}: unexpected default", spec.name)
        };
        for word in domain.into_iter().chain(default) {
            h = fnv1a(h, &word.to_le_bytes());
        }
        let kind: u8 = match spec.kind {
            FlagKind::Product => 1,
            FlagKind::Diagnostic => 2,
            FlagKind::Experimental => 3,
            FlagKind::Manageable => 4,
            FlagKind::Develop => 5,
        };
        h = fnv1a(h, &[kind, spec.is_size as u8, spec.perf as u8]);
        h = fnv1a(h, spec.desc.as_bytes());
    }
    assert_eq!(hotspot_registry().len(), 754);
    assert_eq!(h, 0xa8bc_1cc2_db1f_fe58, "registry hash {h:#018x}");
}
