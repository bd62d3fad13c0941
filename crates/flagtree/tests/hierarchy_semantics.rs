//! Cross-module semantic checks: the hierarchy's activation semantics must
//! agree with how the simulator interprets flags (a flag the tree marks
//! dead must indeed be read-as-default by the resolver).

use jtune_flags::{hotspot_registry, FlagValue, JvmConfig};
use jtune_flagtree::hotspot_tree;

#[test]
fn tree_and_registry_agree_on_selector_flags() {
    let r = hotspot_registry();
    let tree = hotspot_tree();
    // Every selector-assigned flag exists, is a tunable bool, and never
    // appears as an independently tunable leaf.
    let active = tree.active_flags(&JvmConfig::default_for(r));
    for name in [
        "UseSerialGC",
        "UseParallelGC",
        "UseParallelOldGC",
        "UseConcMarkSweepGC",
        "UseG1GC",
        "UseParNewGC",
        "TieredCompilation",
    ] {
        let id = r.id(name).unwrap();
        assert!(tree.is_assigned(id), "{name} should be selector-assigned");
        assert!(!active.contains(&id), "{name} leaked into the active set");
    }
}

#[test]
fn every_selector_option_yields_a_bootable_configuration() {
    // The hierarchy's central guarantee: any combination of selector
    // options produces a configuration the (simulated) JVM accepts.
    let r = hotspot_registry();
    let tree = hotspot_tree();
    let sels: Vec<_> = tree.selector_ids().collect();
    let counts: Vec<usize> = sels
        .iter()
        .map(|s| tree.selector(*s).options.len())
        .collect();
    let mut choice = vec![0usize; sels.len()];
    let machine = jtune_jvmsim::Machine::default();
    loop {
        let mut c = JvmConfig::default_for(r);
        for (i, &sid) in sels.iter().enumerate() {
            tree.set_selector(r, &mut c, sid, choice[i]);
        }
        let labels: Vec<&str> = sels
            .iter()
            .zip(&choice)
            .map(|(s, &o)| tree.selector(*s).options[o].label)
            .collect();
        assert!(
            jtune_jvmsim::FlagView::resolve(r, &c, &machine).is_ok(),
            "combination {labels:?} does not boot"
        );
        let mut i = 0;
        loop {
            if i == choice.len() {
                return;
            }
            choice[i] += 1;
            if choice[i] < counts[i] {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

#[test]
fn dead_flag_values_cannot_affect_the_simulator() {
    // Set every CMS flag to an extreme value while running parallel GC:
    // after canonicalisation the simulated outcome must equal the default
    // outcome bit for bit.
    let r = hotspot_registry();
    let tree = hotspot_tree();
    let wl = jtune_jvmsim::Workload::baseline("dead-flags");
    let sim = jtune_jvmsim::JvmSim::new();

    let mut scribbled = JvmConfig::default_for(r);
    for id in r.ids_in_category(jtune_flags::Category::GcCms) {
        let spec = r.spec(id);
        let extreme = match &spec.domain {
            jtune_flags::Domain::Bool => FlagValue::Bool(true),
            jtune_flags::Domain::IntRange { hi, .. } => FlagValue::Int(*hi),
            jtune_flags::Domain::DoubleRange { hi, .. } => FlagValue::Double(*hi),
        };
        scribbled.set(id, extreme);
    }
    tree.enforce(r, &mut scribbled);

    let default = JvmConfig::default_for(r);
    let a = sim.run(r, &default, &wl, 5);
    let b = sim.run(r, &scribbled, &wl, 5);
    assert_eq!(a.breakdown.total(), b.breakdown.total());
    assert_eq!(a.gc.young_collections, b.gc.young_collections);
}

#[test]
fn hierarchy_active_set_is_stable_across_calls() {
    let r = hotspot_registry();
    let tree = hotspot_tree();
    let c = JvmConfig::default_for(r);
    let a = tree.active_flags(&c);
    let b = tree.active_flags(&c);
    assert_eq!(a, b, "active-flag order must be deterministic");
}
