//! E3 — the flag hierarchy: per-category counts, the tree skeleton, and
//! the search-space reduction the paper attributes to it.
//!
//! E3 is pure static analysis — it runs no tuning sessions, so unlike the
//! other drivers it emits no telemetry trace (there are no trial events
//! to record). It still checks its options like every driver, and
//! ignores them.

use jtune_experiments::{text_table, Experiment};
use jtune_flags::{hotspot_registry, Category};
use jtune_flagtree::{hotspot_tree, SpaceStats};
use jtune_util::table::fnum;

fn main() {
    Experiment::from_env("e3_hierarchy", 200);
    let registry = hotspot_registry();
    let tree = hotspot_tree();

    println!("== E3a: flag registry by category ==");
    let mut t = text_table("category", &["flags", "tunable", "perf-relevant"]);
    let mut totals = (0usize, 0usize, 0usize);
    for cat in Category::ALL {
        let all: Vec<_> = registry.iter().filter(|(_, s)| s.category == cat).collect();
        let tunable = all.iter().filter(|(_, s)| s.tunable()).count();
        let perf = all.iter().filter(|(_, s)| s.perf).count();
        totals.0 += all.len();
        totals.1 += tunable;
        totals.2 += perf;
        t.row(vec![
            cat.name().to_string(),
            all.len().to_string(),
            tunable.to_string(),
            perf.to_string(),
        ]);
    }
    t.rule();
    t.row(vec![
        "total".into(),
        totals.0.to_string(),
        totals.1.to_string(),
        totals.2.to_string(),
    ]);
    print!("{}", t.render());
    println!(
        "paper: \"the Hot Spot JVM comes with over 600 flags\" -> {} here\n",
        registry.len()
    );

    println!("== E3b: hierarchy skeleton ==");
    print!("{}", tree.render_skeleton(registry));

    println!("\n== E3c: search-space size (log10 of configuration count) ==");
    let stats = SpaceStats::compute(tree, registry);
    let mut t = text_table(
        "stratum (collector, jit mode)",
        &["active flags", "log10 size"],
    );
    for s in &stats.strata {
        let label: Vec<String> = s.choices.iter().map(|(_, l)| l.to_string()).collect();
        t.row(vec![
            label.join(" + "),
            s.active_flags.to_string(),
            fnum(s.log10_size, 1),
        ]);
    }
    t.rule();
    t.row(vec![
        "hierarchical total".into(),
        String::new(),
        fnum(stats.hierarchical_log10, 1),
    ]);
    t.row(vec![
        "flat (no hierarchy)".into(),
        stats.tunable_flags.to_string(),
        fnum(stats.flat_log10, 1),
    ]);
    print!("{}", t.render());
    println!(
        "hierarchy removes 10^{:.1} of redundant configuration space",
        stats.reduction_log10()
    );
}
