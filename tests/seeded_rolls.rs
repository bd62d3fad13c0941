//! Seeded-roll contract: trial fault plans, network chaos plans and
//! retry backoff jitter all key a SplitMix64 stream as
//! `seed ^ a.rotate_left(32) ^ b·0x9E37…`. Their outputs are pinned here
//! to fixed values, so a refactor of the shared roll cannot shift a
//! recorded fault schedule (which would silently change every chaos and
//! fault-injection trace).

use hotspot_autotuner::harness::{BackoffPolicy, FaultPlan};
use hotspot_autotuner::server::NetFaultPlan;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every roll of a `keys × keys` grid, one Debug rendering per line.
fn grid<T: std::fmt::Debug>(roll: impl Fn(u64, u64) -> T) -> String {
    let keys = [0u64, 1, 2, 7, 42, 0xDEAD_BEEF, u64::MAX, 1 << 40];
    let mut out = String::new();
    for a in keys {
        for b in 0..64 {
            out.push_str(&format!("{:?}\n", roll(a, b ^ keys[(b % 8) as usize])));
        }
    }
    out
}

#[test]
fn fault_plan_rolls_are_pinned() {
    let plan = FaultPlan::transient(0.6, 0xFA_017);
    let first: Vec<String> = (0..6).map(|s| format!("{:?}", plan.roll(99, s))).collect();
    assert_eq!(
        first,
        [
            "Crash { at_fraction: 0.2766625169060074 }",
            "Crash { at_fraction: 0.2456305287996317 }",
            "None",
            "None",
            "None",
            "Hang",
        ]
    );
    assert_eq!(fnv1a(&grid(|a, b| plan.roll(a, b))), 0x9dfd_461b_41c7_ecc7);
}

#[test]
fn net_fault_plan_rolls_are_pinned() {
    let plan = NetFaultPlan::chaotic(0.8, 48879);
    let first: Vec<String> = (0..6).map(|f| format!("{:?}", plan.roll(3, f))).collect();
    assert_eq!(
        first,
        ["Disconnect", "Drop", "DelayMs(13)", "Drop", "None", "None"]
    );
    assert_eq!(fnv1a(&grid(|a, b| plan.roll(a, b))), 0x4396_bf3c_d924_be11);
}

#[test]
fn backoff_delays_are_pinned() {
    let policy = BackoffPolicy {
        seed: 0x5EED,
        ..BackoffPolicy::default()
    };
    let delays: Vec<u64> = (0..6).map(|a| policy.delay_ms(a, None)).collect();
    assert_eq!(delays, [86, 146, 386, 784, 1234, 2376]);
    assert_eq!(policy.delay_ms(1, Some(4_000)), 4_000);
    let all = grid(|seed, attempt| {
        BackoffPolicy {
            seed,
            ..BackoffPolicy::default()
        }
        .delay_ms((attempt % 12) as u32, None)
    });
    assert_eq!(fnv1a(&all), 0x7b82_c3c0_7be7_0fff);
}
