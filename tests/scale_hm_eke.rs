//! The memory result, pinned: HM to `EveryoneKnowsEveryone` at n = 2^16
//! is 4.3 × 10^9 pointers of knowledge, and it fits in about 100 MiB
//! because the n − 1 receivers of the final roster hold the leader's
//! list by reference instead of copying it, and because a leader gives
//! up its exploration state when its cluster joins another. Peak
//! resident set (`VmHWM`) on a 2-vCPU x86-64 Linux VM: 129 MiB when
//! demoted leaders kept that state and every message was sized for a
//! join's two inline lists; 96 MiB with 56-byte envelopes and a sorted
//! index in every set of more than seven sparse ids; 83 MiB now, with
//! 40-byte envelopes (a heap list is a boxed slice, a report's epoch 32
//! bits) and no index below 33 ids. The gate is the latter plus about a
//! fifth.
//!
//! Ignored by default — it wants an optimised build and is the only
//! test in its binary, so the process's peak resident set is this run's:
//!
//! ```text
//! cargo test --release --test scale_hm_eke -- --ignored
//! ```

use resource_discovery::prelude::*;

/// Peak resident set of this process in MiB (`VmHWM`), where the
/// platform says.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

#[test]
#[ignore = "n = 2^16 to everyone-knows-everyone: run in release mode"]
fn hm_reaches_everyone_knows_everyone_at_2p16() {
    let config = RunConfig::new(Topology::KOut { k: 3 }, 1 << 16, 42);
    let report = run(AlgorithmKind::Hm(HmConfig::default()), &config);
    assert!(report.completed && report.sound, "{report:?}");
    // Adopting and merging eagerly give the same `RunReport`; these are
    // the counts of either.
    assert_eq!(
        (report.rounds, report.messages, report.pointers),
        (39, 2_225_055, 4_300_802_887)
    );
    if let Some(mib) = peak_rss_mib() {
        assert!(mib < 100, "peak resident set {mib} MiB");
    }
}
