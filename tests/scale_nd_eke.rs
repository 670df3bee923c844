//! Name-Dropper to `EveryoneKnowsEveryone` at n = 2^13: 221 184
//! whole-knowledge transfers, 9.6 × 10^8 pointers, two thirds of them
//! in transfers that teach their receiver nothing. The counts are those
//! of the per-send filtered copies this run used to make; sending one
//! shared snapshot with the receiver's id left out must not move them.
//!
//! Its memory is pinned too, as `scale_hm_eke` pins HM's: a snapshot
//! is a prefix of the set's own learning-order list, which the set
//! keeps in one append-only buffer and appends to past every prefix it
//! has sent, so a node's knowledge is one buffer, grown only when full,
//! and the buffers its payloads read are its own; its slots are two
//! bytes while every id fits in 16 bits, as all 8 192 do here. Peak
//! resident set (`VmHWM`) on a 2-vCPU x86-64 Linux VM: 755 MiB when
//! every snapshot after growth copied the list, 527 MiB when snapshots
//! lent the list and the set kept a spare buffer to append to while
//! they were out, 313 MiB with one buffer of 32-bit slots, 174 MiB with
//! 16-bit ones; gated at 210 (about 20 % above).
//!
//! Ignored by default — it wants an optimised build, and like
//! `scale_hm_eke` it is the only test in its binary, so the process's
//! peak resident set is this run's:
//!
//! ```text
//! cargo test --release --test scale_nd_eke -- --ignored
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
#[ignore = "n = 2^13 Name-Dropper to everyone-knows-everyone: run in release mode"]
fn name_dropper_reaches_everyone_knows_everyone_at_2p13() {
    let config = RunConfig::new(Topology::KOut { k: 3 }, 1 << 13, 42);
    let report = run(AlgorithmKind::NameDropper, &config);
    assert!(report.completed && report.sound, "{report:?}");
    assert_eq!(
        (report.rounds, report.messages, report.pointers),
        (27, 221_184, 960_564_112)
    );
    if let Some(mib) = peak_rss_mib() {
        assert!(mib < 210, "peak resident set {mib} MiB");
    }
}
