//! Name-Dropper to `EveryoneKnowsEveryone` at n = 2^13: 221 184
//! whole-knowledge transfers, 9.6 × 10^8 pointers, two thirds of them
//! in transfers that teach their receiver nothing. The counts are those
//! of the per-send filtered copies this run used to make; sending one
//! shared snapshot with the receiver's id left out must not move them.
//!
//! Ignored by default — it wants an optimised build, and like
//! `scale_hm_eke` it is the only test in its binary:
//!
//! ```text
//! cargo test --release --test scale_nd_eke -- --ignored
//! ```

use resource_discovery::prelude::*;

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
}
