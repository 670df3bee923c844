//! Kernel probes: the `KnowledgeSet` operations the payload-bound
//! workloads spend their time in, timed alone from outside the crate,
//! and the host's copy bandwidth measured in the same process so the
//! distance from the hardware is a number.
//!
//! `union_from` and `DeltaFrontier` are not probed: no algorithm calls
//! them.

use crate::host;
use crate::stats::median;
use resource_discovery::core::KnowledgeSet;
use resource_discovery::sim::NodeId;
use std::hint::black_box;
use std::time::Instant;

/// Identifiers in the probed set: the instance size of the payload-bound
/// regime, and enough to cross the set's sparse-to-dense switch.
pub const IDS: u32 = 1 << 14;
const CONTAINS_PROBES: usize = 1 << 20;
/// Timed repetitions of each probe; the median is reported.
const REPS: usize = 31;

pub struct KnowledgeProbe {
    /// `extend` of a fresh set with a shuffle of all ids.
    pub extend_new_ns_per_id: f64,
    /// `extend` of the full set with the same list: every id a duplicate.
    pub extend_dup_ns_per_id: f64,
    pub contains_ns_per_probe: f64,
    /// `resident_bytes() / len()` of the full set.
    pub bytes_per_id: f64,
}

/// SplitMix64: the probe's inputs depend on the seed and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        // The bias of a plain remainder is below 2^-40 for these bounds.
        self.next() % bound
    }
}

pub fn knowledge_probe(seed: u64) -> KnowledgeProbe {
    let mut rng = SplitMix(seed);
    let mut ids: Vec<NodeId> = (0..IDS).map(NodeId::new).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let probes: Vec<NodeId> = (0..CONTAINS_PROBES)
        .map(|_| NodeId::new(rng.below(u64::from(IDS)) as u32))
        .collect();
    let own = ids[0];

    let mut new_ns = Vec::with_capacity(REPS);
    let mut dup_ns = Vec::with_capacity(REPS);
    let mut contains_ns = Vec::with_capacity(REPS);
    let mut bytes_per_id = 0.0;
    for _ in 0..REPS {
        let mut set = KnowledgeSet::new(own);
        let t = Instant::now();
        let added = set.extend(black_box(&ids).iter().copied());
        new_ns.push(t.elapsed().as_nanos() as f64 / ids.len() as f64);
        assert_eq!(added, ids.len() - 1, "every id but the set's own is new");

        let t = Instant::now();
        let added = set.extend(black_box(&ids).iter().copied());
        dup_ns.push(t.elapsed().as_nanos() as f64 / ids.len() as f64);
        assert_eq!(added, 0, "a full set learns nothing");

        let t = Instant::now();
        let hits = black_box(&probes)
            .iter()
            .filter(|&&id| set.contains(id))
            .count();
        contains_ns.push(t.elapsed().as_nanos() as f64 / probes.len() as f64);
        assert_eq!(hits, probes.len(), "a full set contains every probe");

        bytes_per_id = set.resident_bytes() as f64 / set.len() as f64;
        black_box(set);
    }
    KnowledgeProbe {
        extend_new_ns_per_id: median(&new_ns),
        extend_dup_ns_per_id: median(&dup_ns),
        contains_ns_per_probe: median(&contains_ns),
        bytes_per_id,
    }
}

pub struct MemcpyProbe {
    pub gib_per_s: f64,
    /// `None` when the host does not say; 32 MiB is assumed then.
    pub last_level_cache_bytes: Option<u64>,
    pub buffer_bytes: u64,
}

/// Copies between two buffers of four times the last-level cache, so the
/// copy streams from memory, and reports bytes copied per second (each
/// byte is read once and written once).
pub fn memcpy_probe() -> MemcpyProbe {
    const ASSUMED_LLC: u64 = 32 << 20;
    // A virtual machine reports its socket's whole cache (260 MiB on the
    // host this was written on) but owns a slice of it, and first-touching
    // two buffers of four times that takes longer than the workload. The
    // sizes are printed, so a capped run says so.
    const MAX_BUFFER: u64 = 256 << 20;
    let llc = host::last_level_cache_bytes();
    let buffer_bytes = (4 * llc.unwrap_or(ASSUMED_LLC)).min(MAX_BUFFER);
    let src = vec![1u8; buffer_bytes as usize];
    let mut dst = vec![0u8; buffer_bytes as usize];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        rates.push(buffer_bytes as f64 / t.elapsed().as_secs_f64() / (1u64 << 30) as f64);
    }
    MemcpyProbe {
        gib_per_s: median(&rates),
        last_level_cache_bytes: llc,
        buffer_bytes,
    }
}
