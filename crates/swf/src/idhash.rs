//! The hasher behind every job-id-keyed map and set, in log assembly and on
//! the simulation's hot paths. Logs use it to renumber jobs
//! ([`SwfLog::renumber`](crate::log::SwfLog::renumber)), to map old ids to
//! new ones and find orphan partial lines and dangling dependencies in
//! [`clean`](crate::validate::clean), to hold the summary ids
//! [`StreamingValidator`](crate::validate::StreamingValidator) checks
//! dependencies against, and to drop repeated ids when a log becomes a
//! simulator job list. The simulator (which re-exports this module
//! as `psbench_sim::idhash`) uses it for the engine's running index,
//! cancelled and online ids, dependents, wakeups and duplicate check, the
//! queue's id indexes, and the conservative planners' slot and running maps.
//!
//! The standard library's SipHash-1-3 costs tens of nanoseconds per id, and
//! these maps are touched once per record while a log is assembled and on
//! every queue push, lookup and removal and every start and finish. An
//! unkeyed multiply (FxHash) would be cheaper still but is not safe here:
//! ids come from SWF files and from `serve` clients, and ids that share
//! their low bits (multiples of 2^32, say) would all land in one bucket.
//! [`IdHash`] instead mixes each word with a **per-process random key**
//! through a **full-avalanche 64-bit finalizer** (MurmurHash3's `fmix64`):
//! every input bit flips every output bit with probability about one half,
//! so structured ids spread evenly over the buckets, and without the key a
//! client cannot compute which ids share a bucket.
//!
//! Map iteration order therefore changes from process to process, exactly as
//! it did under the standard library's randomly keyed hasher: no result may
//! depend on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A map keyed by job id (or any other `u64`), hashed with [`IdHash`].
pub type IdMap<V> = HashMap<u64, V, IdHash>;

/// A set of job ids (or any other `u64`s), hashed with [`IdHash`].
pub type IdSet = HashSet<u64, IdHash>;

/// Builds [`IdHasher`]s under this process's random key.
#[derive(Debug, Clone, Copy)]
pub struct IdHash {
    key: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        // The standard library's randomly keyed hasher is the entropy source.
        let key =
            *KEY.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u64));
        IdHash { key }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.key }
    }
}

/// The streaming state of one [`IdHash`] hash: each written word is folded
/// into the keyed state and the result run through the finalizer.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

/// MurmurHash3's 64-bit finalizer: a bijection with full avalanche.
fn fmix64(mut z: u64) -> u64 {
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.state = fmix64(self.state ^ x);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert that 4,096 `ids` spread over 256 buckets picked from the
    /// hash's low bits, as a hash table picks them: 16 a bucket on average.
    fn assert_spread(name: &str, ids: impl Iterator<Item = u64>) {
        let hash = IdHash::default();
        let mut counts = [0usize; 256];
        for id in ids {
            counts[(hash.hash_one(id) & 255) as usize] += 1;
        }
        let empty = counts.iter().filter(|&&c| c == 0).count();
        let max = counts.iter().copied().max().unwrap();
        assert!(empty <= 2, "{name}: {empty} of 256 buckets empty");
        assert!(max <= 48, "{name}: {max} ids in one bucket (mean 16)");
    }

    #[test]
    fn structured_ids_spread_across_buckets() {
        // Ids that differ only in their high bits share all their low bits,
        // so a hash that kept low bits (or an unkeyed multiply's weak low
        // bits) would put them all in one or a few buckets.
        assert_spread("multiples of 2^32", (1..=4096u64).map(|i| i << 32));
        assert_spread("high bits only", (1..=4096u64).map(|i| (i << 48) | 0x1234));
        assert_spread("dense counter", 1..=4096u64);
    }

    #[test]
    fn maps_and_sets_keyed_by_id_behave_as_maps() {
        let mut map: IdMap<usize> = IdMap::default();
        let mut set = IdSet::default();
        for i in 0..1000u64 {
            map.insert(i << 40, i as usize);
            assert!(set.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        }
        for i in 0..1000u64 {
            assert_eq!(map.get(&(i << 40)), Some(&(i as usize)));
            assert!(!set.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        }
        assert_eq!((map.len(), set.len()), (1000, 1000));
        // One key per process: two `IdHash` values hash alike.
        assert_eq!(
            IdHash::default().hash_one(77u64),
            IdHash::default().hash_one(77u64)
        );
    }
}
