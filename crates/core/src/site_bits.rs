//! [`SiteBits`]: the exact set membership test the overflow and coverage
//! observers run on every runtime event.

/// An immutable set of `u64` keys (site ids, or ids with a direction bit),
/// built once per weak-distance target and tested on every event without
/// allocating.
///
/// A key below [`SiteBits::CAP`] is one bit of a word array, so a test is a
/// shift and a mask. A key at or above the cap sits in a sorted slice
/// searched by bisection. Membership is exact for every key, and memory is
/// bounded by `CAP / 8` bytes plus one word per key at or above the cap,
/// whatever the largest key is.
#[derive(Debug, Clone)]
pub struct SiteBits {
    words: Box<[u64]>,
    spill: Box<[u64]>,
    len: usize,
}

impl SiteBits {
    /// Keys below this get one bit each.
    pub const CAP: u64 = 4096;

    /// The set of `keys` (a repeated key counts once).
    pub fn new(keys: impl IntoIterator<Item = u64>) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let mut spill = Vec::new();
        for key in keys {
            if key < Self::CAP {
                let word = (key / 64) as usize;
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1 << (key % 64);
            } else {
                spill.push(key);
            }
        }
        spill.sort_unstable();
        spill.dedup();
        let bits: u32 = words.iter().map(|w| w.count_ones()).sum();
        SiteBits {
            len: bits as usize + spill.len(),
            words: words.into(),
            spill: spill.into(),
        }
    }

    /// Whether `key` is a member.
    pub fn contains(&self, key: u64) -> bool {
        if key < Self::CAP {
            self.words
                .get((key / 64) as usize)
                .is_some_and(|word| word >> (key % 64) & 1 == 1)
        } else {
            self.spill.binary_search(&key).is_ok()
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}
