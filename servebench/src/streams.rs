//! Seeded request streams. Request `k` of every stream is a pure
//! function of `(seed, k)`, so the requests a run sends do not depend on
//! how its client threads interleave, and the server only ever sees the
//! generated bodies.

/// Profiles in the `judge_hot` pool: small enough that every feature
/// stays cached.
pub const HOT_POOL: usize = 64;
/// `k` of every `/candidates` request.
pub const TOP_K: usize = 10;
/// Request indices at or above this are warm-up requests, kept apart
/// from the timed ones.
pub const WARMUP_BASE: u64 = 1 << 40;

const TAG_POOL: u64 = 0x706f_6f6c;
const TAG_HOT: u64 = 0x0068_6f74;
const TAG_INGEST: u64 = 0x696e_6765_7374;
/// Simulated days the ingest stream's start day is drawn from.
pub const INGEST_START_DAYS: u64 = 365;

/// SplitMix64 finalizer over `(seed, tag, k)`.
pub fn mix(seed: u64, tag: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.rotate_left(17))
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request streams of one run.
#[derive(Debug, Clone)]
pub struct Streams {
    seed: u64,
    hot_pool: Vec<usize>,
}

impl Streams {
    /// Streams over a corpus of `n_profiles` profiles.
    pub fn new(seed: u64, n_profiles: usize) -> Self {
        assert!(n_profiles > HOT_POOL, "corpus smaller than the hot pool");
        let mut hot_pool = Vec::with_capacity(HOT_POOL);
        let mut m = 0;
        while hot_pool.len() < HOT_POOL {
            let idx = (mix(seed, TAG_POOL, m) % n_profiles as u64) as usize;
            if !hot_pool.contains(&idx) {
                hot_pool.push(idx);
            }
            m += 1;
        }
        Self { seed, hot_pool }
    }

    /// The `judge_hot` profile pool.
    pub fn hot_pool(&self) -> &[usize] {
        &self.hot_pool
    }

    /// Pair `k` of the `judge_hot` mix: two distinct pool profiles.
    pub fn hot_pair(&self, k: u64) -> (usize, usize) {
        let r = mix(self.seed, TAG_HOT, k);
        let a = (r % HOT_POOL as u64) as usize;
        let b = (a + 1 + ((r >> 32) % (HOT_POOL as u64 - 1)) as usize) % HOT_POOL;
        (self.hot_pool[a], self.hot_pool[b])
    }

    /// Day of the served world's tweet stream the ingest loop starts at.
    pub fn ingest_start_day(&self) -> u64 {
        mix(self.seed, TAG_INGEST, 0) % INGEST_START_DAYS
    }
}

/// The fixed recall@10 query sample: `n` profiles spread evenly over the
/// corpus, the same for every seed so that the ratio moves only when
/// the index does.
pub fn recall_sample(n_profiles: usize, n: usize) -> Vec<usize> {
    (0..n.min(n_profiles))
        .map(|m| m * n_profiles / n.min(n_profiles))
        .collect()
}

/// `/judge` body.
pub fn judge_body(i: usize, j: usize) -> String {
    format!("{{\"i\":{i},\"j\":{j}}}")
}

/// `/candidates` body.
pub fn candidates_body(i: usize) -> String {
    format!("{{\"i\":{i},\"k\":{TOP_K}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(seed: u64) -> Vec<String> {
        let s = Streams::new(seed, 7_850);
        let mut out: Vec<String> = (0..100)
            .map(|k| {
                let (i, j) = s.hot_pair(k);
                judge_body(i, j)
            })
            .collect();
        out.push(s.ingest_start_day().to_string());
        out
    }

    #[test]
    fn one_seed_gives_the_same_streams_twice() {
        assert_eq!(bodies(7), bodies(7));
        assert_eq!(
            Streams::new(7, 7_850).hot_pool(),
            Streams::new(7, 7_850).hot_pool()
        );
    }

    #[test]
    fn two_seeds_give_different_streams() {
        let (a, b) = (bodies(7), bodies(8));
        let differ = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differ > 90, "only {differ} of 101 requests differ");
        assert_ne!(
            Streams::new(7, 7_850).hot_pool(),
            Streams::new(8, 7_850).hot_pool()
        );
        assert_ne!(a.last(), b.last(), "ingest start day");
    }

    #[test]
    fn streams_stay_in_range_and_pairs_are_distinct() {
        let n = 100;
        let s = Streams::new(3, n);
        assert_eq!(s.hot_pool().len(), HOT_POOL);
        for k in 0..2_000 {
            let (i, j) = s.hot_pair(k);
            assert_ne!(i, j);
            assert!(s.hot_pool().contains(&i) && s.hot_pool().contains(&j));
        }
        let sample = recall_sample(n, 30);
        assert_eq!(sample.len(), 30);
        assert!(sample.windows(2).all(|w| w[0] < w[1]) && sample[29] < n);
        assert_eq!(recall_sample(n, 500).len(), n);
    }
}
