//! Leader records: ID + certificate pairs.
//!
//! The revocable protocol compounds each chosen ID with the estimate `k`
//! ("certificate") used to choose it. The leader is the node with the
//! **smallest ID among those with the largest certificate** (Section 5.2:
//! "The node with smallest ID, among those with largest estimate, is the
//! leader").

use ale_congest::message::{bits_for_u128, bits_for_u64};
use std::fmt;
use std::num::NonZeroU64;

/// A candidate leader: `(certificate, id)` with the paper's ordering.
///
/// Every node sends its view in every round, so this record is laid out
/// for the message arenas: the certificate is non-zero (estimates start
/// at `k = 2`), which gives `Option<LeaderRecord>` a niche for `None`,
/// and the `u128` ID is stored as two `u64` halves, so the record needs
/// only 8-byte alignment. `Option<LeaderRecord>` is 24 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaderRecord {
    cert: NonZeroU64,
    id_hi: u64,
    id_lo: u64,
}

impl LeaderRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if `cert == 0`: a certificate is the estimate `k ≥ 2` the
    /// ID was chosen under.
    pub fn new(cert: u64, id: u128) -> Self {
        LeaderRecord {
            cert: NonZeroU64::new(cert).expect("a certificate is an estimate k >= 2, never 0"),
            id_hi: (id >> 64) as u64,
            id_lo: id as u64,
        }
    }

    /// The estimate `k` in force when the ID was chosen (the certificate).
    pub fn cert(&self) -> u64 {
        self.cert.get()
    }

    /// The chosen ID.
    pub fn id(&self) -> u128 {
        (u128::from(self.id_hi) << 64) | u128::from(self.id_lo)
    }

    /// The paper's preference order: larger certificate wins; ties broken
    /// by smaller ID.
    pub fn beats(&self, other: &LeaderRecord) -> bool {
        self.cert > other.cert || (self.cert == other.cert && self.id() < other.id())
    }

    /// Merges `other` into `self` if it is preferable; returns whether an
    /// update happened (drives send-on-change logic and revocations).
    pub fn merge(&mut self, other: &LeaderRecord) -> bool {
        if other.beats(self) {
            *self = *other;
            true
        } else {
            false
        }
    }

    /// Wire size in bits.
    pub fn bit_size(&self) -> usize {
        bits_for_u64(self.cert()) + bits_for_u128(self.id())
    }
}

impl fmt::Debug for LeaderRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeaderRecord")
            .field("cert", &self.cert())
            .field("id", &self.id())
            .finish()
    }
}

/// Merges an optional incoming record into an optional current view.
/// Returns whether the view changed.
pub fn merge_view(view: &mut Option<LeaderRecord>, incoming: Option<&LeaderRecord>) -> bool {
    match (view.as_mut(), incoming) {
        (_, None) => false,
        (None, Some(r)) => {
            *view = Some(*r);
            true
        }
        (Some(cur), Some(r)) => cur.merge(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ordering_prefers_bigger_cert_then_smaller_id() {
        let a = LeaderRecord::new(8, 100);
        let b = LeaderRecord::new(4, 1);
        assert!(a.beats(&b));
        assert!(!b.beats(&a));
        let c = LeaderRecord::new(8, 50);
        assert!(c.beats(&a));
        assert!(!a.beats(&c));
        assert!(!a.beats(&a), "a record does not beat itself");
    }

    #[test]
    fn merge_updates_only_on_improvement() {
        let mut v = LeaderRecord::new(4, 10);
        assert!(!v.merge(&LeaderRecord::new(4, 11)));
        assert_eq!(v.id(), 10);
        assert!(v.merge(&LeaderRecord::new(4, 3)));
        assert_eq!(v.id(), 3);
        assert!(v.merge(&LeaderRecord::new(16, 99)));
        assert_eq!(v.cert(), 16);
    }

    #[test]
    fn merge_view_handles_none() {
        let mut view = None;
        assert!(!merge_view(&mut view, None));
        assert!(merge_view(&mut view, Some(&LeaderRecord::new(2, 5))));
        assert_eq!(view, Some(LeaderRecord::new(2, 5)));
        assert!(!merge_view(&mut view, Some(&LeaderRecord::new(2, 9))));
        assert!(merge_view(&mut view, Some(&LeaderRecord::new(2, 1))));
    }

    #[test]
    fn bit_size_scales() {
        let small = LeaderRecord::new(2, 3);
        let big = LeaderRecord::new(1 << 40, u128::MAX);
        assert!(big.bit_size() > small.bit_size());
    }

    #[test]
    #[should_panic(expected = "never 0")]
    fn zero_certificate_is_refused() {
        LeaderRecord::new(0, 1);
    }

    #[test]
    fn debug_prints_cert_and_id_as_integers() {
        let r = LeaderRecord::new(4, (1u128 << 64) + 9);
        assert_eq!(
            format!("{r:?}"),
            "LeaderRecord { cert: 4, id: 18446744073709551625 }"
        );
    }

    /// The record's rules over plain `(cert: u64, id: u128)` fields.
    #[derive(Clone, Copy, PartialEq)]
    struct Plain {
        cert: u64,
        id: u128,
    }

    impl Plain {
        fn beats(&self, other: &Plain) -> bool {
            self.cert > other.cert || (self.cert == other.cert && self.id < other.id)
        }

        fn bit_size(&self) -> usize {
            bits_for_u64(self.cert) + bits_for_u128(self.id)
        }
    }

    /// `cert()`/`id()` round-trip, and `beats`, `merge` and `bit_size`
    /// agree with the plain-field rules on `(a, b)`.
    fn assert_agrees(a: Plain, b: Plain) {
        let (ra, rb) = (
            LeaderRecord::new(a.cert, a.id),
            LeaderRecord::new(b.cert, b.id),
        );
        for (r, p) in [(ra, a), (rb, b)] {
            assert_eq!((r.cert(), r.id()), (p.cert, p.id));
            assert_eq!(r.bit_size(), p.bit_size(), "{r:?}");
        }
        assert_eq!(ra.beats(&rb), a.beats(&b), "{:?} vs {:?}", ra, rb);
        assert_eq!(rb.beats(&ra), b.beats(&a), "{:?} vs {:?}", rb, ra);
        assert_eq!(ra == rb, a == b);
        let mut merged = ra;
        let changed = merged.merge(&rb);
        let expected = if b.beats(&a) { b } else { a };
        assert_eq!(changed, b.beats(&a));
        assert_eq!((merged.cert(), merged.id()), (expected.cert, expected.id));
    }

    #[test]
    fn agrees_with_plain_fields_across_the_id_halves() {
        let two64 = 1u128 << 64;
        let ids = [
            0,
            1,
            u64::MAX as u128 - 1,
            two64 - 1,
            two64,
            two64 + 1,
            // Equal high halves, different low halves.
            (7 << 64) | 3,
            (7 << 64) | (u64::MAX as u128),
            u128::MAX - 1,
            u128::MAX,
        ];
        let certs = [1, 2, 4, 1 << 40, u64::MAX];
        for &ca in &certs {
            for &cb in &certs {
                for &ia in &ids {
                    for &ib in &ids {
                        assert_agrees(Plain { cert: ca, id: ia }, Plain { cert: cb, id: ib });
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_plain_fields_on_seeded_random_pairs() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            // Few certificates, so ties (where the ID decides) are common;
            // IDs either full-width or sharing a high half.
            let cert = |rng: &mut StdRng| 1u64 << rng.gen_range(1..5u32);
            let a_id = rng.gen_range(0..=u128::MAX);
            let b_id = if rng.gen_bool(0.5) {
                (a_id & !(u64::MAX as u128)) | u128::from(rng.gen::<u64>())
            } else {
                rng.gen_range(0..=u128::MAX)
            };
            assert_agrees(
                Plain {
                    cert: cert(&mut rng),
                    id: a_id,
                },
                Plain {
                    cert: cert(&mut rng),
                    id: b_id,
                },
            );
        }
    }
}
