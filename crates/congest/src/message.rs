//! Message payloads and CONGEST bit accounting.
//!
//! The CONGEST model (Peleg \[28\]; paper Section 2) allows each node to send
//! `O(log n)` bits per link per round. The simulator does not serialize
//! messages — it *meters* them: every payload reports its wire size through
//! [`Payload::bit_size`], and the metrics layer compares that against the
//! per-link budget, recording violations and charging extra serialized
//! rounds where the paper does (the revocable protocol's potentials,
//! Section 5.2: "transmissions of potentials are done one bit at a time").

/// A message payload with a defined wire size.
///
/// Implementations should report the number of bits an honest binary
/// encoding of the value would occupy — this is what the message/bit
/// complexity counters aggregate and what the CONGEST budget is enforced
/// against.
pub trait Payload: Clone + std::fmt::Debug {
    /// Serialized size in bits.
    fn bit_size(&self) -> usize;
}

/// Bits needed to store `v` in plain binary (`0 → 1` bit).
///
/// # Examples
///
/// ```
/// use ale_congest::message::bits_for_u128;
/// assert_eq!(bits_for_u128(0), 1);
/// assert_eq!(bits_for_u128(1), 1);
/// assert_eq!(bits_for_u128(255), 8);
/// assert_eq!(bits_for_u128(256), 9);
/// ```
pub fn bits_for_u128(v: u128) -> usize {
    (128 - v.leading_zeros()).max(1) as usize
}

/// Bits needed to store `v` in plain binary (`0 → 1` bit).
pub fn bits_for_u64(v: u64) -> usize {
    bits_for_u128(v as u128)
}

/// The per-link-per-round CONGEST budget for an `n`-node network:
/// `factor · ⌈log₂ n⌉` bits (`n = 1` treated as 1 bit base).
///
/// # Examples
///
/// ```
/// use ale_congest::message::congest_budget;
/// assert_eq!(congest_budget(1024, 4), 40);
/// ```
pub fn congest_budget(n: usize, factor: usize) -> usize {
    let log = if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    };
    factor * log.max(1)
}

/// Blanket payload for unit messages (pure synchronization pulses).
impl Payload for () {
    fn bit_size(&self) -> usize {
        1
    }
}

impl Payload for u64 {
    fn bit_size(&self) -> usize {
        bits_for_u64(*self)
    }
}

impl Payload for bool {
    fn bit_size(&self) -> usize {
        1
    }
}

impl<T: Payload> Payload for Option<T> {
    fn bit_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::bit_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for_u64(0), 1);
        assert_eq!(bits_for_u64(1), 1);
        assert_eq!(bits_for_u64(2), 2);
        assert_eq!(bits_for_u64(u64::MAX), 64);
        assert_eq!(bits_for_u64(1023), 10);
        assert_eq!(bits_for_u128(u128::MAX), 128);
    }

    #[test]
    fn budget_scales_logarithmically() {
        assert_eq!(congest_budget(2, 1), 1);
        assert_eq!(congest_budget(1024, 1), 10);
        assert_eq!(congest_budget(1025, 1), 11);
        assert_eq!(congest_budget(1, 3), 3);
    }

    #[test]
    fn payload_impls() {
        assert_eq!(().bit_size(), 1);
        assert_eq!(7u64.bit_size(), 3);
        assert_eq!(true.bit_size(), 1);
        assert_eq!(Some(7u64).bit_size(), 4);
        assert_eq!(None::<u64>.bit_size(), 1);
    }
}
