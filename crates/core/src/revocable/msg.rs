//! Wire messages of the revocable protocol (Algorithm 7).

use super::record::LeaderRecord;
use ale_congest::message::Payload;

/// Messages of the `Avg` procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RevMsg {
    /// Diffusion-phase broadcast: `⟨Φ, q, c, id_ldr, K_ldr⟩`.
    ///
    /// The potential's metered width is carried as its two factors,
    /// `index · word` bits, so that the whole message is 40 bytes.
    Diffuse {
        /// Potential value. Conceptually an exact rational with denominator
        /// `(2k^{1+ε})^round`; carried as `f64` while `index · word`
        /// charges the paper's exact serialized width.
        potential: f64,
        /// Whether the sender has flagged the estimate as low.
        low: bool,
        /// Whether the sender is/was a white node this iteration.
        white: bool,
        /// The sender's current leader view.
        view: Option<LeaderRecord>,
        /// The diffusion send index (1-indexed in the paper's bit-by-bit
        /// accounting): the potential is serialized as `index` words.
        /// [`RevocableParams::check_horizon`](super::RevocableParams::check_horizon)
        /// refuses a horizon whose index would not fit.
        index: u32,
        /// The potential word width `⌈log₂(2k^{1+ε})⌉` at the sender's
        /// estimate (at most 129 for any `u64` estimate).
        word: u8,
    },
    /// Dissemination-phase broadcast: `⟨q, c, id_ldr, K_ldr⟩`.
    Disseminate {
        /// Low-estimate flag.
        low: bool,
        /// White-node-seen flag.
        white: bool,
        /// The sender's current leader view.
        view: Option<LeaderRecord>,
    },
}

impl Payload for RevMsg {
    fn bit_size(&self) -> usize {
        match self {
            RevMsg::Diffuse {
                view, index, word, ..
            } => {
                let pot_bits = *index as usize * usize::from(*word);
                1 + 2 + pot_bits + 1 + view.map_or(0, |r| r.bit_size())
            }
            RevMsg::Disseminate { view, .. } => 1 + 2 + 1 + view.map_or(0, |r| r.bit_size()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffuse_grows_with_round_index() {
        let diffuse = |index| RevMsg::Diffuse {
            potential: 0.5,
            low: false,
            white: false,
            view: None,
            index,
            word: 5,
        };
        assert_eq!(diffuse(100).bit_size() - diffuse(2).bit_size(), 490);
        // The widest index: the product is taken in `usize`, not `u32`.
        assert_eq!(
            diffuse(u32::MAX).bit_size() - diffuse(1).bit_size(),
            (u32::MAX as usize - 1) * 5
        );
    }

    #[test]
    fn disseminate_is_small() {
        let m = RevMsg::Disseminate {
            low: true,
            white: false,
            view: Some(LeaderRecord::new(8, 12345)),
        };
        // Flags + record only.
        assert!(m.bit_size() < 64);
        let empty = RevMsg::Disseminate {
            low: false,
            white: false,
            view: None,
        };
        assert!(empty.bit_size() <= 4);
    }
}
