//! Wire messages of the revocable protocol (Algorithm 7).

use super::record::LeaderRecord;
use ale_congest::message::Payload;

/// Messages of the `Avg` procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum RevMsg {
    /// Diffusion-phase broadcast: `⟨Φ, q, c, id_ldr, K_ldr⟩`.
    Diffuse {
        /// Potential value. Conceptually an exact rational with denominator
        /// `(2k^{1+ε})^round`; carried as `f64` while
        /// `pot_bits` charges the paper's exact serialized width.
        potential: f64,
        /// Whether the sender has flagged the estimate as low.
        low: bool,
        /// Whether the sender is/was a white node this iteration.
        white: bool,
        /// The sender's current leader view.
        view: Option<LeaderRecord>,
        /// Serialized width of the potential in bits at this diffusion
        /// round: `round·⌈log₂(2k^{1+ε})⌉` (paper's bit-by-bit accounting).
        pot_bits: usize,
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
            RevMsg::Diffuse { view, pot_bits, .. } => {
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
        let early = RevMsg::Diffuse {
            potential: 0.5,
            low: false,
            white: false,
            view: None,
            pot_bits: 10,
        };
        let late = RevMsg::Diffuse {
            potential: 0.5,
            low: false,
            white: false,
            view: None,
            pot_bits: 500,
        };
        assert_eq!(late.bit_size() - early.bit_size(), 490);
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
