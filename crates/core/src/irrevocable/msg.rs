//! Wire messages of the irrevocable protocol (Algorithms 1–5).

use super::cautious::CbBody;
use ale_congest::message::{bits_for_u64, Payload};

/// All messages exchanged by
/// [`IrrevocableProcess`](super::process::IrrevocableProcess).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrrMsg {
    /// Cautious-broadcast control message for the execution rooted at the
    /// candidate with random ID `src`.
    Cb {
        /// Execution id (the source candidate's random ID).
        src: u64,
        /// The control body.
        body: CbBody,
    },
    /// Random-walk tokens: `count` fungible tokens carrying the largest
    /// walk ID seen by the sender (the paper's CONGEST encoding — only the
    /// dominant ID travels per link per round).
    Walk {
        /// Largest walk ID at the sender.
        id_max: u64,
        /// Number of tokens moving through this port this round.
        count: u64,
    },
    /// Convergecast of the largest walk ID along broadcast trees.
    Converge {
        /// Largest walk ID at the sender.
        id_max: u64,
    },
}

impl Payload for IrrMsg {
    fn bit_size(&self) -> usize {
        // 2 tag bits plus field widths.
        match self {
            IrrMsg::Cb { src, body } => 2 + bits_for_u64(*src) + body.body_bits(),
            IrrMsg::Walk { id_max, count } => 2 + bits_for_u64(*id_max) + bits_for_u64(*count),
            IrrMsg::Converge { id_max } => 2 + bits_for_u64(*id_max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_fields() {
        let small = IrrMsg::Walk {
            id_max: 1,
            count: 1,
        };
        let big = IrrMsg::Walk {
            id_max: u64::MAX,
            count: 1000,
        };
        assert!(big.bit_size() > small.bit_size());
        let cb = IrrMsg::Cb {
            src: 12345,
            body: CbBody::Size(77),
        };
        assert!(cb.bit_size() >= 2 + 14 + 3);
        let cv = IrrMsg::Converge { id_max: 255 };
        assert_eq!(cv.bit_size(), 2 + 8);
    }

    #[test]
    fn id_in_n4_fits_congest_budget_with_constant_factor() {
        // IDs live in {1..n^4}: 4·log2(n) bits. With the budget factor of
        // 8 the whole message fits in one CONGEST round.
        let n: u64 = 1 << 15;
        let id = n.pow(4);
        let msg = IrrMsg::Converge { id_max: id };
        let budget = ale_congest::message::congest_budget(n as usize);
        assert!(msg.bit_size() <= budget, "{} > {budget}", msg.bit_size());
    }
}
