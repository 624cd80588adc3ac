//! Congestion control algorithms.
//!
//! Three algorithms from the paper's experiments, plus DCTCP as a classic
//! reference:
//!
//! * **MPRDMA** — sender-based, ECN-driven, reacting per packet (akin to
//!   DCTCP but without per-window averaging): additive increase of one MTU
//!   per RTT, and a half-MTU decrease for every ECN-marked ACK.
//! * **Swift** — sender-based, delay-driven: a single end-to-end RTT
//!   measurement against a target delay; multiplicative decrease
//!   proportional to the excess delay, at most once per RTT. Its weakness —
//!   one e2e signal cannot localize multi-hop congestion — is what Fig. 1C
//!   of the paper exposes.
//! * **NDP** — receiver-driven: the sender blasts one initial window; every
//!   subsequent packet is released by a receiver PULL paced at the
//!   receiver's line rate; overflowing queues *trim* packets to headers
//!   instead of dropping. Strong under incast at the last hop, weak when
//!   congestion sits in the oversubscribed core (Fig. 11).
//! * **DCTCP** — per-RTT ECN fraction with EWMA gain, for reference.
//!
//! The window logic lives here; trimming and PULL pacing live in the engine.

/// Algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    Mprdma,
    Swift,
    Ndp,
    Dctcp,
}

impl std::fmt::Display for CcAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CcAlgo::Mprdma => "MPRDMA",
            CcAlgo::Swift => "Swift",
            CcAlgo::Ndp => "NDP",
            CcAlgo::Dctcp => "DCTCP",
        };
        f.write_str(s)
    }
}

/// Per-flow congestion-control state. `cwnd` is in bytes.
#[derive(Debug, Clone)]
pub struct CcState {
    pub algo: CcAlgo,
    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
    pub cwnd: f64,
    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
    mtu: f64,
    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
    base_rtt: f64,
    /// Swift: earliest time the next multiplicative decrease may happen.
    next_decrease_at: u64,
    /// DCTCP: EWMA of the marked fraction and per-window counters.
    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
    alpha: f64,
    window_acks: u32,
    window_marks: u32,
}

/// Swift target-delay multiplier over the base RTT.
// det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
const SWIFT_TARGET_FACTOR: f64 = 1.5;
/// Swift multiplicative-decrease aggressiveness.
// det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
const SWIFT_BETA: f64 = 0.8;
/// Swift maximum decrease per event.
// det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
const SWIFT_MAX_MDF: f64 = 0.5;
/// DCTCP EWMA gain.
// det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
const DCTCP_G: f64 = 1.0 / 16.0;

impl CcState {
    /// Create flow CC state. `init_cwnd` is typically one BDP.
    pub fn new(algo: CcAlgo, mtu: u32, base_rtt: u64, init_cwnd: u64) -> Self {
        CcState {
            algo,
            // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
            cwnd: (init_cwnd.max(mtu as u64)) as f64,
            // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
            mtu: mtu as f64,
            // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
            base_rtt: base_rtt as f64,
            next_decrease_at: 0,
            // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
            alpha: 0.0,
            window_acks: 0,
            window_marks: 0,
        }
    }

    /// Current window in bytes (never below one MTU).
    pub fn window(&self) -> u64 {
        self.cwnd.max(self.mtu) as u64
    }

    /// Process one ACK. `now`/`rtt` in ns, `marked` = ECN echo.
    pub fn on_ack(&mut self, now: u64, rtt: u64, marked: bool) {
        match self.algo {
            CcAlgo::Mprdma => {
                if marked {
                    // Per-packet reaction: half an MTU per marked ACK.
                    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                    self.cwnd -= self.mtu / 2.0;
                } else {
                    // One MTU per RTT: mtu^2/cwnd per ACK.
                    self.cwnd += self.mtu * self.mtu / self.cwnd;
                }
            }
            CcAlgo::Swift => {
                let target = self.base_rtt * SWIFT_TARGET_FACTOR;
                // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                let delay = rtt as f64;
                if delay <= target {
                    self.cwnd += self.mtu * self.mtu / self.cwnd;
                } else if now >= self.next_decrease_at {
                    let excess = ((delay - target) / delay * SWIFT_BETA).min(SWIFT_MAX_MDF);
                    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                    self.cwnd *= 1.0 - excess;
                    self.next_decrease_at = now + rtt;
                }
            }
            CcAlgo::Ndp => {
                // Receiver-clocked: the window only gates the initial burst.
            }
            CcAlgo::Dctcp => {
                self.window_acks += 1;
                if marked {
                    self.window_marks += 1;
                }
                // Close the observation window roughly once per cwnd of ACKs.
                // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                let per_window = (self.cwnd / self.mtu).max(1.0) as u64;
                if self.window_acks as u64 >= per_window {
                    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                    let f = self.window_marks as f64 / self.window_acks as f64;
                    // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                    self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
                    if self.window_marks > 0 {
                        // det-lint: allow(float) — fixed-order IEEE-754 cwnd/rate state, bit-stable; pinned by determinism goldens
                        self.cwnd *= 1.0 - self.alpha / 2.0;
                    }
                    self.window_acks = 0;
                    self.window_marks = 0;
                }
                if !marked {
                    self.cwnd += self.mtu * self.mtu / self.cwnd;
                }
            }
        }
        self.cwnd = self.cwnd.max(self.mtu);
    }

    /// React to a retransmission timeout: collapse the window.
    pub fn on_timeout(&mut self) {
        if self.algo != CcAlgo::Ndp {
            self.cwnd = self.mtu;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MTU: u32 = 4096;

    #[test]
    fn mprdma_grows_one_mtu_per_rtt() {
        let mut cc = CcState::new(CcAlgo::Mprdma, MTU, 10_000, 10 * MTU as u64);
        let start = cc.window();
        // One cwnd worth of unmarked ACKs ~ +1 MTU.
        for _ in 0..10 {
            cc.on_ack(0, 10_000, false);
        }
        let grown = cc.window() - start;
        assert!(
            (grown as i64 - MTU as i64).abs() < (MTU / 8) as i64,
            "grew {grown}, expected ~{MTU}"
        );
    }

    #[test]
    fn mprdma_shrinks_on_marks() {
        let mut cc = CcState::new(CcAlgo::Mprdma, MTU, 10_000, 10 * MTU as u64);
        let start = cc.window();
        for _ in 0..4 {
            cc.on_ack(0, 10_000, true);
        }
        assert_eq!(start - cc.window(), 2 * MTU as u64);
    }

    #[test]
    fn swift_holds_at_low_delay_grows() {
        let mut cc = CcState::new(CcAlgo::Swift, MTU, 10_000, 10 * MTU as u64);
        let start = cc.window();
        cc.on_ack(0, 10_000, false); // rtt == base < target
        assert!(cc.window() > start);
    }

    #[test]
    fn swift_decreases_once_per_rtt() {
        let mut cc = CcState::new(CcAlgo::Swift, MTU, 10_000, 100 * MTU as u64);
        let w0 = cc.window();
        cc.on_ack(1000, 40_000, false); // heavy delay -> decrease
        let w1 = cc.window();
        assert!(w1 < w0);
        // Immediately after, another high-delay ACK must not decrease again.
        cc.on_ack(1001, 40_000, false);
        assert_eq!(cc.window(), w1);
        // After an RTT has passed, it may decrease again.
        cc.on_ack(1001 + 40_000, 40_000, false);
        assert!(cc.window() < w1);
    }

    #[test]
    fn swift_decrease_bounded_by_mdf() {
        let mut cc = CcState::new(CcAlgo::Swift, MTU, 10_000, 100 * MTU as u64);
        let w0 = cc.window() as f64;
        cc.on_ack(0, 10_000_000, false); // absurd delay
        assert!(cc.window() as f64 >= w0 * (1.0 - SWIFT_MAX_MDF) - 1.0);
    }

    #[test]
    fn ndp_window_is_static() {
        let mut cc = CcState::new(CcAlgo::Ndp, MTU, 10_000, 8 * MTU as u64);
        let w = cc.window();
        cc.on_ack(0, 50_000, true);
        cc.on_ack(1, 50_000, true);
        assert_eq!(cc.window(), w);
    }

    #[test]
    fn dctcp_converges_down_under_persistent_marking() {
        let mut cc = CcState::new(CcAlgo::Dctcp, MTU, 10_000, 64 * MTU as u64);
        let start = cc.window();
        for i in 0..1000 {
            cc.on_ack(i, 10_000, true);
        }
        assert!(cc.window() < start / 2);
    }

    #[test]
    fn window_floor_is_one_mtu() {
        let mut cc = CcState::new(CcAlgo::Mprdma, MTU, 10_000, MTU as u64);
        for _ in 0..100 {
            cc.on_ack(0, 10_000, true);
        }
        assert_eq!(cc.window(), MTU as u64);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = CcState::new(CcAlgo::Swift, MTU, 10_000, 64 * MTU as u64);
        cc.on_timeout();
        assert_eq!(cc.window(), MTU as u64);
        // NDP ignores timeouts for windowing.
        let mut ndp = CcState::new(CcAlgo::Ndp, MTU, 10_000, 64 * MTU as u64);
        ndp.on_timeout();
        assert_eq!(ndp.window(), 64 * MTU as u64);
    }
}
