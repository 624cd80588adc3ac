//! Per-packet stochastic link models: seeded random loss and latency
//! jitter evaluated in the forwarding hot path.
//!
//! Where `fault.rs` precompiles *timed windows* (a port is down or
//! degraded between two instants, scheduled as events before traffic
//! starts), a [`LinkModel`] makes a fresh decision for **every packet**
//! that finishes transmitting on a port: drop it with a per-tier
//! probability in parts-per-million, and/or delay its arrival by a
//! sample from one of the `atlahs_core::faultgen` Q32 fixed-point
//! distributions (exponential, Weibull, uniform).
//!
//! # Counter-based draw streams
//!
//! The engine must stay bit-identical across re-runs, thread counts,
//! and — critically — snapshot/restore (the branch-and-continue
//! contract). A shared RNG stream would break all three: the ECN
//! marker already owns the engine's `StdRng`, and any draw order that
//! depends on scheduling would not survive a checkpoint. Instead every
//! port keeps a monotone **draw counter**; packet `n` leaving port `p`
//! draws `fnv_draw2(seed, "loss", p, n)` and, independently,
//! `fnv_draw2(seed, "jitter", p, n)`. The counters travel in
//! `HtsimState`, so a run restored mid-loss resumes the exact draw
//! sequence, and an inactive model consumes **zero** draws — the empty
//! spec is byte-identical to an engine without the layer.
//!
//! The spec half of this module ([`LinkModelSpec`]) is the `loss:` /
//! `jitter:` token family both grids parse; it is seedless and
//! label-stable so cell keys and fault sub-seed derivation
//! (`cell_seed(cell_seed, label)`) work exactly like the timed fault
//! axis.

use atlahs_core::faultgen::{fnv_draw2, Distribution};

/// Which link tier a loss probability applies to. "Core" is any port
/// the topology marks as core-facing (`Port::is_core`); "edge" is
/// everything else, including host NICs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LossTier {
    /// Every port drops with the same probability.
    #[default]
    All,
    /// Only core-facing ports drop.
    Core,
    /// Only edge/host-facing ports drop.
    Edge,
}

/// The engine-facing per-packet stochastic model. [`Default`] is the
/// inactive model: no loss, no jitter, zero draws consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkModel {
    /// Loss probability on core-facing ports, in parts per million.
    pub core_loss_ppm: u32,
    /// Loss probability on edge/host-facing ports, in parts per million.
    pub edge_loss_ppm: u32,
    /// Extra per-packet wire latency, sampled per packet; `None`
    /// disables jitter.
    pub jitter: Option<Distribution>,
    /// Seed of the draw streams. Independent from the engine's
    /// `StdRng` seed: the grid layer derives it from the cell seed and
    /// the fault label, so a lossy cell never perturbs the ECN stream.
    pub seed: u64,
}

impl LinkModel {
    /// Whether the model can affect any packet. The hot path consults
    /// this before touching a draw counter, so an inactive model is
    /// free *and* draw-free.
    pub fn active(&self) -> bool {
        self.core_loss_ppm > 0 || self.edge_loss_ppm > 0 || self.jitter.is_some()
    }

    /// The loss probability (ppm) for a port of the given tier.
    pub fn loss_ppm(&self, is_core: bool) -> u32 {
        if is_core {
            self.core_loss_ppm
        } else {
            self.edge_loss_ppm
        }
    }

    /// Per-packet loss decision for draw `n` of port `port`: map the
    /// draw's top 32 bits to `[0, 1_000_000)` and compare against the
    /// tier's ppm. Pure, so re-evaluating after a restore with the
    /// same counter reproduces the decision bit for bit.
    pub fn drops(&self, port: u32, n: u64, is_core: bool) -> bool {
        let ppm = self.loss_ppm(is_core);
        if ppm == 0 {
            return false;
        }
        let draw = fnv_draw2(self.seed, "loss", port as u64, n);
        ((draw >> 32) * 1_000_000) >> 32 < ppm as u64
    }

    /// Per-packet jitter sample (ns) for draw `n` of port `port`; 0
    /// when jitter is disabled (or the sample lands on 0).
    pub fn jitter_ns(&self, port: u32, n: u64) -> u64 {
        match self.jitter {
            None => 0,
            Some(dist) => dist.sample(fnv_draw2(self.seed, "jitter", port as u64, n)),
        }
    }
}

/// The largest jitter mean, scale or max a `jitter:` token takes: 1 s.
/// Past it the retransmission timer re-injects the window every backed-off
/// RTO until a jittered copy lands, and a run hangs or exhausts memory.
const MAX_JITTER_NS: u64 = 1_000_000_000;

/// A seedless `loss:` / `jitter:` grid token — the spec form of a
/// [`LinkModel`], analogous to the grid layer's timed `FaultSpec`s:
/// label-stable (labels suffix cell keys and seed the draw streams via
/// `cell_seed(cell_seed, label)`), validated at parse time, and lowered
/// to the engine model with [`LinkModelSpec::model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkModelSpec {
    /// Random per-packet loss at `ppm` parts per million on the given
    /// tier. Labels: `loss:<ppm>`, `loss:<ppm>:core`, `loss:<ppm>:edge`.
    Loss {
        /// Drop probability in parts per million, in `[1, 999_999]`.
        ppm: u32,
        /// Which ports drop.
        tier: LossTier,
    },
    /// Per-packet latency jitter. Labels: `jitter:exp:<mean_ns>`,
    /// `jitter:weibull:<scale_ns>:<shape>`, `jitter:uniform:<max_ns>`.
    Jitter {
        /// The jitter distribution (always one of the faultgen Q32
        /// samplers).
        dist: Distribution,
    },
}

impl LinkModelSpec {
    /// The canonical token, used verbatim as the cell-key suffix and as
    /// the draw-seed derivation label. `parse(label())` roundtrips.
    pub fn label(&self) -> String {
        match *self {
            LinkModelSpec::Loss { ppm, tier } => match tier {
                LossTier::All => format!("loss:{ppm}"),
                LossTier::Core => format!("loss:{ppm}:core"),
                LossTier::Edge => format!("loss:{ppm}:edge"),
            },
            LinkModelSpec::Jitter { dist } => match dist {
                Distribution::Exp { mean_ns } => format!("jitter:exp:{mean_ns}"),
                Distribution::Weibull { scale_ns, shape } => {
                    format!("jitter:weibull:{scale_ns}:{shape}")
                }
                Distribution::Uniform { max_ns } => format!("jitter:uniform:{max_ns}"),
            },
        }
    }

    /// Parse a `loss:` / `jitter:` token. Returns `None` when the token
    /// is not from this family (so callers can fall through to the
    /// timed-fault grammar), `Some(Err(..))` when it is but is
    /// malformed or degenerate.
    pub fn parse(tok: &str) -> Option<Result<Self, String>> {
        let parts: Vec<&str> = tok.split(':').collect();
        match parts.as_slice() {
            ["loss", rest @ ..] => Some(Self::parse_loss(tok, rest)),
            ["jitter", rest @ ..] => Some(Self::parse_jitter(tok, rest)),
            _ => None,
        }
    }

    fn parse_loss(tok: &str, rest: &[&str]) -> Result<Self, String> {
        let (ppm_s, tier) = match rest {
            [ppm] => (ppm, LossTier::All),
            [ppm, "core"] => (ppm, LossTier::Core),
            [ppm, "edge"] => (ppm, LossTier::Edge),
            [_, t] => {
                return Err(format!(
                    "fault `{tok}`: unknown loss tier `{t}` — use `core`, `edge`, or omit \
                     the tier for all links"
                ))
            }
            _ => return Err(format!("fault `{tok}`: expected loss:<ppm>[:core|:edge]")),
        };
        let ppm: u32 = ppm_s.parse().map_err(|_| format!("fault `{tok}`: bad ppm `{ppm_s}`"))?;
        if ppm == 0 {
            return Err(format!(
                "fault `{tok}`: loss is in parts per million and must be >= 1 — a 0 ppm \
                 model is the clean fabric; drop the token instead"
            ));
        }
        if ppm >= 1_000_000 {
            return Err(format!(
                "fault `{tok}`: loss must be < 1_000_000 ppm — a link that drops every \
                 packet is an outage, not noise; model it with linkflap/markov/rackfail"
            ));
        }
        Ok(LinkModelSpec::Loss { ppm, tier })
    }

    fn parse_jitter(tok: &str, rest: &[&str]) -> Result<Self, String> {
        let check = |what: &str, ns: u64| match ns {
            0 => Err(format!(
                "fault `{tok}`: jitter {what} must be >= 1 ns — a zero-scale distribution \
                 never perturbs a timestamp; drop the token instead"
            )),
            ns if ns > MAX_JITTER_NS => Err(format!(
                "fault `{tok}`: jitter {what} must be <= {MAX_JITTER_NS} ns — a second of \
                 added latency per packet is an outage, not noise; model it with \
                 linkflap/markov/rackfail"
            )),
            _ => Ok(()),
        };
        let dist = match rest {
            ["exp", mean] => {
                let mean_ns: u64 =
                    mean.parse().map_err(|_| format!("fault `{tok}`: bad mean `{mean}`"))?;
                check("mean", mean_ns)?;
                Distribution::Exp { mean_ns }
            }
            ["weibull", scale, shape] => {
                let scale_ns: u64 =
                    scale.parse().map_err(|_| format!("fault `{tok}`: bad scale `{scale}`"))?;
                let shape: u32 =
                    shape.parse().map_err(|_| format!("fault `{tok}`: bad shape `{shape}`"))?;
                check("scale", scale_ns)?;
                if !(1..=16).contains(&shape) {
                    return Err(format!(
                        "fault `{tok}`: weibull shape must be in [1, 16] (shape 1 is the \
                         exponential)"
                    ));
                }
                Distribution::Weibull { scale_ns, shape }
            }
            ["uniform", max] => {
                let max_ns: u64 =
                    max.parse().map_err(|_| format!("fault `{tok}`: bad max `{max}`"))?;
                check("max", max_ns)?;
                Distribution::Uniform { max_ns }
            }
            _ => {
                return Err(format!(
                    "fault `{tok}`: expected jitter:exp:<mean_ns>, \
                     jitter:weibull:<scale_ns>:<shape>, or jitter:uniform:<max_ns>"
                ))
            }
        };
        Ok(LinkModelSpec::Jitter { dist })
    }

    /// Lower the spec to the engine model with the given draw seed
    /// (the grid layer passes the fault sub-seed,
    /// `cell_seed(cell.seed, label)`).
    pub fn model(&self, seed: u64) -> LinkModel {
        match *self {
            LinkModelSpec::Loss { ppm, tier } => {
                let (core, edge) = match tier {
                    LossTier::All => (ppm, ppm),
                    LossTier::Core => (ppm, 0),
                    LossTier::Edge => (0, ppm),
                };
                LinkModel { core_loss_ppm: core, edge_loss_ppm: edge, jitter: None, seed }
            }
            LinkModelSpec::Jitter { dist } => {
                LinkModel { core_loss_ppm: 0, edge_loss_ppm: 0, jitter: Some(dist), seed }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_model_is_free_and_draw_free() {
        let m = LinkModel::default();
        assert!(!m.active());
        assert!(!m.drops(0, 0, true) && !m.drops(0, 0, false));
        assert_eq!(m.jitter_ns(0, 0), 0);
    }

    #[test]
    fn loss_rate_tracks_ppm_per_tier() {
        let m = LinkModel { core_loss_ppm: 200_000, edge_loss_ppm: 0, jitter: None, seed: 7 };
        assert!(m.active());
        let n = 50_000u64;
        let core_drops = (0..n).filter(|&i| m.drops(3, i, true)).count() as u64;
        let edge_drops = (0..n).filter(|&i| m.drops(3, i, false)).count() as u64;
        assert_eq!(edge_drops, 0, "edge tier at 0 ppm never drops");
        // 20% ± 1.5% over 50k draws.
        let expect = n / 5;
        assert!(
            core_drops.abs_diff(expect) * 100 <= n * 3 / 2,
            "core drop count {core_drops} far from {expect}"
        );
        // Different ports and seeds draw independently but reproducibly.
        let again = (0..n).filter(|&i| m.drops(3, i, true)).count() as u64;
        assert_eq!(core_drops, again);
        let other_port = (0..n).filter(|&i| m.drops(4, i, true)).count() as u64;
        assert_ne!(
            (0..64).map(|i| m.drops(3, i, true)).collect::<Vec<_>>(),
            (0..64).map(|i| m.drops(4, i, true)).collect::<Vec<_>>(),
        );
        assert!(other_port.abs_diff(expect) * 100 <= n * 3 / 2);
    }

    #[test]
    fn jitter_samples_are_seeded_and_distribution_shaped() {
        let m = LinkModel {
            core_loss_ppm: 0,
            edge_loss_ppm: 0,
            jitter: Some(Distribution::Uniform { max_ns: 1_000 }),
            seed: 9,
        };
        assert!(m.active());
        let a: Vec<u64> = (0..512).map(|i| m.jitter_ns(1, i)).collect();
        assert!(a.iter().all(|&j| j < 1_000));
        assert!(a.iter().any(|&j| j > 0), "a 1 µs uniform cap must produce nonzero jitter");
        assert_eq!(a, (0..512).map(|i| m.jitter_ns(1, i)).collect::<Vec<_>>());
        assert_ne!(a, (0..512).map(|i| m.jitter_ns(2, i)).collect::<Vec<_>>());
    }

    #[test]
    fn spec_labels_roundtrip() {
        for spec in [
            LinkModelSpec::Loss { ppm: 20_000, tier: LossTier::All },
            LinkModelSpec::Loss { ppm: 80_000, tier: LossTier::Core },
            LinkModelSpec::Loss { ppm: 5, tier: LossTier::Edge },
            LinkModelSpec::Jitter { dist: Distribution::Exp { mean_ns: 2_000 } },
            LinkModelSpec::Jitter { dist: Distribution::Weibull { scale_ns: 3_000, shape: 2 } },
            LinkModelSpec::Jitter { dist: Distribution::Uniform { max_ns: 1_500 } },
        ] {
            let label = spec.label();
            assert_eq!(
                LinkModelSpec::parse(&label),
                Some(Ok(spec)),
                "label `{label}` must roundtrip"
            );
        }
        assert_eq!(LinkModelSpec::parse("linkflap:2:5000:60000"), None, "not our family");
        assert_eq!(LinkModelSpec::parse("none"), None);
    }

    #[test]
    fn spec_rejects_degenerate_tokens() {
        let err = |tok: &str| LinkModelSpec::parse(tok).expect("our family").unwrap_err();
        assert!(err("loss:0").contains("must be >= 1"));
        assert!(err("loss:0").contains("clean fabric"));
        assert!(err("loss:1000000").contains("< 1_000_000 ppm"));
        assert!(err("loss:2000000").contains("outage"));
        assert!(err("loss:5:middle").contains("unknown loss tier"));
        assert!(err("loss:banana").contains("bad ppm"));
        assert!(err("jitter:exp:0").contains("zero-scale"));
        assert!(err("jitter:weibull:0:2").contains("zero-scale"));
        assert!(err("jitter:uniform:0").contains("zero-scale"));
        assert!(err("jitter:exp:1000000001").contains("<= 1000000000 ns"));
        assert!(err("jitter:exp:18446744073709551615").contains("outage"));
        assert!(err("jitter:weibull:1000000001:2").contains("outage"));
        assert!(err("jitter:uniform:1000000000000000000").contains("outage"));
        assert!(LinkModelSpec::parse("jitter:uniform:1000000000").expect("our family").is_ok());
        assert!(err("jitter:weibull:100:0").contains("[1, 16]"));
        assert!(err("jitter:weibull:100:17").contains("[1, 16]"));
        assert!(err("jitter:gauss:100").contains("expected jitter:exp"));
    }

    #[test]
    fn model_lowering_maps_tiers_and_seeds() {
        let m = LinkModelSpec::Loss { ppm: 9, tier: LossTier::Core }.model(0xabc);
        assert_eq!((m.core_loss_ppm, m.edge_loss_ppm, m.seed), (9, 0, 0xabc));
        let m = LinkModelSpec::Loss { ppm: 9, tier: LossTier::Edge }.model(1);
        assert_eq!((m.core_loss_ppm, m.edge_loss_ppm), (0, 9));
        let m = LinkModelSpec::Loss { ppm: 9, tier: LossTier::All }.model(1);
        assert_eq!((m.core_loss_ppm, m.edge_loss_ppm), (9, 9));
        let m = LinkModelSpec::Jitter { dist: Distribution::Exp { mean_ns: 5 } }.model(1);
        assert_eq!(m.jitter, Some(Distribution::Exp { mean_ns: 5 }));
        assert!(m.active());
    }
}
