//! Spatial destination patterns.

use lumen_desim::Rng;
use lumen_noc::config::NocConfig;
use lumen_noc::ids::{NodeId, RackCoord};
use serde::{Deserialize, Serialize};

/// Picks the destination node for each generated packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Every other node is equally likely (the paper's uniform random).
    Uniform,
    /// Like `Uniform`, but the listed nodes receive a weighted multiple of
    /// the base probability (the paper's hot spot: node 4 of rack (3,5)
    /// accepts 4× the traffic of others).
    Hotspot {
        /// `(node, weight)` pairs; unlisted nodes have weight 1.
        weights: Vec<(NodeId, f64)>,
    },
    /// Rack-level transpose: rack (x, y) sends to rack (y, x), same local
    /// index.
    Transpose,
    /// Rack-level bit complement: rack coordinates mirrored across the
    /// mesh, same local index.
    BitComplement,
    /// Rack-level tornado: half-width offset along X, same local index.
    Tornado,
}

impl Pattern {
    /// The paper's hotspot configuration: node 4 of rack (3,5) is 4× as
    /// likely a destination as any other node. On meshes too small to hold
    /// that coordinate, the nearest existing rack/local index is used.
    pub fn paper_hotspot(config: &NocConfig) -> Pattern {
        let coord = RackCoord::new(3.min(config.width - 1), 5.min(config.height - 1));
        let router = config.router_at(coord);
        let hot = config.node_at(router, 4.min(config.nodes_per_rack - 1));
        Pattern::Hotspot {
            weights: vec![(hot, 4.0)],
        }
    }

    /// Picks a destination for a packet from `src`.
    ///
    /// Random patterns never return `src` itself; permutation patterns may
    /// map a node to itself, in which case `None` is returned and the
    /// caller skips the packet (standard permutation-workload convention).
    pub fn pick(&self, config: &NocConfig, src: NodeId, rng: &mut Rng) -> Option<NodeId> {
        match self {
            Pattern::Uniform => {
                let n = config.node_count();
                let mut dst = NodeId(rng.index(n - 1) as u32);
                if dst.0 >= src.0 {
                    dst = NodeId(dst.0 + 1);
                }
                Some(dst)
            }
            Pattern::Hotspot { weights } => {
                // Total weight = (n-1) baseline + extra weight on listed
                // nodes (excluding src). Draw in two stages: first decide
                // whether a listed node is hit, then fall back to uniform.
                let n = config.node_count();
                let mut extra = 0.0;
                for &(node, w) in weights {
                    if node != src {
                        extra += w - 1.0;
                    }
                }
                let total = (n - 1) as f64 + extra;
                let mut x = rng.next_f64() * total;
                for &(node, w) in weights {
                    if node != src {
                        if x < w {
                            return Some(node);
                        }
                        x -= w;
                    }
                }
                // Uniform over the remaining nodes (excluding src and the
                // listed hotspots).
                loop {
                    let mut dst = NodeId(rng.index(n - 1) as u32);
                    if dst.0 >= src.0 {
                        dst = NodeId(dst.0 + 1);
                    }
                    if !weights.iter().any(|&(node, _)| node == dst) {
                        return Some(dst);
                    }
                }
            }
            Pattern::Transpose => {
                let r = config.router_of_node(src);
                let c = config.coord_of(r);
                if c.x == c.y {
                    return None;
                }
                let dst_router = config.router_at(RackCoord::new(c.y, c.x));
                Some(config.node_at(dst_router, config.local_index(src)))
            }
            Pattern::BitComplement => {
                let r = config.router_of_node(src);
                let c = config.coord_of(r);
                let mirrored = RackCoord::new(config.width - 1 - c.x, config.height - 1 - c.y);
                if mirrored == c {
                    return None;
                }
                let dst_router = config.router_at(mirrored);
                Some(config.node_at(dst_router, config.local_index(src)))
            }
            Pattern::Tornado => {
                let r = config.router_of_node(src);
                let c = config.coord_of(r);
                let shift = (config.width / 2).max(1);
                let nx = (c.x + shift) % config.width;
                if nx == c.x {
                    return None;
                }
                let dst_router = config.router_at(RackCoord::new(nx, c.y));
                Some(config.node_at(dst_router, config.local_index(src)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let config = cfg();
        let mut rng = Rng::seed_from(1);
        let src = NodeId(100);
        let mut seen = vec![false; config.node_count()];
        for _ in 0..20_000 {
            let dst = Pattern::Uniform.pick(&config, src, &mut rng).unwrap();
            assert_ne!(dst, src);
            seen[dst.index()] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered > 500, "covered {covered}/512");
    }

    #[test]
    fn hotspot_receives_about_4x() {
        let config = cfg();
        let pattern = Pattern::paper_hotspot(&config);
        let mut rng = Rng::seed_from(2);
        let mut counts = vec![0u32; config.node_count()];
        let trials = 400_000;
        for i in 0..trials {
            let src = NodeId((i % config.node_count()) as u32);
            if let Some(dst) = pattern.pick(&config, src, &mut rng) {
                counts[dst.index()] += 1;
            }
        }
        let hot = counts[348] as f64;
        let others: f64 = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 348)
            .map(|(_, &c)| c as f64)
            .sum::<f64>()
            / 511.0;
        let ratio = hot / others;
        assert!((ratio - 4.0).abs() < 0.4, "hotspot ratio {ratio}");
    }

    #[test]
    fn transpose_is_deterministic_involution() {
        let config = cfg();
        let mut rng = Rng::seed_from(3);
        let src = config.node_at(config.router_at(RackCoord::new(2, 6)), 3);
        let dst = Pattern::Transpose.pick(&config, src, &mut rng).unwrap();
        let back = Pattern::Transpose.pick(&config, dst, &mut rng).unwrap();
        assert_eq!(back, src);
        assert_eq!(
            config.coord_of(config.router_of_node(dst)),
            RackCoord::new(6, 2)
        );
        // Diagonal racks map to themselves → None.
        let diag = config.node_at(config.router_at(RackCoord::new(4, 4)), 0);
        assert_eq!(Pattern::Transpose.pick(&config, diag, &mut rng), None);
    }

    #[test]
    fn bit_complement_mirrors() {
        let config = cfg();
        let mut rng = Rng::seed_from(4);
        let src = config.node_at(config.router_at(RackCoord::new(0, 0)), 7);
        let dst = Pattern::BitComplement.pick(&config, src, &mut rng).unwrap();
        assert_eq!(
            config.coord_of(config.router_of_node(dst)),
            RackCoord::new(7, 7)
        );
        assert_eq!(config.local_index(dst), 7);
    }

    #[test]
    fn tornado_shifts_half_width() {
        let config = cfg();
        let mut rng = Rng::seed_from(5);
        let src = config.node_at(config.router_at(RackCoord::new(6, 3)), 1);
        let dst = Pattern::Tornado.pick(&config, src, &mut rng).unwrap();
        assert_eq!(
            config.coord_of(config.router_of_node(dst)),
            RackCoord::new(2, 3)
        );
    }

    #[test]
    fn hotspot_src_is_hot_node() {
        // When the hot node itself sends, it must not pick itself.
        let config = cfg();
        let pattern = Pattern::paper_hotspot(&config);
        let mut rng = Rng::seed_from(6);
        for _ in 0..1000 {
            let dst = pattern.pick(&config, NodeId(348), &mut rng).unwrap();
            assert_ne!(dst, NodeId(348));
        }
    }
}
