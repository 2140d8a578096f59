//! Multi-hop WAN path costs over an arbitrary weighted topology.
//!
//! The original walker judged a crossing "WAN or not" through the star
//! topology's node-name classification ([`mutsvc_core::PaperNodes::is_wan`]),
//! which silently assumes every wide-area crossing traverses exactly one
//! WAN leg. The analyzer instead charges each crossing by the number of WAN
//! *hops* on its shortest-path route ([`Topology::wan_hops`], which counts
//! the links [`Topology::is_wan`] classifies — the judgement the engine's
//! region split, lookahead, hop spans and metrics series all make), so the
//! §4.2 budget check stays correct on meshes where an edge-to-edge call
//! relays through several points of presence. On the paper's star the two
//! models agree link-for-link (an equivalence the test below pins), except
//! for the deliberately uncovered edge↔edge direction, which the star
//! walker never produces but a mesh would: that route crosses two WAN legs
//! and costs — and warns (`W112`) — accordingly.

use mutsvc_netsim::Topology;

use crate::walker::PageWalk;

/// Hop-weighted wide-area cost of a walk: every crossing is charged one
/// round trip per WAN hop its shortest path traverses, so a relayed
/// edge-to-edge call costs both wide-area legs (§4.2 on multi-hop
/// topologies). On the paper's star this equals the flat WAN trip count.
pub(crate) fn hop_weighted_wan_trips(topology: &Topology, walk: &PageWalk) -> u32 {
    walk.crossings
        .iter()
        .map(|c| c.round_trips() * topology.wan_hops(c.from, c.to))
        .sum()
}

#[cfg(test)]
mod tests {
    use mutsvc_core::paper_topology;
    use mutsvc_desim::time::SimDuration;

    /// On the star, hop counting and the node-name classifier agree for
    /// every pair the walker can produce; the edge↔edge direction (which
    /// the star walker never routes) is the one genuinely multi-hop pair.
    #[test]
    fn star_hops_match_node_classification() {
        for petstore in [false, true] {
            let (t, n) = paper_topology(petstore);
            for from in t.node_ids() {
                for to in t.node_ids() {
                    if from == to {
                        assert_eq!(t.wan_hops(from, to), 0);
                        continue;
                    }
                    let edge_edge = (from == n.edge1 && to == n.edge2)
                        || (from == n.edge2 && to == n.edge1)
                        || (from == n.client_edge1 && to == n.client_edge2)
                        || (from == n.client_edge2 && to == n.client_edge1)
                        || ((from == n.edge1 || from == n.client_edge1)
                            && (to == n.edge2 || to == n.client_edge2))
                        || ((from == n.edge2 || from == n.client_edge2)
                            && (to == n.edge1 || to == n.client_edge1));
                    if edge_edge {
                        assert_eq!(t.wan_hops(from, to), 2, "{from} -> {to}");
                        assert!(t.wan_hops(from, to) > 0);
                    } else {
                        assert_eq!(
                            t.wan_hops(from, to) > 0,
                            n.is_wan(from, to),
                            "{from} -> {to}"
                        );
                        assert!(t.wan_hops(from, to) <= 1, "{from} -> {to}");
                    }
                }
            }
        }
    }

    #[test]
    fn rtt_reflects_wan_latency() {
        let (t, n) = paper_topology(false);
        assert!(t.rtt(n.edge1, n.main) >= SimDuration::from_millis(200));
        assert!(t.rtt(n.main, n.router) < SimDuration::from_millis(2));
    }
}
