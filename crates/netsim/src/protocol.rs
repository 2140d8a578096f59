//! Protocol cost models.
//!
//! The paper's response-time anatomy is protocol round trips over shaped
//! links: a non-keep-alive HTTP request costs a TCP handshake plus a
//! request/response exchange (§4.1 measures this as ~400 ms over the 100 ms
//! one-way WAN); an RMI invocation costs one exchange *plus* occasional extra
//! round trips caused by ping packets and distributed garbage collection
//! (§4.2, citing Campadello et al.); JDBC traffic is per-statement chatter
//! with the "n+1 calls" behaviour for BMP finders; JMS publication is a
//! one-way transfer to the broker plus broker-to-subscriber deliveries.
//!
//! These builders return [`Step`] fragments that higher layers splice around
//! CPU work.

use mutsvc_desim::rng::SimRng;

use crate::job::Step;
use crate::topology::NodeId;

/// Byte sizes and overhead probabilities for the wire protocols.
#[derive(Debug, Clone)]
pub struct ProtocolParams {
    /// TCP control segment size (SYN / SYN-ACK).
    pub tcp_segment_bytes: u64,
    /// Size of an HTTP request line + headers.
    pub http_request_bytes: u64,
    /// Marshalling overhead of an RMI request (headers, method signature).
    pub rmi_request_overhead_bytes: u64,
    /// Marshalling overhead of an RMI response.
    pub rmi_response_overhead_bytes: u64,
    /// Probability that an RMI call incurs one extra round trip
    /// (DGC lease renewal / ping traffic; ~0.65 reproduces JBoss 2.4.4,
    /// ~0.35 the leaner JBoss 3.0.3 stack).
    pub rmi_extra_round_trip_prob: f64,
    /// Size of the extra DGC/ping segments.
    pub rmi_extra_bytes: u64,
    /// Size of a JDBC statement request.
    pub jdbc_request_bytes: u64,
    /// Fixed part of a JDBC response (excluding row payload).
    pub jdbc_response_overhead_bytes: u64,
    /// Bytes per row fetched over JDBC.
    pub jdbc_row_bytes: u64,
    /// Size of a JMS message envelope (excluding payload).
    pub jms_envelope_bytes: u64,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            tcp_segment_bytes: 64,
            http_request_bytes: 400,
            rmi_request_overhead_bytes: 600,
            rmi_response_overhead_bytes: 400,
            rmi_extra_round_trip_prob: 0.65,
            rmi_extra_bytes: 80,
            jdbc_request_bytes: 150,
            jdbc_response_overhead_bytes: 120,
            jdbc_row_bytes: 200,
            jms_envelope_bytes: 300,
        }
    }
}

impl ProtocolParams {
    /// Parameters reproducing the Pet Store stack (JBoss 2.4.4 + Jetty 3.1.3,
    /// chatty RMI with frequent DGC round trips).
    pub fn petstore_stack() -> Self {
        ProtocolParams {
            rmi_extra_round_trip_prob: 0.65,
            ..Default::default()
        }
    }

    /// Parameters reproducing the RUBiS stack (JBoss 3.0.3 + Jetty 4.1.0,
    /// leaner RMI).
    pub fn rubis_stack() -> Self {
        ProtocolParams {
            rmi_extra_round_trip_prob: 0.35,
            ..Default::default()
        }
    }

    /// A TCP connection establishment round trip (no keep-alive in the
    /// paper's tests, so every page request pays this).
    pub fn tcp_handshake(&self, client: NodeId, server: NodeId) -> Step {
        Step::exchange(
            client,
            server,
            self.tcp_segment_bytes,
            self.tcp_segment_bytes,
        )
    }

    /// The network legs of one HTTP request: handshake plus the request
    /// transfer. The response leg is built separately ([`Self::http_response`])
    /// so server-side work can be spliced in between.
    pub fn http_request(&self, client: NodeId, server: NodeId, body_bytes: u64) -> Vec<Step> {
        vec![
            self.tcp_handshake(client, server),
            Step::transfer(client, server, self.http_request_bytes + body_bytes),
        ]
    }

    /// The HTTP response transfer back to the client.
    pub fn http_response(&self, server: NodeId, client: NodeId, body_bytes: u64) -> Step {
        Step::transfer(server, client, body_bytes)
    }

    /// The request leg of an RMI invocation, including (sampled) DGC/ping
    /// overhead round trips. Returns an empty fragment for co-located calls.
    pub fn rmi_request(
        &self,
        rng: &mut SimRng,
        caller: NodeId,
        callee: NodeId,
        arg_bytes: u64,
    ) -> Vec<Step> {
        if caller == callee {
            return Vec::new();
        }
        let mut steps = Vec::with_capacity(2);
        if rng.chance(self.rmi_extra_round_trip_prob) {
            steps.push(Step::exchange(
                caller,
                callee,
                self.rmi_extra_bytes,
                self.rmi_extra_bytes,
            ));
        }
        steps.push(Step::transfer(
            caller,
            callee,
            self.rmi_request_overhead_bytes + arg_bytes,
        ));
        steps
    }

    /// The response leg of an RMI invocation. Empty for co-located calls.
    pub fn rmi_response(&self, callee: NodeId, caller: NodeId, ret_bytes: u64) -> Vec<Step> {
        if caller == callee {
            return Vec::new();
        }
        vec![Step::transfer(
            callee,
            caller,
            self.rmi_response_overhead_bytes + ret_bytes,
        )]
    }

    /// A complete JDBC interaction of `round_trips` statement round trips
    /// fetching `rows` rows in total. BMP-style finders exhibit the paper's
    /// "n+1 database calls" by passing `round_trips = rows + 1`.
    /// Empty when the client is co-located with the database.
    pub fn jdbc(&self, client: NodeId, db: NodeId, round_trips: u32, rows: u64) -> Vec<Step> {
        if client == db || round_trips == 0 {
            return Vec::new();
        }
        let mut steps = Vec::with_capacity(round_trips as usize);
        let payload = self.jdbc_response_overhead_bytes + rows * self.jdbc_row_bytes;
        // Spread the row payload over the trips; the last trip carries the rest.
        let per_trip = payload / round_trips as u64;
        for i in 0..round_trips {
            let resp = if i + 1 == round_trips {
                payload - per_trip * (round_trips as u64 - 1)
            } else {
                per_trip
            };
            steps.push(Step::exchange(client, db, self.jdbc_request_bytes, resp));
        }
        steps
    }

    /// Publication of a JMS message to a (possibly remote) broker: a one-way
    /// transfer. Delivery to subscribers is a separate [`Self::jms_delivery`].
    pub fn jms_publish(&self, publisher: NodeId, broker: NodeId, payload_bytes: u64) -> Vec<Step> {
        if publisher == broker {
            return Vec::new();
        }
        vec![Step::transfer(
            publisher,
            broker,
            self.jms_envelope_bytes + payload_bytes,
        )]
    }

    /// Delivery of a JMS message from the broker to one subscriber.
    pub fn jms_delivery(
        &self,
        broker: NodeId,
        subscriber: NodeId,
        payload_bytes: u64,
    ) -> Vec<Step> {
        if broker == subscriber {
            return Vec::new();
        }
        vec![Step::transfer(
            broker,
            subscriber,
            self.jms_envelope_bytes + payload_bytes,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> (NodeId, NodeId) {
        (NodeId(0), NodeId(1))
    }

    #[test]
    fn http_request_is_handshake_plus_transfer() {
        let p = ProtocolParams::default();
        let (client, server) = nodes();
        let steps = p.http_request(client, server, 100);
        assert_eq!(steps.len(), 2);
        assert!(matches!(
            steps[0],
            Step::Exchange {
                req_bytes: 64,
                resp_bytes: 64,
                ..
            }
        ));
        assert!(matches!(steps[1], Step::Transfer { bytes: 500, .. }));
    }

    #[test]
    fn colocated_rmi_is_free() {
        let p = ProtocolParams::default();
        let mut rng = SimRng::seed_from_u64(1);
        let (a, _) = nodes();
        assert!(p.rmi_request(&mut rng, a, a, 1_000).is_empty());
        assert!(p.rmi_response(a, a, 1_000).is_empty());
    }

    #[test]
    fn rmi_extra_round_trip_frequency_matches_probability() {
        let p = ProtocolParams {
            rmi_extra_round_trip_prob: 0.65,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(42);
        let (a, b) = nodes();
        let n = 10_000;
        let extra = (0..n)
            .filter(|_| p.rmi_request(&mut rng, a, b, 0).len() == 2)
            .count();
        let freq = extra as f64 / n as f64;
        assert!((freq - 0.65).abs() < 0.02, "observed {freq}");
    }

    #[test]
    fn jdbc_n_plus_one_round_trips() {
        let p = ProtocolParams::default();
        let (a, db) = nodes();
        let rows = 10;
        let steps = p.jdbc(a, db, rows as u32 + 1, rows);
        assert_eq!(steps.len(), 11);
        let total_resp: u64 = steps
            .iter()
            .map(|s| match s {
                Step::Exchange { resp_bytes, .. } => *resp_bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(
            total_resp,
            p.jdbc_response_overhead_bytes + rows * p.jdbc_row_bytes
        );
    }

    #[test]
    fn jdbc_colocated_is_free() {
        let p = ProtocolParams::default();
        let (a, _) = nodes();
        assert!(p.jdbc(a, a, 5, 100).is_empty());
    }

    #[test]
    fn jms_local_broker_is_free_remote_costs_one_transfer() {
        let p = ProtocolParams::default();
        let (a, b) = nodes();
        assert!(p.jms_publish(a, a, 500).is_empty());
        let steps = p.jms_delivery(a, b, 500);
        assert_eq!(steps.len(), 1);
        assert!(matches!(steps[0], Step::Transfer { bytes, .. } if bytes == 800));
    }

    #[test]
    fn stack_presets_differ_in_rmi_chattiness() {
        assert!(
            ProtocolParams::petstore_stack().rmi_extra_round_trip_prob
                > ProtocolParams::rubis_stack().rmi_extra_round_trip_prob
        );
    }
}
