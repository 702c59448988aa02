//! The reader's side of a query session: [`FleetClient`].

use super::conn::{retry, Link};
use super::session::request_id_of;
use super::TransportConfig;
use crate::aggregator::FleetHealth;
use crate::control::CoveredValue;
use crate::query::{
    decode_response, encode_request, CoveredTopNodesAnswer, MetricsAnswer, QueryRequest,
    QueryResponse, ScalarAnswer, SelfStatAnswer, TopNodeEntry,
};
use crate::store::Rank;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::wire::{bad_data, frame_tag, put_u64};
use moda_telemetry::WindowAgg;
use std::collections::VecDeque;
use std::io;

/// The one answer kind a typed request expects: a server-side refusal
/// surfaces as `Err`, any other kind is a corrupt peer.
macro_rules! answer {
    ($resp:expr, $kind:ident) => {
        match $resp {
            QueryResponse::$kind(a) => Ok(a),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    };
}

/// Typed client for the read-only query protocol: dial + authenticate
/// ([`frame_tag::QUERY_HELLO`]), then pipelined request/response over
/// the same CRC frame envelope the ingest sessions use. Requests are
/// idempotent reads, so the convenience entry ([`FleetClient::request`]
/// and the typed helpers on top of it) transparently reconnects with
/// the [`TransportConfig`] backoff schedule and retries once — the
/// same policy [`SocketSink`](super::SocketSink) applies to writes,
/// minus the replay buffer it doesn't need.
///
/// Responses arrive in request order; [`FleetClient::recv`] verifies
/// each echoed request id against the pipeline head and fails closed
/// on any mismatch (a server that reorders or invents responses is
/// indistinguishable from a corrupt one).
#[derive(Debug)]
pub struct FleetClient {
    link: Link,
    next_id: u64,
    /// Request ids sent but not yet answered, oldest first.
    in_flight: VecDeque<u64>,
}

impl FleetClient {
    /// Connect and authenticate with default transport tuning.
    pub fn connect(addr: &str, token: &str) -> io::Result<Self> {
        Self::connect_with(addr, token, TransportConfig::default())
    }

    /// [`FleetClient::connect`] with explicit tuning (timeouts,
    /// reconnect budget, backoff).
    pub fn connect_with(addr: &str, token: &str, cfg: TransportConfig) -> io::Result<Self> {
        let mut client = FleetClient {
            link: Link::new(addr, None, token, cfg),
            next_id: 0,
            in_flight: VecDeque::new(),
        };
        client.link.connect(|_, _, _| Ok(()))?;
        Ok(client)
    }

    /// Re-point the client at a moved server; the next request
    /// reconnects and re-authenticates.
    pub fn redirect(&mut self, addr: &str) {
        self.link.redirect(addr);
    }

    /// Times the client re-dialed after losing its connection.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects
    }

    /// The protocol version the server reported at the last handshake.
    pub fn server_version(&self) -> u16 {
        self.link.answered as u16
    }

    /// Send one request without waiting for its answer (pipelining).
    /// Returns the request id to match against [`FleetClient::recv`].
    pub fn send(&mut self, req: &QueryRequest) -> io::Result<u64> {
        if self.link.conn.is_none() {
            // Any response still owed on the old connection is gone; the
            // retrying caller re-sends its request on the new one.
            self.in_flight.clear();
            self.link.redial(|_, _, _| Ok(()))?;
        }
        let id = self.next_id;
        let mut out = Vec::new();
        put_u64(&mut out, id);
        encode_request(req, &mut out);
        self.link
            .on_conn(|conn| conn.send(frame_tag::QUERY, &out))?;
        self.next_id += 1;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Receive the next pipelined answer. The echoed request id must
    /// match the oldest in-flight request — responses are strictly
    /// ordered — or the connection is dropped as corrupt: a response we
    /// couldn't trust poisons the whole pipeline on it.
    pub fn recv(&mut self) -> io::Result<(u64, QueryResponse)> {
        let expect = *self
            .in_flight
            .front()
            .ok_or_else(|| bad_data("recv with no request in flight"))?;
        let answer = self.link.on_conn(|conn| {
            let mut payload = Vec::new();
            let Ok(tag) = conn.recv_into(&mut payload)? else {
                return Err(bad_data("connection closed awaiting query response"));
            };
            if tag != frame_tag::QUERY_RESP {
                return Err(bad_data("unexpected frame tag awaiting query response"));
            }
            if payload.len() < 8 {
                return Err(bad_data("query response shorter than its request id"));
            }
            let id = request_id_of(&payload);
            if id != expect {
                return Err(bad_data("query response id out of order"));
            }
            Ok((id, decode_response(&payload[8..])?))
        })?;
        self.in_flight.pop_front();
        Ok(answer)
    }

    /// Send one request and wait for its answer. With an empty
    /// pipeline this retries once across a reconnect (queries are
    /// idempotent reads); with requests already in flight it cannot —
    /// their answers would be lost — so the first error surfaces.
    pub fn request(&mut self, req: &QueryRequest) -> io::Result<QueryResponse> {
        let attempts = if self.in_flight.is_empty() { 2 } else { 1 };
        retry(attempts, |_| self.send(req).and_then(|_| self.recv())).map(|(_, resp)| resp)
    }

    /// Typed [`QueryRequest::WindowAgg`]: cluster-wide window aggregate
    /// over a logical axis. Server-side refusals surface as `Err`.
    pub fn window_agg(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> io::Result<ScalarAnswer> {
        let req = QueryRequest::WindowAgg {
            metric: metric.to_string(),
            now,
            window,
            agg,
        };
        answer!(self.request(&req)?, Scalar)
    }

    /// Typed [`QueryRequest::TopNodes`]: per-node ranking.
    pub fn top_nodes(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: u32,
        rank: Rank,
    ) -> io::Result<Vec<TopNodeEntry>> {
        let req = QueryRequest::TopNodes {
            metric: metric.to_string(),
            now,
            window,
            agg,
            k,
            rank,
        };
        answer!(self.request(&req)?, TopNodes)
    }

    /// Typed [`QueryRequest::Health`]: the fleet health rollup.
    pub fn health(&mut self, now: SimTime, stale_after: SimDuration) -> io::Result<FleetHealth> {
        let req = QueryRequest::Health { now, stale_after };
        answer!(self.request(&req)?, Health)
    }

    /// Typed [`QueryRequest::CoveredWindowAgg`]: coverage-annotated
    /// window aggregate.
    pub fn covered_window_agg(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        stale_after: SimDuration,
    ) -> io::Result<CoveredValue> {
        let req = QueryRequest::CoveredWindowAgg {
            metric: metric.to_string(),
            now,
            window,
            agg,
            stale_after,
        };
        answer!(self.request(&req)?, Covered)
    }

    /// Typed [`QueryRequest::CoveredTopNodes`]: coverage-annotated
    /// ranking.
    #[allow(clippy::too_many_arguments)]
    pub fn covered_top_nodes(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: u32,
        rank: Rank,
        stale_after: SimDuration,
    ) -> io::Result<CoveredTopNodesAnswer> {
        let req = QueryRequest::CoveredTopNodes {
            metric: metric.to_string(),
            now,
            window,
            agg,
            k,
            rank,
            stale_after,
        };
        answer!(self.request(&req)?, CoveredTopNodes)
    }

    /// Typed [`QueryRequest::Metrics`]: the sorted logical-axes
    /// listing.
    pub fn metrics(&mut self) -> io::Result<MetricsAnswer> {
        answer!(self.request(&QueryRequest::Metrics)?, Metrics)
    }

    /// Typed [`QueryRequest::SelfStat`]: the service's slowest internal
    /// spans, slowest first. `drain` also clears the server-side log.
    pub fn selfstat(&mut self, k: u32, drain: bool) -> io::Result<SelfStatAnswer> {
        let req = QueryRequest::SelfStat { k, drain };
        answer!(self.request(&req)?, SelfStat)
    }
}
