//! Pipeline stage 2 — cell routing and leaky-pipe recognition.
//!
//! [`TorNetwork::on_cell`] classifies an arriving cell by command:
//! control-plane cells (CREATE/CREATED/DESTROY) go straight to the
//! [`circuit_build`](super::circuit_build) stage, padding is confirmed
//! and dropped, and relay cells enter [`TorNetwork::handle_relay`] — the
//! recognition stage proper.
//!
//! Recognition is leaky-pipe, as in Tor: a relay strips its onion layer
//! from every forward relay cell, checking the digest in the same pass
//! over the payload (`RelayCrypt::strip_forward`); if it verifies, the cell
//! is *for this hop* and is consumed by the endpoint stage
//! ([`client_xfer`](super::client_xfer) at server/client,
//! [`circuit_build`](super::circuit_build) for EXTEND at a relay).
//! Otherwise the cell is re-queued toward the next hop and the egress
//! pump takes over. Backward cells are symmetric: relays *add* their
//! layer; only the client unwraps the full stack.

use simcore::sim::Context;

use torcell::cell::{Cell, CellBody, RelayCell};
use torcell::ids::CircuitId;

use crate::event::TorEvent;
use crate::ids::{Direction, OverlayId};
use crate::node::{PendingConfirm, QueuedCell};

use super::TorNetwork;

impl TorNetwork {
    /// Dispatches one arriving cell into the pipeline.
    pub(super) fn on_cell(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        cell: Cell,
        hop_seq: u64,
    ) {
        match cell.body {
            CellBody::Create { handshake } => {
                self.handle_create(ctx, to, from, cell.circ, handshake, hop_seq)
            }
            CellBody::Created { handshake } => {
                self.handle_created(ctx, to, from, cell.circ, handshake, hop_seq)
            }
            CellBody::Destroy { reason } => {
                self.handle_destroy(ctx, to, from, cell.circ, reason, hop_seq)
            }
            CellBody::Padding => {
                // Padding is consumed silently but still confirmed so the
                // sender's window does not leak.
                let my_net = self.net_node_of[to.index()];
                Self::send_feedback(
                    &mut self.net,
                    &mut self.link_sched,
                    &self.router,
                    &self.net_node_of,
                    &mut self.stats,
                    ctx,
                    my_net,
                    PendingConfirm {
                        neighbor: from,
                        circ_id: cell.circ,
                        seq: hop_seq,
                    },
                );
            }
            CellBody::Relay(rc) => self.handle_relay(ctx, to, from, cell.circ, rc, hop_seq),
        }
    }

    /// A relay cell arrived from a neighbour: resolve its circuit, apply
    /// leaky-pipe recognition, and either consume or forward.
    pub(super) fn handle_relay(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        mut rc: RelayCell,
        hop_seq: u64,
    ) {
        let Some((global, local, flow)) = self.route_of(to, from, link_id) else {
            Self::stale_or_protocol_error(
                &self.faults,
                &mut self.stats,
                "relay cell on unknown route",
            );
            self.payload_pool.reclaim(rc.data);
            return;
        };
        let node = &mut self.nodes[to.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let confirm = PendingConfirm {
            neighbor: from,
            circ_id: link_id,
            seq: hop_seq,
        };

        if nc.closed {
            // Torn-down circuit: confirm (so the sender's window drains),
            // return the payload buffer to the pool, and drop.
            self.stats.cells_dropped_closed += 1;
            Self::send_feedback(
                &mut self.net,
                &mut self.link_sched,
                &self.router,
                &self.net_node_of,
                &mut self.stats,
                ctx,
                my_net,
                confirm,
            );
            self.payload_pool.reclaim(rc.data);
            return;
        }

        match flow {
            Direction::Forward => {
                if nc.client.is_some() {
                    Self::protocol_error(&mut self.stats, "forward relay cell at client");
                    return;
                }
                let recognized = nc
                    .crypt
                    .as_mut()
                    .expect("non-client has crypt state")
                    .strip_forward(&mut rc);
                if recognized {
                    Self::send_feedback(
                        &mut self.net,
                        &mut self.link_sched,
                        &self.router,
                        &self.net_node_of,
                        &mut self.stats,
                        ctx,
                        my_net,
                        confirm,
                    );
                    let nc = self.nodes[to.index()].circuit_at(local);
                    if nc.server.is_some() {
                        self.server_consume(ctx, to, global, local, rc);
                    } else {
                        self.relay_consume(ctx, to, global, local, rc);
                    }
                } else {
                    if nc.server.is_some() {
                        Self::protocol_error(&mut self.stats, "unrecognized relay cell at server");
                        return;
                    }
                    let Some(fwd) = nc.fwd.as_mut() else {
                        Self::protocol_error(&mut self.stats, "forwarding past the built circuit");
                        return;
                    };
                    fwd.enqueue(QueuedCell {
                        cell: Cell {
                            circ: CircuitId::CONTROL,
                            body: CellBody::Relay(rc),
                        },
                        confirm: Some(confirm),
                        wrap_for_hop: None,
                    });
                    Self::pump_dir(
                        &mut self.net,
                        &mut self.link_sched,
                        &self.router,
                        &self.net_node_of,
                        &mut self.stats,
                        &mut self.payload_pool,
                        ctx,
                        my_net,
                        nc,
                        Direction::Forward,
                    );
                }
            }
            Direction::Backward => {
                if nc.client.is_some() {
                    Self::send_feedback(
                        &mut self.net,
                        &mut self.link_sched,
                        &self.router,
                        &self.net_node_of,
                        &mut self.stats,
                        ctx,
                        my_net,
                        confirm,
                    );
                    let node = &mut self.nodes[to.index()];
                    let nc = node.circuit_at_mut(local);
                    let app = nc.client.as_mut().expect("client app");
                    match app.route.unwrap_inbound(&mut rc) {
                        Some(origin) => {
                            self.client_consume_backward(ctx, to, global, local, origin, rc)
                        }
                        None => {
                            Self::protocol_error(
                                &mut self.stats,
                                "backward cell not recognized by any layer",
                            );
                        }
                    }
                } else {
                    nc.crypt
                        .as_mut()
                        .expect("relay has crypt state")
                        .add_backward(&mut rc);
                    let Some(bwd) = nc.bwd.as_mut() else {
                        Self::protocol_error(&mut self.stats, "backward cell with no client side");
                        return;
                    };
                    bwd.enqueue(QueuedCell {
                        cell: Cell {
                            circ: CircuitId::CONTROL,
                            body: CellBody::Relay(rc),
                        },
                        confirm: Some(confirm),
                        wrap_for_hop: None,
                    });
                    Self::pump_dir(
                        &mut self.net,
                        &mut self.link_sched,
                        &self.router,
                        &self.net_node_of,
                        &mut self.stats,
                        &mut self.payload_pool,
                        ctx,
                        my_net,
                        nc,
                        Direction::Backward,
                    );
                }
            }
        }
    }
}
