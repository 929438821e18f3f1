//! Pipeline stage — the circuit control plane.
//!
//! Tor's telescoping build, executed hop by hop: the client CREATEs the
//! first relay, then sends EXTEND relay cells that the current last relay
//! converts into CREATEs toward the next node (answered with CREATED /
//! EXTENDED). Link-local circuit ids are negotiated per connection; onion
//! layers are derived from the CREATE handshakes.
//!
//! Teardown also lives here, as a **two-wave DESTROY protocol** (DESIGN.md
//! §8): the client's DESTROY travels forward through the per-circuit FIFO
//! queues — so it arrives *behind* every previously sent forward cell —
//! and the end of the built path reflects it as a backward echo. A node
//! that has seen both waves, has every sent cell confirmed, and has empty
//! queues can prove no further frame will ever arrive for the circuit: at
//! that moment its slab slot and route ends are reclaimed for reuse.
//! The client-side reclamation additionally drives the churn engine — if
//! the torn-down circuit's flows still owe bytes, a rebuild is scheduled
//! that re-attaches them to a fresh circuit over the same path.

use simcore::sim::Context;
use simcore::time::SimDuration;

use torcell::cell::{Cell, CellBody, RelayCell, RelayCommand, HANDSHAKE_LEN};
use torcell::crypto::{payload_digest, LayerKey, RelayCrypt};
use torcell::ids::{CircuitId, StreamId};

use netsim::net::{Net, NodeId};

use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{
    ClientApp, ClientStage, HopCtx, HopDir, NodeCircuit, NodeRole, PendingConfirm, QueuedCell,
    ServerApp,
};
use crate::pool::PayloadPool;
use crate::router::Router;
use crate::scheduler::LinkScheduler;
use crate::workload::{CircuitWorkload, StreamSpec};

use backtap::hop::HopTransport;

use super::{FaultState, TorNetwork, WorldStats, DESTROY_REASON_FINISHED, DESTROY_REASON_REFUSED};

impl TorNetwork {
    /// Handshake blob: global circuit id (instrumentation channel for the
    /// responder's registry — documented in DESIGN.md §4) plus fresh
    /// random key material.
    pub(super) fn make_handshake(&mut self, circ: CircId) -> [u8; HANDSHAKE_LEN] {
        let mut hs = [0u8; HANDSHAKE_LEN];
        hs[0..4].copy_from_slice(&circ.0.to_be_bytes());
        self.rng.fill_bytes(&mut hs[4..]);
        hs
    }

    /// Launches a circuit (from a [`TorEvent::StartCircuit`]): the client
    /// CREATEs its first hop and the telescope begins. Stream arrivals
    /// and the workload's teardown point are scheduled here.
    pub(super) fn start_circuit(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        let info = &mut self.circuits[circ.index()];
        assert!(info.started_at.is_none(), "circuit started twice");
        info.started_at = Some(ctx.now());
        let path = info.path.clone();
        let streams = info.workload.streams.clone();
        let teardown_after = info.workload.teardown_after.first().copied();
        let client_id = path[0];
        let first_hop = path[1];
        let link_id = self.alloc_link_circ_id();
        let hs = self.make_handshake(circ);

        // Flow bookkeeping and the workload's timers.
        for (i, spec) in streams.iter().enumerate() {
            let flow = &mut self.flows[spec.flow.index()];
            flow.carried_by += 1;
            if flow.arrival_at.is_none() {
                flow.arrival_at = Some(ctx.now() + spec.offset);
            }
            if !spec.offset.is_zero() {
                ctx.schedule_in(
                    spec.offset,
                    TorEvent::StreamArrival {
                        circ,
                        stream: u32::try_from(i).expect("stream index fits u32"),
                    },
                );
            }
        }
        if let Some(delay) = teardown_after {
            ctx.schedule_in(delay, TorEvent::Teardown(circ));
        }

        let hop_ctx = HopCtx {
            circuit: circ,
            position: 0,
            direction: Direction::Forward,
        };
        let mut transport = HopTransport::new((self.factory)(&hop_ctx));
        if self.cfg.trace_client_cwnd {
            transport.enable_cwnd_trace(ctx.now());
            transport.enable_rtt_trace();
        }

        let node = &mut self.nodes[client_id.index()];
        debug_assert_eq!(
            node.role,
            NodeRole::Client,
            "circuit must start at a client"
        );
        let mut nc = NodeCircuit::new(circ, 0);
        nc.client = Some(ClientApp::new(path, &streams, ctx.now()));
        let mut hopdir = HopDir::new(first_hop, link_id, transport);
        hopdir.enqueue(QueuedCell {
            cell: Cell::create(CircuitId::CONTROL, hs),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.fwd = Some(hopdir);
        let my_net = node.net_node;
        let local = node.add_circuit(nc);
        self.register_route(
            link_id,
            client_id,
            first_hop,
            circ,
            local,
            Direction::Backward,
        );
        let nc = self.nodes[client_id.index()].circuit_at_mut(local);
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
        // With faults installed every incarnation arms a build timer —
        // the client's only way to learn about a crash is silence.
        if let Some(f) = self.faults.as_ref() {
            let incarnation = self.circuits[circ.index()].incarnation;
            ctx.schedule_in(
                f.spec.build_timeout(),
                TorEvent::CircTimeout {
                    circ,
                    incarnation,
                    progress: 0,
                    kind: crate::event::TimerKind::Build,
                },
            );
        }
    }

    /// A staggered stream's arrival offset elapsed (from a
    /// [`TorEvent::StreamArrival`]): issue its BEGIN if the circuit is
    /// up. If the circuit is still building, the BEGIN is flushed when
    /// the build completes; if it was torn down, the flow re-arrives on
    /// the rebuilt incarnation.
    pub(super) fn stream_arrival(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        circ: CircId,
        stream: u32,
    ) {
        let client_id = self.circuits[circ.index()].path[0];
        let node = &mut self.nodes[client_id.index()];
        let my_net = node.net_node;
        let Some(local) = node.local_idx(circ) else {
            return; // torn down mid-stagger; the rebuild re-attaches the flow
        };
        let nc = node.circuit_at_mut(local);
        if nc.closed {
            return;
        }
        let app = nc.client.as_mut().expect("client app exists");
        let Some(s) = app.streams.get_mut(stream as usize) else {
            Self::protocol_error(&mut self.stats, "arrival for unknown stream");
            return;
        };
        s.arrived = true;
        if app.stage != ClientStage::Established || s.begin_sent {
            return;
        }
        s.begin_sent = true;
        let qc = Self::begin_cell(s.id, app.server_hop());
        nc.fwd.as_mut().expect("client forward hop").enqueue(qc);
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

    /// CREATE: become part of the circuit; answer CREATED.
    pub(super) fn handle_create(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        handshake: [u8; HANDSHAKE_LEN],
        hop_seq: u64,
    ) {
        let global = CircId(u32::from_be_bytes(
            handshake[0..4].try_into().expect("4 bytes"),
        ));
        let Some(info) = self.circuits.get(global.index()) else {
            Self::protocol_error(&mut self.stats, "CREATE for unregistered circuit");
            return;
        };
        let Some(position) = info.path.iter().position(|&n| n == to) else {
            Self::protocol_error(&mut self.stats, "CREATE at node not on the path");
            return;
        };
        let is_server = position == info.path.len() - 1;
        let expected_streams = info.workload.streams.len();
        // Under faults a CREATE can still be on the wire when its
        // incarnation dies (crash reap, force-abandon): minting a
        // participation now would orphan a zombie slot and collide on
        // a recycled link id. Confirm the consumed frame so a
        // still-draining predecessor stays exact, and refuse.
        if self.faults.is_some() {
            let client = &self.nodes[info.path[0].index()];
            let dead = match client.local_idx(global) {
                None => true,
                Some(l) => client.circuit_at(l).closed,
            };
            if dead {
                Self::stale_or_protocol_error(
                    &self.faults,
                    &mut self.stats,
                    "CREATE for dead incarnation",
                );
                let my_net = self.nodes[to.index()].net_node;
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
                        circ_id: link_id,
                        seq: hop_seq,
                    },
                );
                return;
            }
        }

        let hop_ctx = HopCtx {
            circuit: global,
            position,
            direction: Direction::Backward,
        };
        let transport = HopTransport::new((self.factory)(&hop_ctx));

        let node = &mut self.nodes[to.index()];
        let my_net = node.net_node;
        let mut nc = NodeCircuit::new(global, position);
        nc.pred = Some(from);
        nc.pred_circ_id = Some(link_id);
        nc.crypt = Some(RelayCrypt::new(LayerKey::from_handshake(&handshake)));
        if is_server {
            nc.server = Some(ServerApp::new(expected_streams));
        }
        let mut bwd = HopDir::new(from, link_id, transport);
        bwd.enqueue(QueuedCell {
            cell: Cell::created(CircuitId::CONTROL, handshake),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.bwd = Some(bwd);
        let local = node.add_circuit(nc);
        self.register_route(link_id, to, from, global, local, Direction::Forward);

        // Confirm the consumed CREATE, then answer.
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
                circ_id: link_id,
                seq: hop_seq,
            },
        );
        let nc = self.nodes[to.index()].circuit_at_mut(local);
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

    /// CREATED: the hop we asked for exists. At the client this advances
    /// the build; at a relay it answers a pending EXTEND with EXTENDED.
    pub(super) fn handle_created(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        handshake: [u8; HANDSHAKE_LEN],
        hop_seq: u64,
    ) {
        let Some((global, local, _)) = self.route_of(to, from, link_id) else {
            // Under faults a CREATED can race a crash-reap that already
            // cleared this route end.
            Self::stale_or_protocol_error(
                &self.faults,
                &mut self.stats,
                "CREATED on unknown route",
            );
            return;
        };
        let my_net = self.nodes[to.index()].net_node;
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
                circ_id: link_id,
                seq: hop_seq,
            },
        );
        let node = &mut self.nodes[to.index()];
        let nc = node.circuit_at_mut(local);
        if nc.closed {
            // Teardown raced the build; the handshake answer dies here
            // (it was confirmed above so the successor's window drains).
            return;
        }
        if nc.client.is_some() {
            self.client_advance_build(ctx, to, global, local, handshake);
        } else {
            // A relay completed an EXTEND: report EXTENDED to the client.
            let Some(echo) = nc.pending_extend.take() else {
                Self::protocol_error(&mut self.stats, "CREATED without pending EXTEND");
                return;
            };
            debug_assert_eq!(echo, handshake, "CREATED must echo the extend handshake");
            let mut rc = RelayCell {
                cmd: RelayCommand::Extended,
                stream: StreamId::CIRCUIT,
                digest: payload_digest(&echo),
                data: echo.to_vec(),
            };
            nc.crypt
                .as_mut()
                .expect("relay has crypt state")
                .add_backward(&mut rc);
            let Some(bwd) = nc.bwd.as_mut() else {
                Self::protocol_error(&mut self.stats, "relay without backward hop");
                return;
            };
            bwd.enqueue(QueuedCell {
                cell: Cell {
                    circ: CircuitId::CONTROL,
                    body: CellBody::Relay(rc),
                },
                confirm: None,
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

    /// The client gained a key for one more hop: extend further, or open
    /// the arrived streams if the circuit is complete.
    pub(super) fn client_advance_build(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        client: OverlayId,
        circ: CircId,
        local: u32,
        handshake: [u8; HANDSHAKE_LEN],
    ) {
        // Pre-generate randomness before borrowing node state.
        let next_handshake = self.make_handshake(circ);
        let node = &mut self.nodes[client.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let app = nc.client.as_mut().expect("client app exists");
        app.route.push_layer(LayerKey::from_handshake(&handshake));
        let built = app.route.len();
        let needed = app.path.len() - 1;
        let mut qcs = Vec::new();
        if built < needed {
            let target = app.path[built + 1];
            app.stage = ClientStage::Building { next: built + 1 };
            let mut data = Vec::with_capacity(4 + HANDSHAKE_LEN);
            data.extend_from_slice(&target.0.to_be_bytes());
            data.extend_from_slice(&next_handshake);
            let rc = RelayCell::unsealed(RelayCommand::Extend, StreamId::CIRCUIT, data);
            qcs.push(QueuedCell {
                cell: Cell {
                    circ: CircuitId::CONTROL,
                    body: CellBody::Relay(rc),
                },
                confirm: None,
                wrap_for_hop: Some(built - 1),
            });
        } else {
            // Circuit complete: open every stream that has already
            // arrived. Later arrivals BEGIN from their own events.
            app.stage = ClientStage::Established;
            let server_hop = app.server_hop();
            for s in app.streams.iter_mut().filter(|s| s.arrived) {
                debug_assert!(!s.begin_sent, "BEGIN before the circuit was built");
                s.begin_sent = true;
                qcs.push(Self::begin_cell(s.id, server_hop));
            }
        }
        let fwd = nc.fwd.as_mut().expect("client forward hop");
        for qc in qcs {
            fwd.enqueue(qc);
        }
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

    /// A relay recognized a forward cell: only EXTEND is valid here —
    /// convert it into a CREATE toward the next node.
    pub(super) fn relay_consume(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        relay: OverlayId,
        circ: CircId,
        local: u32,
        rc: RelayCell,
    ) {
        if rc.cmd != RelayCommand::Extend {
            Self::protocol_error(&mut self.stats, "relay consumed a non-EXTEND cell");
            return;
        }
        if rc.data.len() != 4 + HANDSHAKE_LEN {
            Self::protocol_error(&mut self.stats, "malformed EXTEND payload");
            return;
        }
        let target = OverlayId(u32::from_be_bytes(
            rc.data[0..4].try_into().expect("4 bytes"),
        ));
        if target.index() >= self.nodes.len() {
            Self::protocol_error(&mut self.stats, "EXTEND to unknown node");
            return;
        }
        let mut hs = [0u8; HANDSHAKE_LEN];
        hs.copy_from_slice(&rc.data[4..]);
        let new_id = self.alloc_link_circ_id();

        let node = &mut self.nodes[relay.index()];
        let my_net = node.net_node;
        let position = node.circuit_at(local).position;
        self.register_route(new_id, relay, target, circ, local, Direction::Backward);
        let hop_ctx = HopCtx {
            circuit: circ,
            position,
            direction: Direction::Forward,
        };
        let transport = HopTransport::new((self.factory)(&hop_ctx));
        let nc = self.nodes[relay.index()].circuit_at_mut(local);
        nc.pending_extend = Some(hs);
        let mut fwd = HopDir::new(target, new_id, transport);
        fwd.enqueue(QueuedCell {
            cell: Cell::create(CircuitId::CONTROL, hs),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.fwd = Some(fwd);
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

    /// Discards everything queued on one hop direction of a closing
    /// circuit: owed feedback is still paid (upstream windows must
    /// drain) and DATA payload buffers return to the pool. A silently
    /// reaped participation (a crashed relay, or an orphan stranded
    /// beyond one) passes `pay_confirms = false` — a dead node must not
    /// signal anyone.
    #[expect(
        clippy::too_many_arguments,
        reason = "disjoint TorNetwork fields are borrowed one by one so they can be mutated beside a borrowed circuit"
    )]
    pub(super) fn drain_hopdir(
        net: &mut Net<crate::wire::WireFrame>,
        link_sched: &mut [LinkScheduler],
        router: &Router,
        net_node_of: &[NodeId],
        stats: &mut WorldStats,
        pool: &mut PayloadPool,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        hopdir: &mut HopDir,
        pay_confirms: bool,
    ) {
        while let Some(qc) = hopdir.queue.pop_front() {
            stats.cells_drained += 1;
            if let Some(cf) = qc.confirm {
                if pay_confirms {
                    Self::send_feedback(
                        net,
                        link_sched,
                        router,
                        net_node_of,
                        stats,
                        ctx,
                        my_net,
                        cf,
                    );
                }
            }
            if let CellBody::Relay(rc) = qc.cell.body {
                pool.reclaim(rc.data);
            }
        }
    }

    /// Discards every cell of the closing circuit already handed to its
    /// egress scheduler(s). Those cells left the hop queues and were
    /// registered on a transport, but have not begun serializing — left
    /// alone they would burn link time only to be dropped at the
    /// receiver. Each drained cell pays its owed confirm, returns its
    /// payload to the pool, and is retired from the transport that
    /// registered it ([`HopTransport::forget`]) so the teardown
    /// quiescence proof is not waiting on feedback that can never come.
    ///
    /// Both hop directions may share one egress link (a star leaf's
    /// uplink), so the drain runs once per distinct link and dispatches
    /// each frame to its transport by destination.
    #[expect(
        clippy::too_many_arguments,
        reason = "disjoint TorNetwork fields are borrowed one by one so they can be mutated beside a borrowed circuit"
    )]
    pub(super) fn drain_scheduled(
        net: &mut Net<crate::wire::WireFrame>,
        link_sched: &mut [LinkScheduler],
        router: &Router,
        net_node_of: &[NodeId],
        stats: &mut WorldStats,
        pool: &mut PayloadPool,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        pay_confirms: bool,
    ) {
        let circ = nc.circ;
        let link_of = |h: &HopDir| router.next_link(my_net, net_node_of[h.neighbor.index()]);
        let fwd_link = nc.fwd.as_ref().map(link_of);
        let bwd_link = nc.bwd.as_ref().map(link_of);
        let links = [fwd_link, bwd_link.filter(|b| Some(*b) != fwd_link)];
        for link in links.into_iter().flatten() {
            for frame in link_sched[link.index()].drain_circuit(circ) {
                stats.cells_drained += 1;
                let crate::wire::FramePayload::Cell { cell, hop_seq } = frame.payload else {
                    debug_assert!(false, "feedback frames are never queued per circuit");
                    continue;
                };
                let hopdir = nc
                    .fwd
                    .as_mut()
                    .filter(|h| net_node_of[h.neighbor.index()] == frame.dst)
                    .or_else(|| {
                        nc.bwd
                            .as_mut()
                            .filter(|h| net_node_of[h.neighbor.index()] == frame.dst)
                    });
                match hopdir {
                    Some(h) => {
                        let forgotten = h.transport.forget(hop_seq);
                        debug_assert!(forgotten, "drained cell was not outstanding");
                    }
                    None => debug_assert!(false, "drained cell matches no hop direction"),
                }
                if let CellBody::Relay(rc) = cell.body {
                    pool.reclaim(rc.data);
                }
                if let Some(cf) = frame.confirm {
                    if pay_confirms {
                        Self::send_feedback(
                            net,
                            link_sched,
                            router,
                            net_node_of,
                            stats,
                            ctx,
                            my_net,
                            cf,
                        );
                    }
                }
            }
        }
    }

    /// Marks a participation closed: queues drain (paying confirms,
    /// reclaiming payloads) — both the hop queues and the cells this
    /// circuit already handed to its egress link scheduler(s) — and the
    /// client stops generating cells.
    #[expect(
        clippy::too_many_arguments,
        reason = "disjoint TorNetwork fields are borrowed one by one so they can be mutated beside a borrowed circuit"
    )]
    pub(super) fn close_participation(
        net: &mut Net<crate::wire::WireFrame>,
        link_sched: &mut [LinkScheduler],
        router: &Router,
        net_node_of: &[NodeId],
        stats: &mut WorldStats,
        pool: &mut PayloadPool,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
    ) {
        debug_assert!(!nc.closed, "closing twice");
        nc.closed = true;
        if let Some(app) = nc.client.as_mut() {
            app.stage = ClientStage::Closed;
        }
        Self::drain_scheduled(
            net,
            link_sched,
            router,
            net_node_of,
            stats,
            pool,
            ctx,
            my_net,
            nc,
            true,
        );
        if let Some(h) = nc.fwd.as_mut() {
            Self::drain_hopdir(
                net,
                link_sched,
                router,
                net_node_of,
                stats,
                pool,
                ctx,
                my_net,
                h,
                true,
            );
        }
        if let Some(h) = nc.bwd.as_mut() {
            Self::drain_hopdir(
                net,
                link_sched,
                router,
                net_node_of,
                stats,
                pool,
                ctx,
                my_net,
                h,
                true,
            );
        }
    }

    /// Enqueues a DESTROY on `dir`'s hop and pumps it, returning whether
    /// a neighbour was actually notified. A hop whose transport never
    /// sent anything (a drained, never-sent CREATE) has no peer to
    /// notify — the wave reflects instead. A hop whose neighbour has
    /// **crashed** likewise reflects: the DESTROY could never be
    /// confirmed and no echo can come back, so everything outstanding
    /// toward the dead neighbour is written off
    /// ([`HopTransport::forget_all`]) and the wave turns around here.
    #[expect(
        clippy::too_many_arguments,
        reason = "disjoint TorNetwork fields are borrowed one by one so they can be mutated beside a borrowed circuit"
    )]
    pub(super) fn propagate_destroy(
        net: &mut Net<crate::wire::WireFrame>,
        link_sched: &mut [LinkScheduler],
        router: &Router,
        net_node_of: &[NodeId],
        stats: &mut WorldStats,
        pool: &mut PayloadPool,
        faults: &Option<FaultState>,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        dir: Direction,
        reason: u8,
    ) -> bool {
        let hopdir = match dir {
            Direction::Forward => nc.fwd.as_mut(),
            Direction::Backward => nc.bwd.as_mut(),
        };
        let Some(hd) = hopdir else {
            return false;
        };
        if faults
            .as_ref()
            .is_some_and(|f| f.is_crashed(hd.neighbor.index()))
        {
            hd.transport.forget_all();
            return false;
        }
        if hd.transport.next_seq() == 0 && hd.queue.is_empty() {
            // Never contacted that neighbour (its CREATE/CREATED was
            // drained unsent): nothing to tear down there.
            return false;
        }
        hd.enqueue(QueuedCell {
            cell: Cell::destroy(CircuitId::CONTROL, reason),
            confirm: None,
            wrap_for_hop: None,
        });
        stats.destroys_sent += 1;
        Self::pump_dir(
            net,
            link_sched,
            router,
            net_node_of,
            stats,
            pool,
            ctx,
            my_net,
            nc,
            dir,
        );
        true
    }

    /// DESTROY: close the circuit and process the teardown wave. A
    /// forward-travelling DESTROY continues toward the server (or
    /// reflects at the end of the built path); the backward echo
    /// continues toward the client.
    pub(super) fn handle_destroy(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        reason: u8,
        hop_seq: u64,
    ) {
        let Some((_global, local, wave)) = self.route_of(to, from, link_id) else {
            // Under faults a DESTROY can land on a void: a crash-reap or
            // force-abandon cleared this route end, or the participation
            // was never minted (its CREATE was stale-dropped by the
            // dead-incarnation gate while the teardown wave chased the
            // build wave down the telescope). The sender's confirm is
            // still owed, and — as a real relay refusing a circuit would
            // — the void answers with a REFUSED DESTROY so the wave can
            // turn around instead of dying here; a REFUSED echo is never
            // itself answered, so two voids cannot volley forever.
            Self::stale_or_protocol_error(
                &self.faults,
                &mut self.stats,
                "DESTROY on unknown route",
            );
            if self.faults.is_some() {
                let my_net = self.nodes[to.index()].net_node;
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
                        circ_id: link_id,
                        seq: hop_seq,
                    },
                );
                if reason != DESTROY_REASON_REFUSED {
                    let dst = self.net_node_of[from.index()];
                    let frame = crate::wire::WireFrame {
                        src: my_net,
                        dst,
                        payload: crate::wire::FramePayload::Cell {
                            cell: Cell::destroy(link_id, DESTROY_REASON_REFUSED),
                            // The void has no hop transport; the peer's
                            // confirm for this seq dead-ends as a counted
                            // stale feedback frame.
                            hop_seq: 0,
                        },
                        confirm: None,
                    };
                    Self::sched_send(
                        &mut self.net,
                        &mut self.link_sched,
                        ctx,
                        self.router.next_link(my_net, dst),
                        frame,
                        None,
                    );
                    self.stats.destroys_sent += 1;
                }
            }
            return;
        };
        let my_net = self.nodes[to.index()].net_node;
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
                circ_id: link_id,
                seq: hop_seq,
            },
        );
        let node = &mut self.nodes[to.index()];
        let nc = node.circuit_at_mut(local);
        if !nc.closed {
            Self::close_participation(
                &mut self.net,
                &mut self.link_sched,
                &self.router,
                &self.net_node_of,
                &mut self.stats,
                &mut self.payload_pool,
                ctx,
                my_net,
                nc,
            );
        }
        match wave {
            Direction::Forward => {
                debug_assert!(!nc.destroy_fwd, "duplicate forward DESTROY wave");
                nc.destroy_fwd = true;
                let propagated = Self::propagate_destroy(
                    &mut self.net,
                    &mut self.link_sched,
                    &self.router,
                    &self.net_node_of,
                    &mut self.stats,
                    &mut self.payload_pool,
                    &self.faults,
                    ctx,
                    my_net,
                    nc,
                    Direction::Forward,
                    reason,
                );
                if !propagated {
                    // End of the built path: reflect the echo.
                    nc.destroy_bwd = true;
                    Self::propagate_destroy(
                        &mut self.net,
                        &mut self.link_sched,
                        &self.router,
                        &self.net_node_of,
                        &mut self.stats,
                        &mut self.payload_pool,
                        &self.faults,
                        ctx,
                        my_net,
                        nc,
                        Direction::Backward,
                        reason,
                    );
                }
            }
            Direction::Backward => {
                debug_assert!(!nc.destroy_bwd, "duplicate backward DESTROY wave");
                nc.destroy_bwd = true;
                let propagated = Self::propagate_destroy(
                    &mut self.net,
                    &mut self.link_sched,
                    &self.router,
                    &self.net_node_of,
                    &mut self.stats,
                    &mut self.payload_pool,
                    &self.faults,
                    ctx,
                    my_net,
                    nc,
                    Direction::Backward,
                    reason,
                );
                if !propagated {
                    // The client: the echo completed the round trip.
                    nc.destroy_fwd = true;
                }
            }
        }
        self.maybe_reclaim(ctx, to, local);
    }

    /// Client-initiated teardown (from a [`TorEvent::Teardown`]).
    pub(super) fn teardown(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        self.teardown_with_reason(ctx, circ, DESTROY_REASON_FINISHED);
    }

    /// [`TorNetwork::teardown`] carrying an explicit DESTROY reason code
    /// (the recovery loop sends [`super::DESTROY_REASON_TIMEOUT`]).
    pub(super) fn teardown_with_reason(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        circ: CircId,
        reason: u8,
    ) {
        let client_id = self.circuits[circ.index()].path[0];
        let Some(local) = self.nodes[client_id.index()].local_idx(circ) else {
            return;
        };
        if self.nodes[client_id.index()].circuit_at(local).closed {
            return;
        }
        // Participations stranded beyond a crashed hop can never hear
        // the DESTROY wave (the crash gate swallows every frame at the
        // dead relay's door): reap them silently now, standing in for
        // the idle timers real relays would run. The wave itself
        // reflects at the last live hop via `propagate_destroy`.
        if self.faults.is_some() {
            let path = self.circuits[circ.index()].path.clone();
            if let Some(k) = path.iter().position(|&n| self.is_crashed(n)) {
                for &n in &path[k + 1..] {
                    self.reap_participation(ctx, n, circ);
                }
            }
        }
        let node = &mut self.nodes[client_id.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        Self::close_participation(
            &mut self.net,
            &mut self.link_sched,
            &self.router,
            &self.net_node_of,
            &mut self.stats,
            &mut self.payload_pool,
            ctx,
            my_net,
            nc,
        );
        nc.destroy_fwd = true;
        let propagated = Self::propagate_destroy(
            &mut self.net,
            &mut self.link_sched,
            &self.router,
            &self.net_node_of,
            &mut self.stats,
            &mut self.payload_pool,
            &self.faults,
            ctx,
            my_net,
            nc,
            Direction::Forward,
            reason,
        );
        if !propagated {
            // No neighbour was ever contacted (or the first hop is
            // dead); the teardown is already complete.
            nc.destroy_bwd = true;
        }
        self.maybe_reclaim(ctx, client_id, local);
    }

    /// Reclaims a participation's slots once teardown quiescence is
    /// proven (see [`NodeCircuit::reclaimable`]): the slab slot returns
    /// to the node's free list and this node's route ends are cleared
    /// (freeing the link-local id once both ends are gone). At the
    /// client this also drives the churn engine: unfinished flows
    /// schedule a rebuild.
    pub(super) fn maybe_reclaim(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        node_id: OverlayId,
        local: u32,
    ) {
        let node = &mut self.nodes[node_id.index()];
        let nc = node.circuit_at(local);
        if nc.is_vacant() || !nc.reclaimable() {
            return;
        }
        let circ = nc.circ;
        let is_client = nc.client.is_some();
        let link_ids = [
            nc.fwd.as_ref().map(|h| h.link_circ_id),
            nc.bwd.as_ref().map(|h| h.link_circ_id),
        ];
        node.remove_circuit(local);
        for id in link_ids.into_iter().flatten() {
            self.clear_route_end(id, node_id);
        }
        self.stats.slots_reclaimed += 1;
        if is_client {
            // The client proving teardown quiescence retires the whole
            // incarnation from the live placement view — exactly once
            // per incarnation, so churn feeds back into later
            // selections (congestion-aware policies see relays free up).
            self.unaccount_placement(circ);
            let info = &self.circuits[circ.index()];
            let unfinished = info
                .workload
                .streams
                .iter()
                .any(|s| !self.flows[s.flow.index()].complete());
            if unfinished {
                ctx.schedule_in(info.workload.rebuild_delay, TorEvent::Rebuild(circ));
            }
        }
    }

    /// Re-attaches a torn-down circuit's unfinished flows to a fresh
    /// circuit (from a [`TorEvent::Rebuild`]). With a placement seam
    /// installed the relays are **re-selected** through the
    /// [`crate::selection::PathSelection`] policy under the current load
    /// view — churn feeds back into placement, as real clients re-route
    /// around congested relays; without one (explicit-path worlds) the
    /// original path is reused. Each flow resumes at its remaining byte
    /// count; flows whose arrival offset has not yet elapsed keep their
    /// original arrival time.
    pub(super) fn rebuild_circuit(&mut self, ctx: &mut Context<'_, TorEvent>, old: CircId) {
        let now = ctx.now();
        let old_info = &self.circuits[old.index()];
        let old_path = old_info.path.clone();
        let incarnation = old_info.incarnation + 1;
        let old_retries = old_info.retries;
        // Graceful degradation: a lineage that exhausted its retry cap,
        // or a world whose selectable relay set fell below the interior
        // path length, parks its unfinished flows instead of rebuilding
        // (and instead of panicking inside `select_relays`). Parked
        // circuits resume when the next epoch join replenishes the set.
        if let Some(f) = self.faults.as_ref() {
            let interior = old_path.len().saturating_sub(2);
            let over_cap = old_retries > f.spec.max_retries;
            let too_thin = self.selectable_relays().is_some_and(|live| live < interior);
            if over_cap || too_thin {
                let parked = self.circuits[old.index()]
                    .workload
                    .streams
                    .iter()
                    .filter(|s| !self.flows[s.flow.index()].complete())
                    .count() as u64;
                if parked == 0 {
                    return;
                }
                self.stats.flows_parked += parked;
                self.faults
                    .as_mut()
                    .expect("checked above")
                    .parked
                    .push(old);
                return;
            }
        }
        let path = if self.placement.is_some() && old_path.len() > 2 {
            let relays = self.select_relays(old_path.len() - 2);
            let mut path = Vec::with_capacity(old_path.len());
            path.push(old_path[0]);
            path.extend(relays);
            path.push(*old_path.last().expect("non-empty path"));
            path
        } else {
            old_path
        };
        let old_info = &self.circuits[old.index()];
        let mut streams = Vec::new();
        for s in &old_info.workload.streams {
            let f = &self.flows[s.flow.index()];
            if f.complete() {
                continue;
            }
            let offset = f
                .arrival_at
                .map_or(SimDuration::ZERO, |at| at.saturating_duration_since(now));
            streams.push(StreamSpec {
                flow: s.flow,
                bytes: f.remaining(),
                offset,
            });
        }
        if streams.is_empty() {
            return;
        }
        let workload = CircuitWorkload {
            streams,
            teardown_after: old_info
                .workload
                .teardown_after
                .iter()
                .skip(1)
                .copied()
                .collect(),
            rebuild_delay: old_info.workload.rebuild_delay,
        };
        self.stats.rebuilds += 1;
        let new = self.add_circuit_with_workload(path, workload, incarnation);
        // Timeout charges carry across incarnations: the backoff law and
        // the retry cap apply to the flow lineage, not to one circuit.
        self.circuits[new.index()].retries = old_retries;
        self.start_circuit(ctx, new);
    }

    /// Applies one consensus epoch delta (from a [`TorEvent::Epoch`]):
    /// joining relays go live (selectable again, O(log n) sampler
    /// update each), departing relays go dark, and every accounted
    /// circuit crossing a departure is torn down through the normal
    /// two-wave DESTROY machinery — its unfinished flows rebuild under
    /// the live policy once teardown quiesces, exactly like
    /// workload-driven churn.
    pub(super) fn apply_epoch(&mut self, ctx: &mut Context<'_, TorEvent>, epoch: u32) {
        let Some(delta) = self.epoch_deltas.get_mut(epoch as usize) else {
            return;
        };
        let delta = std::mem::take(delta);
        if delta.is_empty() {
            self.stats.epochs_applied += 1;
            return;
        }
        // Joins first: a relay must never be both dark and picked by a
        // rebuild triggered later in this same boundary.
        let mut joined = 0u64;
        for &r in &delta.join {
            if self.set_relay_live(r as usize, true) {
                joined += 1;
            }
        }
        let mut departed = 0u64;
        for &r in &delta.leave {
            if self.set_relay_live(r as usize, false) {
                departed += 1;
            }
        }
        self.stats.relays_joined += joined;
        self.stats.relays_departed += departed;
        self.stats.epochs_applied += 1;
        // Fresh capacity joined the consensus: wake every parked lineage
        // with a clean retry budget. If the set is still too thin the
        // rebuild simply re-parks — no event loop.
        if joined > 0 {
            if let Some(f) = self.faults.as_mut() {
                let parked = std::mem::take(&mut f.parked);
                for &c in &parked {
                    let delay = self.circuits[c.index()].workload.rebuild_delay;
                    self.circuits[c.index()].retries = 0;
                    ctx.schedule_in(delay, TorEvent::Rebuild(c));
                }
            }
        }
        // Mark the departing relays' overlay nodes, then tear down every
        // live circuit crossing one. `teardown` no-ops on circuits
        // already vacant or closed, so racing workload churn is safe.
        let p = self.placement.as_ref().expect("epochs need a placement");
        let mut leaving = vec![false; self.nodes.len()];
        for &r in &delta.leave {
            leaving[p.relay_overlays[r as usize].index()] = true;
        }
        for i in 0..self.circuits.len() {
            let crosses = {
                let info = &self.circuits[i];
                info.accounted && info.path.iter().any(|n| leaving[n.index()])
            };
            if crosses {
                self.stats.epoch_teardowns += 1;
                self.teardown(ctx, CircId(i as u32));
            }
        }
        debug_assert!(
            self.verify_placement_ledger(),
            "epoch {epoch}: placement ledger out of sync"
        );
    }
}
