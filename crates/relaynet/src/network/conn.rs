//! Pipeline stage 1 — the connection layer.
//!
//! Everything that touches raw frames on links lives here: ingress
//! dispatch of delivered frames, the per-link round-robin egress
//! scheduler, link-local circuit-id allocation, and the window-gated
//! egress pump ([`TorNetwork::pump_dir`]) that drains a hop's queue while
//! its transport has credit.
//!
//! The helpers are associated functions over *split borrows* (`net`,
//! `link_sched`, `router`, …) rather than `&mut self` methods so that
//! callers deeper in the pipeline can invoke them while holding a mutable
//! borrow of one node's circuit state.

use netsim::net::{Net, SendOutcome};
use simcore::sim::Context;

use torcell::cell::CellBody;
use torcell::ids::CircuitId;

use crate::event::TorEvent;
use crate::ids::{CircId, Direction};
use crate::node::NodeCircuit;
use crate::pool::PayloadPool;
use crate::router::Router;
use crate::scheduler::LinkScheduler;
use crate::wire::{FramePayload, WireFrame};

use super::{LinkRoute, TorNetwork, WorldStats};
use netsim::net::NodeId;

impl TorNetwork {
    /// Allocates a link-local circuit id (negotiated per connection, as
    /// in Tor) and its slot in the route table, preferring ids whose
    /// both ends were reclaimed by a teardown — under churn the table
    /// stops growing once the free list primes.
    pub(super) fn alloc_link_circ_id(&mut self) -> CircuitId {
        if let Some(id) = self.free_link_ids.pop() {
            debug_assert!(
                self.link_routes[id.0 as usize].a.is_none()
                    && self.link_routes[id.0 as usize].b.is_none(),
                "free-listed link id still routed"
            );
            return id;
        }
        let id = CircuitId(u32::try_from(self.link_routes.len()).expect("too many circuit ids"));
        self.link_routes.push(LinkRoute::default());
        id
    }

    /// Hands a frame to an overlay egress link: directly if the link is
    /// idle, otherwise into the link's round-robin scheduler (feedback has
    /// strict priority; data cells queue per circuit).
    pub(super) fn sched_send(
        net: &mut Net<WireFrame>,
        link_sched: &mut [LinkScheduler],
        ctx: &mut Context<'_, TorEvent>,
        link: netsim::link::LinkId,
        frame: WireFrame,
        data_circuit: Option<CircId>,
    ) {
        if net.is_busy(link) {
            let sched = &mut link_sched[link.index()];
            match data_circuit {
                Some(circ) => sched.push_cell(circ, frame),
                None => sched.push_feedback(frame),
            }
        } else {
            debug_assert_eq!(net.queue_len(link), 0, "idle link with queued frames");
            let outcome = net.send(ctx, link, frame);
            debug_assert_eq!(outcome, SendOutcome::Accepted, "idle link refused a frame");
        }
    }

    /// After a transmission completes, starts the next scheduled frame on
    /// the link, if any.
    pub(super) fn refill_link(
        net: &mut Net<WireFrame>,
        link_sched: &mut [LinkScheduler],
        ctx: &mut Context<'_, TorEvent>,
        link: netsim::link::LinkId,
    ) {
        if !net.is_busy(link) {
            if let Some(frame) = link_sched[link.index()].pop() {
                let outcome = net.send(ctx, link, frame);
                debug_assert_eq!(outcome, SendOutcome::Accepted);
            }
        }
    }

    /// Ingress: a frame addressed to one of our overlay nodes arrived.
    /// Classifies it and hands it to the next pipeline stage — feedback to
    /// the window layer, cells to recognition.
    pub(super) fn deliver(&mut self, ctx: &mut Context<'_, TorEvent>, frame: WireFrame) {
        let to = self.overlay_of_net[frame.dst.index()];
        let from = self.overlay_of_net[frame.src.index()];
        debug_assert!(
            to != u32::MAX && from != u32::MAX,
            "frame endpoints must host overlay participants"
        );
        let (to, from) = (crate::ids::OverlayId(to), crate::ids::OverlayId(from));
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.is_crashed(to.index()))
        {
            // A crashed relay receives nothing: everything addressed to
            // it is silently dropped (no confirm, no feedback — its
            // neighbours' windows starve and only client timers notice).
            // Frames it sent *before* crashing were already on the wire
            // and deliver normally; link-id retirement guarantees their
            // ids never resolve against a re-minted circuit. The
            // simulator still owns the payload buffer, so DATA bodies
            // return to the pool.
            self.stats.crash_frames_dropped += 1;
            if let FramePayload::Cell { cell, .. } = frame.payload {
                if let CellBody::Relay(rc) = cell.body {
                    self.payload_pool.reclaim(rc.data);
                }
            }
            return;
        }
        match frame.payload {
            FramePayload::Feedback(fb) => self.on_feedback(ctx, to, from, fb),
            FramePayload::Cell { cell, hop_seq } => self.on_cell(ctx, to, from, cell, hop_seq),
        }
    }

    /// Egress pump: drains one hop direction — sends queued cells (and, at
    /// a transferring client, freshly generated DATA/END cells) while the
    /// window allows, paying owed feedback as cells leave the queue.
    #[expect(
        clippy::too_many_arguments,
        reason = "disjoint TorNetwork fields are borrowed one by one so they can be mutated beside a borrowed circuit"
    )]
    pub(super) fn pump_dir(
        net: &mut Net<WireFrame>,
        link_sched: &mut [LinkScheduler],
        router: &Router,
        net_node_of: &[NodeId],
        stats: &mut WorldStats,
        pool: &mut PayloadPool,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        dir: Direction,
    ) {
        let circ = nc.circ;
        let NodeCircuit {
            fwd, bwd, client, ..
        } = nc;
        let Some(hopdir) = (match dir {
            Direction::Forward => fwd.as_mut(),
            Direction::Backward => bwd.as_mut(),
        }) else {
            return;
        };
        loop {
            if !hopdir.transport.can_send() {
                break;
            }
            let qc = if let Some(qc) = hopdir.queue.pop_front() {
                qc
            } else if dir == Direction::Forward {
                match Self::generate_client_cell(client.as_mut(), pool, circ, ctx.now()) {
                    Some(qc) => qc,
                    None => break,
                }
            } else {
                break;
            };

            let mut cell = qc.cell;
            // Client-originated cells are sealed (digest) and wrapped in
            // one pass over the payload, at send time.
            if let Some(hop) = qc.wrap_for_hop {
                let app = client
                    .as_mut()
                    .expect("wrap_for_hop is only set on client-originated cells");
                match &mut cell.body {
                    CellBody::Relay(rc) => app.route.wrap_for_hop(hop, rc),
                    _ => debug_assert!(false, "wrap_for_hop on a control cell"),
                }
            }
            let seq = hopdir.transport.register_send(ctx.now());
            cell.circ = hopdir.link_circ_id;
            let dst = net_node_of[hopdir.neighbor.index()];
            let frame = WireFrame {
                src: my_net,
                dst,
                payload: FramePayload::Cell { cell, hop_seq: seq },
                // Paid when the cell finishes serializing (TxComplete):
                // that is the instant the cell is "forwarded".
                confirm: qc.confirm,
            };
            Self::sched_send(
                net,
                link_sched,
                ctx,
                router.next_link(my_net, dst),
                frame,
                Some(circ),
            );
            stats.cells_sent += 1;
        }
    }
}
