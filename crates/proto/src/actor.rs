//! The per-node actor: a thread that speaks the protocol with its parent and
//! children using only local knowledge.
//!
//! All negotiation logic lives in [`crate::machine::NodeMachine`], which runs
//! core's per-node rule `bwfirst_core::bwfirst::Round`; the actor only moves
//! the machine's required transmissions over real channels. Every
//! failure path returns a typed [`ProtoError`] (lint rule R2): an actor
//! thread never panics, its `run` result carries the reason it stopped.

use crate::error::{Peer, ProtoError};
use crate::machine::{NodeMachine, Outgoing};
use crate::messages::{ControlMsg, DownMsg, Report, UpMsg};
use bwfirst_core::schedule::{LocalSchedule, LocalScheduleKind, NodeSchedule, SlotAction};
use bwfirst_platform::{NodeId, Weight};
use bwfirst_rational::Rat;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// One outgoing edge of an actor. Slot order matches the machine's
/// `children()` — link weights live in the machine.
pub(crate) struct ChildLink {
    pub id: u32,
    pub tx: Sender<DownMsg>,
    pub rx: Receiver<UpMsg>,
}

/// The actor's full state. Only local data: the negotiation machine (own
/// weight plus child links), the channel endpoints, and the routing table
/// the *harness* uses to deliver control messages (not used by the protocol
/// itself).
pub(crate) struct Actor {
    machine: NodeMachine,
    pub parent_rx: Receiver<DownMsg>,
    pub parent_tx: Sender<UpMsg>,
    pub children: Vec<ChildLink>,
    /// descendant id → child slot, for harness control routing.
    pub route: HashMap<u32, usize>,
    pub report_tx: Sender<Report>,
    // Flow-phase state.
    schedule: Option<LocalSchedule>,
    cursor: usize,
    computed: u64,
    forwarded: u64,
    bytes_processed: u64,
    checksum: u64,
}

impl Actor {
    pub fn new(
        id: u32,
        weight: Weight,
        parent_rx: Receiver<DownMsg>,
        parent_tx: Sender<UpMsg>,
        children: Vec<(ChildLink, Rat)>,
        route: HashMap<u32, usize>,
        report_tx: Sender<Report>,
    ) -> Actor {
        let links: Vec<(u32, Rat)> = children.iter().map(|(l, c)| (l.id, *c)).collect();
        let children = children.into_iter().map(|(l, _)| l).collect();
        Actor {
            machine: NodeMachine::new(id, weight, links),
            parent_rx,
            parent_tx,
            children,
            route,
            report_tx,
            schedule: None,
            cursor: 0,
            computed: 0,
            forwarded: 0,
            bytes_processed: 0,
            checksum: 0,
        }
    }

    fn id(&self) -> u32 {
        self.machine.id()
    }

    /// Main loop: serve protocol rounds and flow phases until shutdown, the
    /// parent hanging up (clean exit), or a protocol violation (the typed
    /// error is the thread's result).
    pub fn run(mut self) -> Result<(), ProtoError> {
        while let Ok(msg) = self.parent_rx.recv() {
            match msg {
                DownMsg::Proposal(lambda) => self.negotiate(lambda)?,
                DownMsg::Task(payload) => self.route_task(payload)?,
                DownMsg::Eof => self.finish_flow()?,
                DownMsg::StartFlow { bunches, payload_len } => {
                    self.generate_flow(bunches, payload_len)?;
                }
                DownMsg::Control { target, change } => self.apply_or_relay(target, change)?,
                DownMsg::Shutdown => {
                    for child in &self.children {
                        let _ = child.tx.send(DownMsg::Shutdown);
                    }
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// One `BW-First` round: drive the machine, shuttling its transmissions
    /// over the child channels until it closes the round with the parent
    /// ack.
    fn negotiate(&mut self, lambda: Rat) -> Result<(), ProtoError> {
        let mut wire_bytes_sent = 0u64;
        let mut out = self.machine.on_proposal(lambda)?;
        loop {
            match out {
                Outgoing::ToChild { slot, child, beta } => {
                    let msg = DownMsg::Proposal(beta);
                    wire_bytes_sent += crate::wire::encode_down(&msg).len() as u64;
                    self.children[slot].tx.send(msg).map_err(|_| ProtoError::ChannelClosed {
                        node: self.id(),
                        peer: Peer::Child(child),
                    })?;
                    let UpMsg::Ack(theta) = self.children[slot].rx.recv().map_err(|_| {
                        ProtoError::ChannelClosed { node: self.id(), peer: Peer::Child(child) }
                    })?;
                    out = self.machine.on_ack(child, theta)?;
                }
                Outgoing::AckParent { theta } => {
                    // Rates changed: any previously built schedule is stale.
                    self.schedule = None;
                    self.cursor = 0;
                    let msg = UpMsg::Ack(theta);
                    wire_bytes_sent += crate::wire::encode_up(&msg).len() as u64;
                    self.report_tx
                        .send(Report::Negotiation {
                            node: self.id(),
                            alpha: self.machine.alpha(),
                            eta_in: self.machine.eta_in(),
                            proposals_sent: self.machine.proposals_sent(),
                            wire_bytes_sent,
                        })
                        .map_err(|_| ProtoError::ChannelClosed {
                            node: self.id(),
                            peer: Peer::Driver,
                        })?;
                    return self.parent_tx.send(msg).map_err(|_| ProtoError::ChannelClosed {
                        node: self.id(),
                        peer: Peer::Parent,
                    });
                }
            }
        }
    }

    /// Builds the event-driven local schedule from the node's own rates —
    /// the Section 6.2 quantities need nothing but `α` and the `η_i`.
    fn build_schedule(&self) -> Result<Option<LocalSchedule>, ProtoError> {
        let alpha = self.machine.alpha();
        let flows = self.machine.flows();
        if !alpha.is_positive() && flows.iter().all(|f| !f.is_positive()) {
            return Ok(None);
        }
        let children =
            self.machine.children().iter().zip(flows).map(|(&(k, c), &eta)| (NodeId(k), c, eta));
        let sched = NodeSchedule::from_rates(NodeId(self.id()), alpha, children)
            .map_err(|_| ProtoError::PeriodOverflow { node: self.id() })?;
        Ok(Some(LocalSchedule::build(&sched, LocalScheduleKind::Interleaved)))
    }

    fn route_task(&mut self, payload: Arc<[u8]>) -> Result<(), ProtoError> {
        if self.schedule.is_none() {
            self.schedule = self.build_schedule()?;
        }
        let Some(schedule) = &self.schedule else {
            // An inactive node received a task: the negotiation said it gets
            // none, so this indicates a routing bug upstream.
            return Err(ProtoError::NoSchedule { node: self.id() });
        };
        let action = schedule.actions[self.cursor];
        self.cursor = (self.cursor + 1) % schedule.actions.len();
        match action {
            SlotAction::Compute => self.process(payload),
            SlotAction::Send(child) => {
                let slot = self.machine.child_slot(child.0)?;
                self.children[slot].tx.send(DownMsg::Task(payload)).map_err(|_| {
                    ProtoError::ChannelClosed { node: self.id(), peer: Peer::Child(child.0) }
                })?;
                self.forwarded += 1;
            }
        }
        Ok(())
    }

    /// "Computes" one task: folds the payload into a checksum, standing in
    /// for real work while keeping the bytes actually read.
    fn process(&mut self, payload: Arc<[u8]>) {
        let mut acc = self.checksum;
        for chunk in payload.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = acc.rotate_left(7) ^ u64::from_le_bytes(word);
        }
        self.checksum = acc;
        self.bytes_processed += payload.len() as u64;
        self.computed += 1;
    }

    /// Root only: generate and route the whole workload.
    fn generate_flow(&mut self, bunches: u64, payload_len: usize) -> Result<(), ProtoError> {
        if self.schedule.is_none() {
            self.schedule = self.build_schedule()?;
        }
        let bunch = self.schedule.as_ref().map_or(0, |s| s.actions.len() as u64);
        let template: Arc<[u8]> = vec![0xA5u8; payload_len].into();
        for _ in 0..bunches * bunch {
            self.route_task(template.clone())?;
        }
        self.finish_flow()
    }

    /// Propagate EOF, report counters, reset for the next phase.
    fn finish_flow(&mut self) -> Result<(), ProtoError> {
        for child in &self.children {
            child.tx.send(DownMsg::Eof).map_err(|_| ProtoError::ChannelClosed {
                node: self.id(),
                peer: Peer::Child(child.id),
            })?;
        }
        self.report_tx
            .send(Report::Flow {
                node: self.id(),
                computed: self.computed,
                forwarded: self.forwarded,
                bytes_processed: self.bytes_processed,
            })
            .map_err(|_| ProtoError::ChannelClosed { node: self.id(), peer: Peer::Driver })?;
        self.computed = 0;
        self.forwarded = 0;
        self.bytes_processed = 0;
        self.cursor = 0;
        Ok(())
    }

    fn apply_or_relay(&mut self, target: u32, change: ControlMsg) -> Result<(), ProtoError> {
        if target == self.id() {
            match change {
                ControlMsg::SetWeight(w) => self.machine.set_weight(w),
                ControlMsg::SetLink { child, c } => self.machine.set_link(child, c)?,
            }
            self.schedule = None;
            return Ok(());
        }
        let slot = *self
            .route
            .get(&target)
            .ok_or(ProtoError::UnroutableControl { node: self.id(), target })?;
        self.children[slot].tx.send(DownMsg::Control { target, change }).map_err(|_| {
            ProtoError::ChannelClosed { node: self.id(), peer: Peer::Child(self.children[slot].id) }
        })
    }
}
