//! The RM control-plane wire protocol.
//!
//! One message enum serves both the centralized baselines and the ESlurm
//! overlay (the `eslurm` crate reuses these variants for its satellite
//! traffic). Node lists travel as [`NodeSlice`] — a shared, reference-
//! counted list plus a range — so relaying a 16K-node launch down a tree
//! never copies the list, while the modelled wire size still charges for
//! the four bytes per node a real encoding would ship.
//!
//! No bytes move: the DES passes typed messages and charges latency from
//! the analytic [`Payload::size_bytes`].

use emu::{Context, NodeId, Payload};
use std::rc::Rc;
use topology::{balanced_chunks, relay_depth};

/// What a job-control broadcast does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtlKind {
    /// Spawn job processes (the paper's "job loading message").
    Launch,
    /// Kill processes and reclaim resources ("job termination message").
    Terminate,
    /// Liveness sweep: each node confirms it is alive (ESlurm collects
    /// compute-node heartbeats through the satellite overlay this way).
    Ping,
}

/// Backing store of a [`NodeSlice`]. When the last clone of a slice
/// drops, the `Vec`'s allocation is parked in a thread-local pool and
/// handed out again by [`NodeSlice::recycled_buf`] — million-job streams
/// build one `Deliver` payload per job (plus one per FP-Tree relay task),
/// and without the pool each of those is a fresh heap allocation in the
/// DES hot path.
#[derive(Debug, PartialEq, Eq)]
struct ListBuf(Vec<u32>);

thread_local! {
    static LIST_POOL: std::cell::RefCell<Vec<Vec<u32>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Pool cap: enough for the deepest relay fan-out alive at once; beyond
/// that, freeing is cheaper than hoarding.
const LIST_POOL_MAX: usize = 64;

impl Drop for ListBuf {
    fn drop(&mut self) {
        if self.0.capacity() == 0 {
            return;
        }
        let mut buf = std::mem::take(&mut self.0);
        LIST_POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < LIST_POOL_MAX {
                buf.clear();
                p.push(buf);
            }
        });
    }
}

/// A shared node list with a sub-range view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSlice {
    list: Rc<ListBuf>,
    lo: u32,
    hi: u32,
}

impl NodeSlice {
    /// Wrap a whole list. The allocation is recycled through the
    /// thread-local pool once the last clone drops.
    pub fn new(list: Vec<u32>) -> Self {
        let hi = list.len() as u32;
        NodeSlice {
            list: Rc::new(ListBuf(list)),
            lo: 0,
            hi,
        }
    }

    /// An empty slice.
    pub fn empty() -> Self {
        NodeSlice {
            list: Rc::new(ListBuf(Vec::new())),
            lo: 0,
            hi: 0,
        }
    }

    /// Build a slice by collecting `nodes` into a recycled buffer, so the
    /// per-payload allocation is reused instead of hitting the allocator.
    pub fn from_nodes(nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut buf = Self::recycled_buf();
        buf.extend(nodes);
        Self::new(buf)
    }

    /// An empty `Vec<u32>` whose allocation (if any) came from a
    /// previously dropped slice on this thread. Fill it and hand it back
    /// via [`NodeSlice::new`] to keep the allocation cycling.
    pub fn recycled_buf() -> Vec<u32> {
        LIST_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
    }

    /// View a sub-range (relative to this slice).
    pub fn slice(&self, lo: usize, hi: usize) -> Self {
        let abs_lo = self.lo as usize + lo;
        let abs_hi = self.lo as usize + hi;
        assert!(abs_lo <= abs_hi && abs_hi <= self.hi as usize);
        NodeSlice {
            list: Rc::clone(&self.list),
            lo: abs_lo as u32,
            hi: abs_hi as u32,
        }
    }

    /// The nodes in view.
    pub fn nodes(&self) -> &[u32] {
        &self.list.0[self.lo as usize..self.hi as usize]
    }

    /// Number of nodes in view.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }
}

/// Control-plane messages.
#[derive(Clone, Debug, PartialEq)]
pub enum RmMsg {
    /// Slave announces itself to the master at boot.
    Register { node: u32 },
    /// Master → slave liveness probe (polling RMs).
    Poll,
    /// Slave's answer to a [`RmMsg::Poll`].
    PollReply { load: u8 },
    /// Slave → master periodic heartbeat (push RMs).
    Heartbeat { node: u32 },
    /// Master's acknowledgement of a heartbeat.
    HeartbeatAck,
    /// External job submission (injected by the experiment driver).
    SubmitJob {
        job: u64,
        nodes: NodeSlice,
        runtime_us: u64,
    },
    /// Job-control broadcast: the receiver handles the job locally and
    /// relays to `list` (its subtree) using grouping width `width`.
    JobCtl {
        job: u64,
        kind: CtlKind,
        list: NodeSlice,
        width: u16,
    },
    /// Aggregated acknowledgement flowing back up: `count` nodes handled.
    CtlAck { job: u64, kind: CtlKind, count: u32 },
    /// ESlurm master → satellite: relay a broadcast to `list`.
    BcastTask {
        task: u64,
        job: u64,
        kind: CtlKind,
        list: NodeSlice,
        width: u16,
    },
    /// Satellite → master: broadcast outcome.
    BcastDone {
        task: u64,
        job: u64,
        kind: CtlKind,
        reached: u32,
        ok: bool,
    },
    /// Master → satellite health check.
    SatHeartbeat,
    /// Satellite → master health reply carrying its FSM state id.
    SatHeartbeatAck { state: u8 },
    /// Administrative shutdown of a satellite.
    Shutdown,
    /// User-initiated cancellation of a job (queued or running).
    CancelJob {
        /// The job to cancel.
        job: u64,
    },
    /// A user request (e.g. `squeue`/`sinfo`) arriving at the master.
    StatusQuery {
        /// Request id, echoed in the reply.
        id: u64,
    },
    /// The master's answer to a [`RmMsg::StatusQuery`].
    StatusReply {
        /// Echoed request id.
        id: u64,
    },
}

/// Send job-control `kind` of `job` to `list` down a width-`width`
/// grouping tree (paper §IV-B): `min(n, w)` balanced chunks, each sent to
/// its first node with the rest of the chunk as that node's sub-list, in
/// chunk order. `charge` runs before each send with the chunk's head, for
/// the sender's own socket and CPU costs. Returns the chunks sent (the
/// acks to expect) and the relay depth below the sender.
pub fn send_tree(
    ctx: &mut dyn Context<RmMsg>,
    job: u64,
    kind: CtlKind,
    list: &NodeSlice,
    width: usize,
    mut charge: impl FnMut(&mut dyn Context<RmMsg>, NodeId),
) -> (u32, u64) {
    let w = width.max(2);
    let chunks = balanced_chunks(list.len(), w);
    let sent = chunks.len() as u32;
    for (lo, len) in chunks {
        let head = NodeId(list.nodes()[lo]);
        charge(ctx, head);
        ctx.send(
            head,
            RmMsg::JobCtl {
                job,
                kind,
                list: list.slice(lo + 1, lo + len),
                width: w as u16,
            },
        );
    }
    (sent, relay_depth(list.len(), w) as u64)
}

/// The acknowledgements of one fan-out: children sent to and heard from,
/// and the nodes their acks cover.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckTally {
    /// Children the fan-out sent to.
    pub expected: u32,
    /// Children that have acknowledged.
    pub received: u32,
    /// Nodes covered so far.
    pub reached: u32,
}

impl AckTally {
    /// Count one child's ack covering `count` nodes; `true` once every
    /// expected child has answered.
    pub fn ack(&mut self, count: u32) -> bool {
        self.received += 1;
        self.reached += count;
        self.received >= self.expected
    }
}

impl Payload for RmMsg {
    fn size_bytes(&self) -> u32 {
        // 16 bytes of framing/headers plus variant payload; node lists
        // cost four bytes per node on the wire.
        let body = match self {
            RmMsg::Register { .. } => 4,
            RmMsg::Poll | RmMsg::HeartbeatAck | RmMsg::SatHeartbeat | RmMsg::Shutdown => 1,
            RmMsg::PollReply { .. } | RmMsg::SatHeartbeatAck { .. } => 2,
            RmMsg::Heartbeat { .. } => 4,
            RmMsg::SubmitJob { nodes, .. } => 16 + 4 * nodes.len() as u32,
            RmMsg::JobCtl { list, .. } => 12 + 4 * list.len() as u32,
            RmMsg::CtlAck { .. } => 13,
            RmMsg::BcastTask { list, .. } => 20 + 4 * list.len() as u32,
            RmMsg::BcastDone { .. } => 22,
            RmMsg::CancelJob { .. } => 8,
            RmMsg::StatusQuery { .. } => 8,
            RmMsg::StatusReply { .. } => 128, // a screenful of queue state
        };
        16 + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_slice_views_share_storage() {
        let s = NodeSlice::new((0..100).collect());
        let sub = s.slice(10, 20);
        assert_eq!(sub.len(), 10);
        assert_eq!(sub.nodes()[0], 10);
        let subsub = sub.slice(2, 5);
        assert_eq!(subsub.nodes(), &[12, 13, 14]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slice_panics() {
        NodeSlice::new(vec![1, 2, 3]).slice(1, 5);
    }

    #[test]
    fn dropped_slices_recycle_their_allocation() {
        // Drain whatever earlier tests on this thread left pooled.
        while LIST_POOL.with(|p| !p.borrow().is_empty()) {
            LIST_POOL.with(|p| p.borrow_mut().clear());
        }
        let s = NodeSlice::new(Vec::with_capacity(4096));
        let sub = s.slice(0, 0);
        drop(s);
        // A live clone still pins the buffer.
        assert_eq!(NodeSlice::recycled_buf().capacity(), 0);
        drop(sub);
        let buf = NodeSlice::recycled_buf();
        assert!(buf.capacity() >= 4096, "last drop must pool the buffer");
        assert!(buf.is_empty(), "recycled buffers come back cleared");
        // And `from_nodes` draws from the same pool.
        drop(NodeSlice::new(buf));
        let s = NodeSlice::from_nodes(0..8);
        assert_eq!(s.nodes(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(
            s.list.0.capacity() >= 4096,
            "from_nodes must reuse the pool"
        );
    }

    #[test]
    fn pool_is_bounded() {
        let bufs: Vec<NodeSlice> = (0..2 * LIST_POOL_MAX)
            .map(|_| NodeSlice::new(Vec::with_capacity(8)))
            .collect();
        drop(bufs);
        assert!(LIST_POOL.with(|p| p.borrow().len()) <= LIST_POOL_MAX);
    }

    #[test]
    fn size_scales_with_list() {
        let small = RmMsg::JobCtl {
            job: 1,
            kind: CtlKind::Launch,
            list: NodeSlice::new(vec![1]),
            width: 32,
        };
        let big = RmMsg::JobCtl {
            job: 1,
            kind: CtlKind::Launch,
            list: NodeSlice::new((0..1000).collect()),
            width: 32,
        };
        assert_eq!(big.size_bytes() - small.size_bytes(), 4 * 999);
    }
}
