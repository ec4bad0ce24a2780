//! Core protocol types: transaction ids, writes, and wire messages.

use bytes::Bytes;
use simnet::{NodeId, SimTime, TraceCtx};

/// A ZooKeeper-style transaction id: `(epoch, counter)`, totally ordered.
///
/// The epoch increments on every leader change; the counter increments per
/// committed write within an epoch. The commit log's zxid order is the
/// delivery order guarantee the paper relies on: "an application's instances
/// running on different servers should eventually receive all config
/// updates delivered in the same order" (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Zxid {
    /// Leader epoch.
    pub epoch: u32,
    /// Counter within the epoch.
    pub counter: u64,
}

impl Zxid {
    /// The zero id (before any write).
    pub const ZERO: Zxid = Zxid {
        epoch: 0,
        counter: 0,
    };

    /// Returns the next zxid within the same epoch.
    pub fn next(self) -> Zxid {
        Zxid {
            epoch: self.epoch,
            counter: self.counter + 1,
        }
    }
}

impl std::fmt::Display for Zxid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.epoch, self.counter)
    }
}

/// A single committed write: set `path` to `data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    /// Transaction id assigned by the leader.
    pub zxid: Zxid,
    /// Config path.
    pub path: String,
    /// Config payload (compiled JSON, or PackageVessel metadata).
    pub data: Bytes,
    /// When the originating client issued the write (for end-to-end
    /// propagation measurements).
    pub origin: SimTime,
    /// Causal trace context carried from the originating commit, if the
    /// write is being traced. Clones (retransmits, sync replies, notifies)
    /// keep the context, so every downstream hop stays attributable.
    pub trace: Option<TraceCtx>,
}

impl Write {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        (self.path.len() + self.data.len() + 64) as u64
    }
}

/// Default writes per batched frame, used wherever no per-link loss
/// estimate exists (observer pushes, and retransmission before enough
/// transmissions have been observed). Batches are all-or-nothing, so an
/// unbounded frame turns one drop into a silent loss of the whole tail —
/// the receiver sees *nothing* and cannot even detect a gap until the next
/// anti-entropy tick. Chunking bounds that blast radius: under loss, most
/// receivers still get some chunk, notice the hole, and resync
/// immediately, while the header-amortization and targeting savings are
/// kept (cumulative acks never skip past a missing middle chunk). Tuned
/// with `repro losssweep`: at 30% drop, larger chunks buy little extra
/// byte reduction (headers are small next to payloads — the savings come
/// from targeting) but measurably fatten the delivery tail.
pub const MAX_BATCH_WRITES: usize = 4;

/// Ceiling for the adaptive retransmission chunk size on links measured
/// to be clean. Headers are 64 bytes against kilobyte payloads, so going
/// past this buys nothing measurable while widening the all-or-nothing
/// blast radius if the estimate is stale.
pub const MAX_ADAPTIVE_BATCH_WRITES: usize = 16;

/// Transmissions observed toward a follower before its loss estimate is
/// trusted. Below this the retransmission path chunks at
/// [`MAX_BATCH_WRITES`], the fixed tuning the sweep validated.
pub const MIN_LOSS_SAMPLES: u64 = 16;

/// Retransmission chunk size for a link with measured frame-loss rate
/// `loss`, as a fraction in `[0, 1]`.
///
/// A frame of `k` writes is all-or-nothing; at loss rate `p` the expected
/// writes lost to one dropped frame is `k·p`. Holding that blast radius
/// constant at ~half a write per frame gives `k = 0.5 / p`: clean links
/// (`p → 0`) amortize headers across up to [`MAX_ADAPTIVE_BATCH_WRITES`]
/// writes, while at the losssweep's 30% worst case the chunk shrinks to 2
/// so a drop costs at most two writes' worth of tail. At `p = 12.5%` this
/// reproduces the fixed [`MAX_BATCH_WRITES`] = 4 the sweep originally
/// tuned.
pub fn adaptive_batch_size(loss: f64) -> usize {
    if loss <= 0.0 {
        return MAX_ADAPTIVE_BATCH_WRITES;
    }
    let k = (0.5 / loss).ceil() as usize;
    k.clamp(1, MAX_ADAPTIVE_BATCH_WRITES)
}

/// Approximate wire size of a frame carrying `writes` plus a fixed header.
/// One batched frame costs one header; the per-write overhead is already
/// inside [`Write::wire_size`].
pub fn batch_wire_size(writes: &[Write]) -> u64 {
    writes.iter().map(Write::wire_size).sum::<u64>() + 64
}

/// The trace contexts carried by `writes`, for the delivery envelope of a
/// batched frame (so a dropped frame annotates every write's trace).
pub fn batch_traces(writes: &[Write]) -> Vec<TraceCtx> {
    writes.iter().filter_map(|w| w.trace).collect()
}

/// Messages of the Zeus protocol.
#[derive(Debug, Clone)]
pub enum ZeusMsg {
    /// Client → leader: propose a write.
    Propose {
        /// Config path to set.
        path: String,
        /// Payload.
        data: Bytes,
        /// Client-side origination time.
        origin: SimTime,
        /// Trace context of the originating commit, if traced.
        trace: Option<TraceCtx>,
    },
    /// Leader → follower: replicate a proposal.
    Append {
        /// The proposed write.
        write: Write,
    },
    /// Leader → one follower: retransmit exactly the proposals that
    /// follower is missing, as one all-or-nothing frame.
    ///
    /// Same atomicity rule as [`ZeusMsg::SyncReply`]: either the whole
    /// batch arrives or none of it does, so a drop window can never
    /// swallow the middle of a retransmitted tail and leave the follower
    /// with a hole its cumulative ack would silently skip past.
    AppendBatch {
        /// The missing proposals, in zxid order.
        writes: Vec<Write>,
    },
    /// Follower → leader: cumulative acknowledgment — "I hold every
    /// proposal of `upto`'s epoch with a counter ≤ `upto.counter`,
    /// gap-free". Replaces per-write acks: one 64-byte frame acknowledges
    /// an entire append batch, and re-acking a duplicate delivery is free
    /// (the leader takes the max).
    AckUpTo {
        /// Highest contiguously-held zxid of the current epoch.
        upto: Zxid,
    },
    /// Leader → follower: everything up to `zxid` is committed.
    CommitUpTo {
        /// Highest committed zxid.
        zxid: Zxid,
    },
    /// Leader → everyone: liveness heartbeat (also carries commit point).
    Heartbeat {
        /// Leader's epoch.
        epoch: u32,
        /// Highest committed zxid.
        committed: Zxid,
    },
    /// Candidate → ensemble: request votes for a new epoch.
    ElectMe {
        /// Proposed epoch.
        epoch: u32,
        /// Candidate's last logged zxid.
        last_zxid: Zxid,
    },
    /// Voter → candidate: vote granted for `epoch`.
    Vote {
        /// Epoch voted for.
        epoch: u32,
    },
    /// New leader → everyone: epoch established.
    NewLeader {
        /// The new epoch.
        epoch: u32,
        /// The new leader's node.
        leader: NodeId,
    },
    /// Observer → leader: request committed writes after `last_zxid`
    /// (initial sync and crash recovery).
    ObserverSync {
        /// Last zxid the observer has applied.
        last_zxid: Zxid,
    },
    /// Leader → observer: committed writes (push path), in zxid order, as
    /// one all-or-nothing frame. A quorum ack that commits several
    /// proposals at once (the norm when a lost ack stalled the in-order
    /// commit point) ships to each observer as one frame instead of one
    /// message per write.
    ObserverUpdateBatch {
        /// The committed writes, in zxid order.
        writes: Vec<Write>,
        /// The leader's commit point when the frame was sent. Frames are
        /// all-or-nothing, so a *fully* dropped chunk is silent — but any
        /// sibling (or later) chunk that does arrive carries this head,
        /// letting the observer spot the hole and resync immediately
        /// instead of waiting out the anti-entropy interval.
        upto: Zxid,
    },
    /// Leader → syncing replica: the committed tail (or snapshot) answering
    /// an [`ZeusMsg::ObserverSync`], as one atomic unit.
    ///
    /// Like ZooKeeper's DIFF/SNAP sync, the reply is all-or-nothing: either
    /// the whole batch arrives or none of it does. Sending it as individual
    /// updates would let the network drop the middle of a catch-up stream,
    /// leaving the replica with a hole *behind* its sync cursor that no
    /// later request would ever cover.
    SyncReply {
        /// Missing committed writes in zxid order.
        writes: Vec<Write>,
        /// The leader's applied head: after absorbing `writes`, the replica
        /// provably holds every committed write up to this point.
        upto: Zxid,
    },
    /// Proxy → observer: subscribe to a path with a watch.
    Subscribe {
        /// Path to watch.
        path: String,
        /// Version already cached at the proxy (0 if none).
        have: Zxid,
    },
    /// Observer → proxy: current data for a watched path (subscribe
    /// replies, where there is exactly one path in play).
    Notify {
        /// The write (or current state) for the watched path.
        write: Write,
    },
    /// Observer → proxy: coalesced watch notifications — the current data
    /// for every watched path that changed in one applied batch, as one
    /// frame per proxy instead of one `Notify` per path.
    NotifyBatch {
        /// Current state of each changed watched path, in zxid order.
        writes: Vec<Write>,
    },
    /// Proxy → observer: liveness probe. Under the lease protocol the ping
    /// piggybacks the watcher's lease counters, so frame loss is detected
    /// at healthcheck cadence without any per-path messages: the observer
    /// compares `frames_received` against the frames it has sent long
    /// enough ago to have settled, and repairs on a shortfall.
    ProxyPing {
        /// The watcher's lease epoch (0 = no lease established yet; the
        /// observer then answers liveness only).
        epoch: u64,
        /// Notify frames received from the current observer under this
        /// lease.
        frames_received: u64,
    },
    /// Observer → proxy: liveness response.
    ProxyPong {
        /// Whether the pinger's lease is still valid. `false` (unknown
        /// watcher, fenced epoch) sends the proxy back through a full
        /// re-subscribe; always `true` for an epoch-0 ping.
        lease_ok: bool,
    },
    /// Proxy → observer: establish or renew the watch lease covering every
    /// path this watcher has subscribed. Sent every N healthchecks instead
    /// of one `Subscribe { path, have }` per path per check — the
    /// O(paths × healthchecks) storm becomes O(1) per renewal interval.
    LeaseRenew {
        /// The lease epoch granted by the last `LeaseAck` (0 = establish a
        /// fresh lease; the sender has reset `frames_received` to 0 and
        /// follows up with one `Subscribe` per path on the same link, so
        /// in-order delivery registers the watches under the new lease).
        epoch: u64,
        /// Notify frames received under this lease.
        frames_received: u64,
    },
    /// Observer → proxy: lease granted or renewed.
    LeaseAck {
        /// The granted lease epoch. Every grant — establishment, or the
        /// fresh lease a repair creates — uses a new epoch, so counter
        /// state can never be confused across grants.
        epoch: u64,
        /// Frames sent under the lease as of this ack (repair chunks
        /// included; 0 at establishment).
        frames_sent: u64,
        /// Whether `RepairBatch` chunks precede this ack on the link. The
        /// watcher then adopts its own *receipt count* of those chunks as
        /// the new frame counter — NOT `frames_sent` — so a dropped chunk
        /// leaves the counters short and the next ping repairs again.
        /// Loss cannot hide behind the ack.
        repaired: bool,
        /// How many paths the observer watches for this lease holder. A
        /// dropped establishment `Subscribe` would otherwise be invisible
        /// forever (no watch → no frames → no counter mismatch); the
        /// watcher compares this against its subscription count at every
        /// renewal ack and re-establishes on a shortfall. Watches are
        /// rebuilt from the watcher's own set at establishment, so count
        /// equality implies set equality. 0 at establishment (the
        /// Subscribes are still behind the ack on the link) — not
        /// compared there.
        paths: u64,
    },
    /// Observer → proxy: loss-repair chunk — the full current state of the
    /// watcher's paths, re-pushed under a freshly granted lease epoch when
    /// the lease counters disagreed. Distinct from `NotifyBatch` so the
    /// watcher can count repair chunks against the new epoch before the
    /// `LeaseAck` that activates it arrives.
    RepairBatch {
        /// The fresh lease epoch these chunks are counted under.
        epoch: u64,
        /// A chunk of the full current state, in zxid order.
        writes: Vec<Write>,
    },
    /// Observer → proxy: lease unknown or fenced off; the watcher must
    /// re-establish with a full re-subscribe (today's anti-entropy path).
    LeaseNack {
        /// The observer's current lease generation.
        epoch: u64,
    },
}

/// One shared fan-out frame: the coalesced notify payload for one applied
/// batch, built once per watcher *group* and multicast as a single
/// refcount-shared allocation (`Arc<NotifyFrame>`) instead of a per-watcher
/// `Vec<Write>` clone. Deliberately carries no per-receiver data — lease
/// accounting lives in the (observer, watcher) counter pair, not in the
/// frame — which is exactly what makes the payload shareable.
#[derive(Debug, Clone)]
pub struct NotifyFrame {
    /// Current state of each changed watched path, in zxid order.
    pub writes: Vec<Write>,
}

/// Wire size of the small lease/liveness control frames.
pub mod control_wire {
    /// `ProxyPing`: 16-byte probe plus the two lease counters.
    pub const PING: u64 = 32;
    /// `ProxyPong`: probe response plus the lease verdict.
    pub const PONG: u64 = 16;
    /// `LeaseRenew`: epoch + counter + header.
    pub const RENEW: u64 = 32;
    /// `LeaseAck`: epoch + counter + path count + flags + header.
    pub const ACK: u64 = 40;
    /// `LeaseNack`: epoch + header.
    pub const NACK: u64 = 24;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zxid_ordering_epoch_dominates() {
        let a = Zxid {
            epoch: 1,
            counter: 99,
        };
        let b = Zxid {
            epoch: 2,
            counter: 0,
        };
        assert!(a < b);
        assert!(Zxid::ZERO < a);
        assert_eq!(
            a.next(),
            Zxid {
                epoch: 1,
                counter: 100
            }
        );
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let w = Write {
            zxid: Zxid::ZERO,
            path: "a/b".into(),
            data: Bytes::from(vec![0u8; 1000]),
            origin: SimTime::ZERO,
            trace: None,
        };
        assert_eq!(w.wire_size(), 3 + 1000 + 64);
    }

    #[test]
    fn adaptive_batch_size_tracks_loss() {
        // Clean link: amortize headers up to the ceiling.
        assert_eq!(adaptive_batch_size(0.0), MAX_ADAPTIVE_BATCH_WRITES);
        assert_eq!(adaptive_batch_size(0.01), MAX_ADAPTIVE_BATCH_WRITES);
        // The fixed tuning's operating point.
        assert_eq!(adaptive_batch_size(0.125), MAX_BATCH_WRITES);
        // losssweep worst case: small frames, small blast radius.
        assert_eq!(adaptive_batch_size(0.30), 2);
        // Pathological loss still sends one write at a time, never zero.
        assert_eq!(adaptive_batch_size(0.99), 1);
        assert_eq!(adaptive_batch_size(1.0), 1);
    }

    #[test]
    fn batch_frame_pays_one_header() {
        let w = |counter| Write {
            zxid: Zxid { epoch: 1, counter },
            path: "p".into(),
            data: Bytes::from_static(b"xy"),
            origin: SimTime::ZERO,
            trace: None,
        };
        let writes = vec![w(1), w(2), w(3)];
        // Three writes in one frame: 3 × per-write size + one 64-byte
        // header, versus 3 × (size + header) for per-write frames.
        assert_eq!(batch_wire_size(&writes), 3 * (1 + 2 + 64) + 64);
        assert!(batch_traces(&writes).is_empty());
    }
}
