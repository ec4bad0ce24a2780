//! The Configerator proxy: the leaf tier of the distribution tree.
//!
//! "Each server runs a Configerator Proxy process, which randomly picks an
//! observer in the same cluster to connect to. If the observer fails, the
//! proxy connects to another observer. ... It only fetches and caches the
//! configs needed by the applications running on the server. ... The proxy
//! stores the config in an on-disk cache for later reuse. If the proxy
//! fails, the application falls back to read from the on-disk cache
//! directly" (§3.4).
//!
//! The on-disk cache is modeled by [`DiskCache`], which survives proxy
//! crashes in the simulation (a crash stops message processing but does not
//! clear state), so the availability property is directly testable.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::ods;
use simnet::{Actor, Ctx, Message, NodeId, SimDuration};

use crate::metrics::PROXY_UPDATES;
use crate::metrics::{
    hops, LEASE_FALLS_BACK, PROPAGATION_S, PROXY_FAILOVERS, PROXY_FAILOVER_EXHAUSTED,
};
use crate::types::{control_wire, NotifyFrame, Write, ZeusMsg, Zxid};

// Healthcheck timers are tagged with a generation counter so a stale timer
// chain from before a crash cannot race the one armed by `on_recover`.

/// The proxy's persistent on-disk cache: `path → last seen write`.
#[derive(Debug, Clone, Default)]
pub struct DiskCache {
    entries: BTreeMap<String, Write>,
}

impl DiskCache {
    /// Reads a cached config.
    pub fn get(&self, path: &str) -> Option<&Write> {
        self.entries.get(path)
    }

    /// Stores a config if newer than what is cached. Returns whether the
    /// cache changed.
    pub fn put(&mut self, write: Write) -> bool {
        // Steady state is an in-place overwrite of a known path: one map
        // traversal and no key clone (this runs once per notify landing,
        // fleet-wide).
        match self.entries.get_mut(&write.path) {
            Some(existing) if existing.zxid >= write.zxid => false,
            Some(existing) => {
                *existing = write;
                true
            }
            None => {
                self.entries.insert(write.path.clone(), write);
                true
            }
        }
    }

    /// Number of cached configs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached version for `path`, or zero.
    pub fn version(&self, path: &str) -> Zxid {
        self.entries.get(path).map(|w| w.zxid).unwrap_or(Zxid::ZERO)
    }

    /// Iterates over all cached writes (for invariant checking).
    pub fn entries(&self) -> impl Iterator<Item = &Write> {
        self.entries.values()
    }

    /// Fault-seeding hook: flips the cached bytes for `path` while keeping
    /// the zxid. This is the drift class the subscription protocol can
    /// never repair on its own — anti-entropy re-subscribes with the cached
    /// version, the observer sees nothing newer, and the corruption sits
    /// there forever. Only the audit's byte-level fingerprint catches it.
    /// Returns whether an entry existed to corrupt.
    pub fn seed_corruption(&mut self, path: &str, data: Bytes) -> bool {
        match self.entries.get_mut(path) {
            Some(w) => {
                w.data = data;
                true
            }
            None => false,
        }
    }

    /// Fault-seeding hook: drops the entry for `path` entirely (a lost or
    /// truncated cache file). Returns whether an entry existed.
    pub fn seed_missing(&mut self, path: &str) -> bool {
        self.entries.remove(path).is_some()
    }

    /// Fault-seeding hook: force-installs `write` even if older than the
    /// cached entry, bypassing the newest-wins rule of [`DiskCache::put`]
    /// (models a cache rolled back to stale bytes by a bad restore).
    pub fn seed_stale(&mut self, write: Write) {
        self.entries.insert(write.path.clone(), write);
    }
}

/// Local commands posted to a proxy by the application/driver layer.
#[derive(Debug, Clone)]
pub enum ProxyCmd {
    /// Subscribe to a config path on behalf of a local application.
    Subscribe {
        /// The config path.
        path: String,
    },
    /// Discard the cached entry for `path` and re-fetch from scratch.
    ///
    /// The repair verb of the drift audit: a corrupted entry still carries
    /// the *current* zxid, so the regular anti-entropy re-subscribe
    /// (`Subscribe { have: cached }`) gets no reply — the observer only
    /// answers with newer versions. Resync drops the poisoned entry and
    /// subscribes with `have = 0`, forcing a full re-send of canonical
    /// bytes.
    Resync {
        /// The config path to re-fetch.
        path: String,
    },
}

/// The per-server proxy actor.
pub struct ProxyActor {
    cluster_observers: Vec<NodeId>,
    current: Option<NodeId>,
    cache: DiskCache,
    // Ordered so `resubscribe` sends in a stable order — hash-order
    // iteration would break deterministic seeded replay.
    subscriptions: BTreeSet<String>,
    pong_seen: bool,
    /// Base healthcheck period (the interval while the connection is
    /// healthy, and the starting point for backoff).
    healthcheck: SimDuration,
    /// Current healthcheck delay: grows by decorrelated jitter on every
    /// failed check up to `max_backoff`, resets to `healthcheck` on a
    /// successful pong.
    backoff: SimDuration,
    max_backoff: SimDuration,
    timer_gen: u64,
    /// Name under which propagation latency samples are recorded.
    latency_metric: &'static str,
    /// Pre-resolved `(latency series, proxy-updates counter)` symbols,
    /// cached on first apply so the per-landing hot path skips the metric
    /// name hashes.
    hot_syms: Option<(simnet::intern::Sym, simnet::intern::Sym)>,
    /// The lease epoch granted by the current observer's `LeaseAck`
    /// (0 = establishment in flight or not started).
    lease_epoch: u64,
    /// Notify frames received from the current observer under this lease.
    /// Compared against the observer's send counter at every ping — the
    /// loss detector that replaces the per-check re-subscribe.
    frames_received: u64,
    /// Healthy checks since the last lease renewal.
    checks_since_renew: u32,
    /// Renew the lease every this many healthy checks (the TTL the
    /// observer grants spans several missed renewals).
    renew_every: u32,
    /// The fresh epoch of an in-flight repair (0 = none): `RepairBatch`
    /// chunks arrive before the `LeaseAck` that activates their epoch, so
    /// they are counted here until the ack adopts the count.
    repair_epoch: u64,
    /// Repair chunks received under `repair_epoch`.
    repair_frames: u64,
}

impl ProxyActor {
    /// Creates a proxy that will pick among `cluster_observers` and
    /// immediately subscribe to `subscriptions`.
    pub fn new(cluster_observers: Vec<NodeId>, subscriptions: Vec<String>) -> ProxyActor {
        ProxyActor {
            cluster_observers,
            current: None,
            cache: DiskCache::default(),
            subscriptions: subscriptions.into_iter().collect(),
            pong_seen: true,
            healthcheck: SimDuration::from_millis(500),
            backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(8),
            timer_gen: 0,
            latency_metric: PROPAGATION_S,
            hot_syms: None,
            lease_epoch: 0,
            frames_received: 0,
            checks_since_renew: 0,
            renew_every: 4,
            repair_epoch: 0,
            repair_frames: 0,
        }
    }

    /// Overrides the metric name used for propagation latency samples.
    pub fn with_latency_metric(mut self, name: &'static str) -> ProxyActor {
        self.latency_metric = name;
        self
    }

    /// The current lease epoch (0 = none). Exposed for tests.
    pub fn lease_epoch(&self) -> u64 {
        self.lease_epoch
    }

    /// The on-disk cache — readable even while the proxy is crashed, which
    /// is exactly the paper's availability fallback.
    pub fn disk_cache(&self) -> &DiskCache {
        &self.cache
    }

    /// Mutable cache access for fault seeding (audit experiments corrupt,
    /// drop, or roll back entries through the `seed_*` hooks).
    pub fn disk_cache_mut(&mut self) -> &mut DiskCache {
        &mut self.cache
    }

    /// Reads a config as the application client library would: through the
    /// proxy's cache.
    pub fn read(&self, path: &str) -> Option<&Write> {
        self.cache.get(path)
    }

    /// The observer this proxy is currently connected to.
    pub fn connected_observer(&self) -> Option<NodeId> {
        self.current
    }

    /// The paths this proxy subscribes to (the audit only fingerprints
    /// entries the proxy is supposed to hold).
    pub fn subscriptions(&self) -> impl Iterator<Item = &str> {
        self.subscriptions.iter().map(String::as_str)
    }

    /// The delay before the next healthcheck (grows under repeated
    /// failures). Exposed for tests.
    pub fn current_backoff(&self) -> SimDuration {
        self.backoff
    }

    fn pick_observer(&mut self, ctx: &mut Ctx<'_>) {
        let previous = self.current;
        let choices: Vec<NodeId> = self
            .cluster_observers
            .iter()
            .copied()
            .filter(|o| Some(*o) != previous)
            .collect();
        match choices.choose(ctx.rng()).copied() {
            Some(obs) => self.current = Some(obs),
            None => {
                // No alternative observer exists. Keep (re)trying the only
                // one we have — the backoff timer keeps the retry rate
                // bounded — but make the exhaustion observable instead of
                // silently pretending we failed over.
                ctx.metrics().incr(PROXY_FAILOVER_EXHAUSTED, 1);
                self.current = previous.or_else(|| self.cluster_observers.first().copied());
            }
        }
        self.establish_lease(ctx);
    }

    /// (Re)establishes the watch lease with the current observer: one
    /// `LeaseRenew { epoch: 0 }` followed by the full `Subscribe` set on
    /// the same link. In-order delivery makes the observer create the
    /// fresh lease (counters zeroed on both ends) *before* registering the
    /// watches, so every notify reply is counted by both sides — the
    /// counter pair starts exactly synchronized, no handshake round trip
    /// needed.
    fn establish_lease(&mut self, ctx: &mut Ctx<'_>) {
        let Some(obs) = self.current else { return };
        self.lease_epoch = 0;
        self.frames_received = 0;
        self.checks_since_renew = 0;
        self.repair_epoch = 0;
        self.repair_frames = 0;
        ctx.send_value(
            obs,
            control_wire::RENEW,
            ZeusMsg::LeaseRenew {
                epoch: 0,
                frames_received: 0,
            },
        );
        self.resubscribe(ctx);
    }

    /// Counts one received notify frame under the lease. Frames arriving
    /// before the lease is acked, or from an observer other than the
    /// current one (in flight across a failover), are applied but not
    /// counted — the sender did not count them against this lease either.
    fn note_frame(&mut self, from: NodeId) {
        if self.lease_epoch != 0 && Some(from) == self.current {
            self.frames_received += 1;
        }
    }

    /// (Re)sends every subscription with the cached versions. The observer
    /// replies only where it has something newer, so re-establishing a
    /// lease also repairs anything lost while the old one was broken.
    fn resubscribe(&mut self, ctx: &mut Ctx<'_>) {
        let Some(obs) = self.current else { return };
        for path in self.subscriptions.clone() {
            let have = self.cache.version(&path);
            ctx.send_value(
                obs,
                (path.len() + 64) as u64,
                ZeusMsg::Subscribe { path, have },
            );
        }
    }

    /// Lands one notified write in the on-disk cache: latency sample, final
    /// trace hop. Shared by `Notify` and `NotifyBatch` deliveries.
    fn apply_notify(&mut self, ctx: &mut Ctx<'_>, write: Write) {
        let origin = write.origin;
        let trace = write.trace;
        let zxid = write.zxid;
        if self.cache.put(write) {
            let latency = (ctx.now() - origin).as_secs_f64();
            let (lat_sym, upd_sym) = match self.hot_syms {
                Some(syms) => syms,
                None => {
                    let m = ctx.metrics();
                    let syms = (
                        m.series_sym(self.latency_metric),
                        m.counter_sym(PROXY_UPDATES),
                    );
                    self.hot_syms = Some(syms);
                    syms
                }
            };
            ctx.metrics().sample_sym(lat_sym, latency);
            ctx.metrics().incr_sym(upd_sym, 1);
            ctx.ods_sample(ods::tiers::PROXY, ods::series::PROPAGATION_S, latency);
            // The final hop: the config is now visible to the application
            // through the on-disk cache. Guarded by `put` (and the
            // per-node dedup), so duplicate notifies never double-count
            // client applies.
            if let Some(t) = trace {
                ctx.trace_hop(
                    t,
                    hops::PROXY_APPLY,
                    vec![
                        ("zxid", zxid.to_string()),
                        ("latency_s", format!("{latency:.6}")),
                    ],
                );
            }
        }
    }
}

impl Actor for ProxyActor {
    fn kind(&self) -> &'static str {
        "zeus.proxy"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pick_observer(ctx);
        ctx.set_timer(self.backoff, self.timer_gen);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match msg.downcast::<ProxyCmd>() {
            Ok(cmd) => {
                match *cmd {
                    ProxyCmd::Subscribe { path } => {
                        self.subscriptions.insert(path.clone());
                        if let Some(obs) = self.current {
                            let have = self.cache.version(&path);
                            ctx.send_value(
                                obs,
                                (path.len() + 64) as u64,
                                ZeusMsg::Subscribe { path, have },
                            );
                        }
                    }
                    ProxyCmd::Resync { path } => {
                        self.cache.seed_missing(&path);
                        self.subscriptions.insert(path.clone());
                        ctx.metrics().incr(crate::metrics::PROXY_RESYNCS, 1);
                        if let Some(obs) = self.current {
                            ctx.send_value(
                                obs,
                                (path.len() + 64) as u64,
                                ZeusMsg::Subscribe {
                                    path,
                                    have: Zxid::ZERO,
                                },
                            );
                        }
                    }
                }
                return;
            }
            Err(original) => original,
        };
        // Shared multicast frame: the payload is one Arc-shared allocation
        // across every receiver of the fan-out; writes are cloned only
        // here, at the moment they land in this proxy's own cache.
        let msg = match msg.downcast::<Arc<NotifyFrame>>() {
            Ok(frame) => {
                self.note_frame(from);
                for write in &frame.writes {
                    self.apply_notify(ctx, write.clone());
                }
                return;
            }
            Err(original) => original,
        };
        if let Ok(msg) = msg.downcast::<ZeusMsg>() {
            match *msg {
                ZeusMsg::Notify { write } => {
                    self.note_frame(from);
                    self.apply_notify(ctx, write);
                }
                ZeusMsg::NotifyBatch { writes } => {
                    // One coalesced frame per observer apply; each carried
                    // write lands in the cache (and samples latency)
                    // individually.
                    self.note_frame(from);
                    for write in writes {
                        self.apply_notify(ctx, write);
                    }
                }
                ZeusMsg::ProxyPong { lease_ok } => {
                    // Replies from an observer we already failed away from
                    // prove nothing about the current connection.
                    if Some(from) != self.current {
                        return;
                    }
                    self.pong_seen = true;
                    if !lease_ok && self.lease_epoch != 0 {
                        // Fenced (observer restarted) or unknown: fall back
                        // to the full anti-entropy re-subscribe.
                        ctx.metrics().incr(LEASE_FALLS_BACK, 1);
                        self.establish_lease(ctx);
                    }
                }
                ZeusMsg::RepairBatch { epoch, writes } => {
                    // Loss-repair chunk under a freshly granted epoch (its
                    // activating ack follows on the link). Counted per
                    // epoch so the ack can adopt exactly what arrived.
                    if Some(from) == self.current {
                        if self.repair_epoch != epoch {
                            self.repair_epoch = epoch;
                            self.repair_frames = 0;
                        }
                        self.repair_frames += 1;
                    }
                    for write in writes {
                        self.apply_notify(ctx, write);
                    }
                }
                ZeusMsg::LeaseAck {
                    epoch,
                    frames_sent: _,
                    repaired,
                    paths,
                } => {
                    if Some(from) != self.current {
                        return;
                    }
                    self.pong_seen = true;
                    if repaired {
                        // A repair granted a fresh lease. The counter
                        // restarts at our RECEIPT count of the repair
                        // chunks, not the observer's send count: a dropped
                        // chunk leaves us short, the next ping shows the
                        // shortfall, and the observer repairs again — loss
                        // cannot hide behind the ack.
                        self.lease_epoch = epoch;
                        self.frames_received = if self.repair_epoch == epoch {
                            self.repair_frames
                        } else {
                            0
                        };
                        self.repair_epoch = 0;
                        self.repair_frames = 0;
                    } else if self.lease_epoch == 0 {
                        // Establishment granted; counters are already
                        // zeroed on both ends. `paths` is 0 here (the
                        // Subscribes are still behind this ack) — the
                        // first renewal ack audits the watch set instead.
                        self.lease_epoch = epoch;
                        return;
                    }
                    if paths != self.subscriptions.len() as u64 {
                        // An establishment Subscribe was dropped: the
                        // observer watches fewer paths than we subscribe
                        // to, and no counter can ever show it (unwatched
                        // paths send no frames). Re-establish with the
                        // full set.
                        ctx.metrics().incr(LEASE_FALLS_BACK, 1);
                        self.establish_lease(ctx);
                    }
                }
                ZeusMsg::LeaseNack { .. } => {
                    if Some(from) != self.current {
                        return;
                    }
                    self.pong_seen = true;
                    ctx.metrics().incr(LEASE_FALLS_BACK, 1);
                    self.establish_lease(ctx);
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != self.timer_gen {
            return;
        }
        if !self.pong_seen {
            // Observer is unresponsive: reconnect to another one and
            // re-subscribe with the cached versions. Back off with
            // decorrelated jitter — `sleep = min(cap, uniform(base, 3 *
            // prev))` — so a cluster-wide observer outage does not turn
            // every proxy into a synchronized retry storm against whatever
            // recovers first: plain doubling keeps the fleet phase-locked,
            // while the jittered draw spreads reconnects across the window.
            ctx.metrics().incr(PROXY_FAILOVERS, 1);
            ctx.ods_counter(ods::tiers::PROXY, ods::series::RECONNECTS, 1.0);
            self.pick_observer(ctx);
            let base = self.healthcheck.as_micros();
            let hi = self
                .backoff
                .as_micros()
                .saturating_mul(3)
                .min(self.max_backoff.as_micros())
                .max(base);
            self.backoff = SimDuration::from_micros(ctx.rng().gen_range(base..=hi));
        } else {
            self.backoff = self.healthcheck;
            if self.lease_epoch == 0 {
                // Establishment ack lost (or still unanswered): retry at
                // healthcheck cadence, re-sending the subscribe set with
                // the renewal until the lease is granted.
                self.establish_lease(ctx);
            } else {
                self.checks_since_renew += 1;
                if self.checks_since_renew >= self.renew_every {
                    self.checks_since_renew = 0;
                    // ONE 32-byte renewal covering every watched path.
                    // Loss detection does not wait for this: every ping
                    // carries the frame counters.
                    if let Some(obs) = self.current {
                        ctx.send_value(
                            obs,
                            control_wire::RENEW,
                            ZeusMsg::LeaseRenew {
                                epoch: self.lease_epoch,
                                frames_received: self.frames_received,
                            },
                        );
                    }
                }
            }
        }
        self.pong_seen = false;
        if let Some(obs) = self.current {
            // The ping doubles as the loss detector: the observer compares
            // `frames_received` against its settled send counter and
            // repairs any shortfall immediately.
            ctx.send_value(
                obs,
                control_wire::PING,
                ZeusMsg::ProxyPing {
                    epoch: self.lease_epoch,
                    frames_received: self.frames_received,
                },
            );
        }
        ctx.set_timer(self.backoff, self.timer_gen);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        // The disk cache survived the crash; reconnect and resync deltas.
        // A timer armed before the crash could still be in flight, so start
        // a new timer generation and let the old chain die.
        self.timer_gen += 1;
        self.backoff = self.healthcheck;
        self.pong_seen = true;
        self.pick_observer(ctx);
        ctx.set_timer(self.backoff, self.timer_gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simnet::SimTime;

    fn w(counter: u64, path: &str, data: &str) -> Write {
        Write {
            zxid: Zxid { epoch: 1, counter },
            path: path.into(),
            data: Bytes::copy_from_slice(data.as_bytes()),
            origin: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn disk_cache_keeps_newest() {
        let mut c = DiskCache::default();
        assert!(c.put(w(2, "a", "v2")));
        assert!(!c.put(w(1, "a", "v1")), "stale write ignored");
        assert_eq!(&c.get("a").unwrap().data[..], b"v2");
        assert_eq!(
            c.version("a"),
            Zxid {
                epoch: 1,
                counter: 2
            }
        );
        assert_eq!(c.version("missing"), Zxid::ZERO);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_put_is_idempotent() {
        let mut c = DiskCache::default();
        assert!(c.put(w(1, "a", "v")));
        assert!(!c.put(w(1, "a", "v")));
    }
}
