//! The server-side communication plane: per-client payload caching and
//! delta-encoded downloads.
//!
//! Every dispatch used to ship the full (sub)model both ways. But the
//! server knows exactly which global version each client last
//! materialized — the async scheduler literally tracks it — so a client
//! whose cached version is still retained server-side only needs the
//! **delta** since that version. This module is the bookkeeping:
//!
//! * a **cache table** (one entry per client): the model version and
//!   payload shape the client last materialized. Entries are written at
//!   dispatch and invalidated when a dispatch is lost (sync dropout,
//!   async timeout) — the server can no longer trust what the client
//!   holds, so the next download is full;
//! * bounded **snapshot retention**: the last
//!   [`CommConfig::snapshot_retention`] server states, kept so the server
//!   can materialize the payload a client cached and diff it against
//!   today's ([`fp_nn::param_diff`]). A cache entry whose snapshot was
//!   evicted downgrades to a full download;
//! * the per-dispatch **payload decision** ([`CommPlane::plan`]): delta
//!   only when the cache is warm, the shape fingerprint matches, the
//!   snapshot survives, and the delta is strictly smaller than the whole
//!   payload — otherwise exactly the full/window payload the schedulers
//!   always shipped (bit-identical costs with caching disabled).
//!
//! The plane is part of both schedulers' checkpoints (serialized under a
//! `"comm"` key only when caching is enabled, so pre-refactor checkpoint
//! JSON round-trips byte-identically), which is what keeps delta-enabled
//! runs resumable bit-for-bit.

use fp_hwsim::{Payload, PayloadSpec};
use serde::{Deserialize, Serialize};

/// Communication-plane policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Enables delta-encoded downloads against per-client cached
    /// versions. Off by default: every dispatch ships the whole
    /// (sub)model, reproducing the historical transfer costs bit-for-bit.
    pub delta_downloads: bool,
    /// How many past server-state snapshots the server retains for
    /// diffing. Dispatches against versions older than this window
    /// downgrade to full payloads.
    pub snapshot_retention: usize,
    /// Upper bound on resident cache rows (`0` = unbounded). Rows are
    /// allocated on first dispatch and evicted least-recently-dispatched
    /// first, so a bounded plane keeps memory O(bound) even on a
    /// 10⁶-client fleet; an evicted client simply downgrades to a full
    /// download on its next dispatch.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub cache_rows: usize,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            delta_downloads: false,
            snapshot_retention: 4,
            cache_rows: 0,
        }
    }
}

impl CommConfig {
    /// Delta downloads with the default retention window.
    pub fn delta() -> Self {
        CommConfig {
            delta_downloads: true,
            ..CommConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if delta downloads are enabled with zero retention.
    pub fn validate(&self) {
        if self.delta_downloads {
            assert!(
                self.snapshot_retention >= 1,
                "snapshot_retention must be >= 1 when delta_downloads is on"
            );
        }
    }
}

/// What the server believes a client last materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The model version the client holds.
    pub version: usize,
    /// Shape fingerprint of the payload it holds (deltas require a
    /// matching shape).
    pub shape_id: u64,
}

/// The live communication plane of one scheduled run.
#[derive(Debug, Clone)]
pub struct CommPlane<S> {
    /// Policy.
    pub cfg: CommConfig,
    /// Sparse cache: client id → (what it last materialized, dispatch
    /// touch stamp). Rows exist only for clients that have actually been
    /// dispatched — cold and invalidated clients simply have no row —
    /// and when [`CommConfig::cache_rows`] bounds the table the
    /// smallest-stamp row is evicted first (LRU on dispatch order).
    cache: std::collections::HashMap<usize, (CacheEntry, u64)>,
    /// Monotonic dispatch counter backing the LRU stamps.
    touch: u64,
    /// Retained `(version, state)` snapshots, ascending by version.
    snapshots: Vec<(usize, S)>,
    /// Transient memo of delta wire sizes for the *current* state,
    /// keyed by `(shape_id, since_version)` — equal fingerprints
    /// materialize identical payload vectors, so a cohort of clients
    /// caching the same version diffs once, not once per client.
    /// Cleared whenever a new version is noted; never serialized.
    delta_memo: std::collections::HashMap<(u64, usize), u64>,
}

impl<S> CommPlane<S> {
    /// A fresh plane for a fleet of `n_clients`, every cache cold.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: CommConfig, n_clients: usize) -> Self {
        cfg.validate();
        let _ = n_clients; // rows are allocated on first dispatch
        CommPlane {
            cfg,
            cache: std::collections::HashMap::new(),
            touch: 0,
            snapshots: Vec::new(),
            delta_memo: std::collections::HashMap::new(),
        }
    }

    /// A disabled plane (full payloads forever, no snapshots kept).
    pub fn disabled(n_clients: usize) -> Self {
        CommPlane::new(
            CommConfig {
                delta_downloads: false,
                ..CommConfig::default()
            },
            n_clients,
        )
    }

    /// Whether delta downloads are active.
    pub fn enabled(&self) -> bool {
        self.cfg.delta_downloads
    }

    /// The cache entry of client `k`.
    pub fn cache_entry(&self, k: usize) -> Option<CacheEntry> {
        self.cache.get(&k).map(|(e, _)| *e)
    }

    /// How many cache rows are currently resident — O(clients actually
    /// dispatched), and at most [`CommConfig::cache_rows`] when bounded.
    pub fn resident_rows(&self) -> usize {
        self.cache.len()
    }

    /// Records a server-state snapshot for `version` (no-op when caching
    /// is disabled or the version is already stored), evicting the oldest
    /// snapshots beyond the retention window.
    pub fn note_version(&mut self, version: usize, state: &S)
    where
        S: Clone,
    {
        if !self.enabled() || self.snapshots.iter().any(|(v, _)| *v == version) {
            return;
        }
        // The live state is about to change; memoized diffs against it
        // are stale.
        self.delta_memo.clear();
        self.snapshots.push((version, state.clone()));
        let excess = self
            .snapshots
            .len()
            .saturating_sub(self.cfg.snapshot_retention);
        if excess > 0 {
            self.snapshots.drain(..excess);
        }
    }

    /// Chooses the payload for dispatching client `k` at `version` with
    /// the naive payload `spec`. `current` materializes the payload's
    /// parameters from the live state; `cached` materializes them from a
    /// retained snapshot. Both are only invoked when a delta is actually
    /// possible (warm same-shape cache with a surviving snapshot) and not
    /// already memoized for `(shape, cached version)` — equal
    /// fingerprints materialize identical vectors, so a cohort sharing a
    /// cached version diffs once. A delta is only chosen when strictly
    /// smaller than the whole payload.
    pub fn plan(
        &mut self,
        k: usize,
        version: usize,
        spec: &PayloadSpec,
        current: impl FnOnce() -> Vec<f32>,
        cached: impl FnOnce(&S) -> Vec<f32>,
    ) -> Payload {
        if !self.enabled() {
            return spec.materialize();
        }
        let Some(entry) = self.cache_entry(k) else {
            return spec.materialize();
        };
        if entry.shape_id != spec.shape_id || entry.version >= version {
            return spec.materialize();
        }
        let wire = match self.delta_memo.get(&(spec.shape_id, entry.version)) {
            Some(&wire) => wire,
            None => {
                let Some((_, snapshot)) = self.snapshots.iter().find(|(v, _)| *v == entry.version)
                else {
                    // Evicted snapshot: the diff is no longer computable.
                    return spec.materialize();
                };
                let old = cached(snapshot);
                let new = current();
                if old.len() != new.len() {
                    // Same fingerprint but different arity would be a
                    // trainer bug; fail safe with a full payload in
                    // release builds.
                    debug_assert_eq!(
                        old.len(),
                        new.len(),
                        "shape id {:#x} arity drift",
                        spec.shape_id
                    );
                    return spec.materialize();
                }
                let wire = fp_nn::param_diff(&old, &new).wire_bytes();
                self.delta_memo.insert((spec.shape_id, entry.version), wire);
                wire
            }
        };
        if wire < spec.bytes {
            Payload::delta(entry.version, wire, spec.bytes)
        } else {
            spec.materialize()
        }
    }

    /// Marks client `k` as having materialized `(version, shape_id)` —
    /// called for every dispatch that reaches the client. Allocates the
    /// client's row on first dispatch and, when the table is bounded,
    /// evicts the least-recently-dispatched row to make room.
    pub fn record_dispatch(&mut self, k: usize, version: usize, shape_id: u64) {
        if !self.enabled() {
            return;
        }
        let stamp = self.touch;
        self.touch += 1;
        self.cache
            .insert(k, (CacheEntry { version, shape_id }, stamp));
        if self.cfg.cache_rows > 0 && self.cache.len() > self.cfg.cache_rows {
            // Stamps are unique, so the victim is deterministic.
            let victim = *self
                .cache
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k)
                .expect("non-empty cache");
            self.cache.remove(&victim);
        }
    }

    /// Invalidates client `k`'s cache entry (lost dispatch: the server no
    /// longer trusts what the client holds).
    pub fn invalidate(&mut self, k: usize) {
        self.cache.remove(&k);
    }

    /// The serializable snapshot of this plane (`None` when caching is
    /// disabled — checkpoints then omit the `"comm"` key entirely, which
    /// keeps pre-refactor checkpoint JSON byte-identical).
    pub fn to_state(&self) -> Option<CommState<S>>
    where
        S: Clone,
    {
        self.enabled().then(|| {
            let mut rows: Vec<(usize, CacheEntry, u64)> =
                self.cache.iter().map(|(&k, &(e, t))| (k, e, t)).collect();
            rows.sort_unstable_by_key(|&(k, _, _)| k);
            CommState {
                cfg: self.cfg,
                cache: rows,
                touch: self.touch,
                snapshots: self.snapshots.clone(),
            }
        })
    }

    /// Rebuilds a plane from checkpoint state (disabled when `None`).
    ///
    /// # Panics
    ///
    /// Panics if the stored cache table names clients outside the fleet.
    pub fn from_state(state: Option<&CommState<S>>, n_clients: usize) -> Self
    where
        S: Clone,
    {
        match state {
            None => CommPlane::disabled(n_clients),
            Some(cs) => {
                assert!(
                    cs.cache.iter().all(|&(k, _, _)| k < n_clients),
                    "comm cache table was taken on a different fleet size"
                );
                CommPlane {
                    cfg: cs.cfg,
                    cache: cs.cache.iter().map(|&(k, e, t)| (k, (e, t))).collect(),
                    touch: cs.touch,
                    snapshots: cs.snapshots.clone(),
                    delta_memo: std::collections::HashMap::new(),
                }
            }
        }
    }
}

/// The checkpointable state of a [`CommPlane`].
#[derive(Debug, Clone, Serialize)]
pub struct CommState<S> {
    /// Policy the run was started with (validated on resume).
    pub cfg: CommConfig,
    /// Resident cache rows `(client, entry, touch stamp)`, ascending by
    /// client id.
    pub cache: Vec<(usize, CacheEntry, u64)>,
    /// The plane's monotonic dispatch counter (drives LRU eviction; must
    /// survive resume for bit-identical eviction decisions).
    pub touch: u64,
    /// Retained `(version, state)` snapshots, ascending by version.
    pub snapshots: Vec<(usize, S)>,
}

// Hand-written: also reads the legacy dense `Vec<Option<CacheEntry>>`
// cache table (and derives the `touch` counter it never stored).
impl<S: Deserialize> Deserialize for CommState<S> {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        const TY: &str = "CommState";
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for CommState"))?;
        let cache_v = serde::map_field(m, "cache", TY)?;
        // Pre-hierarchy checkpoints stored a dense `Vec<Option<CacheEntry>>`
        // indexed by client id; map it onto sparse rows with stamps in
        // client order (the only order the dense form can express).
        let cache = match Vec::<(usize, CacheEntry, u64)>::deserialize(cache_v) {
            Ok(rows) => rows,
            Err(_) => {
                let dense = Vec::<Option<CacheEntry>>::deserialize(cache_v)?;
                dense
                    .into_iter()
                    .enumerate()
                    .filter_map(|(k, e)| e.map(|e| (k, e)))
                    .enumerate()
                    .map(|(stamp, (k, e))| (k, e, stamp as u64))
                    .collect()
            }
        };
        let touch = match serde::map_get(m, "touch") {
            Some(t) => Deserialize::deserialize(t)?,
            None => cache.iter().map(|&(_, _, t)| t + 1).max().unwrap_or(0),
        };
        Ok(CommState {
            cfg: Deserialize::deserialize(serde::map_field(m, "cfg", TY)?)?,
            cache,
            touch,
            snapshots: Deserialize::deserialize(serde::map_field(m, "snapshots", TY)?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_hwsim::PayloadKind;

    /// A toy "server state": the payload params are the state itself.
    type Vecs = Vec<f32>;

    fn spec() -> PayloadSpec {
        // 4 params → 16 B full payload.
        PayloadSpec::full(16)
    }

    fn plane(retention: usize) -> CommPlane<Vecs> {
        CommPlane::new(
            CommConfig {
                delta_downloads: true,
                snapshot_retention: retention,
                cache_rows: 0,
            },
            2,
        )
    }

    #[test]
    fn disabled_plane_always_ships_full() {
        let mut p: CommPlane<Vecs> = CommPlane::disabled(2);
        p.note_version(0, &vec![0.0; 4]);
        p.record_dispatch(0, 0, 0);
        // record_dispatch is a no-op when disabled; plan never diffs.
        assert_eq!(p.cache_entry(0), None);
        let got = p.plan(0, 1, &spec(), || unreachable!(), |_| unreachable!());
        assert_eq!(got, Payload::full(16));
        assert!(p.to_state().is_none());
    }

    #[test]
    fn cold_cache_ships_full_then_delta() {
        let mut p = plane(4);
        let v0 = vec![1.0f32, 2.0, 3.0, 4.0];
        p.note_version(0, &v0);
        let got = p.plan(0, 0, &spec(), || v0.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Full);
        p.record_dispatch(0, 0, 0);

        // One param changed between v0 and v1: delta = 1 B bitmap + 1 B
        // tag + 4 significant XOR bytes (3.0 → 9.0 moves the exponent)
        // = 6 B < 16 B full.
        let v1 = vec![1.0f32, 2.0, 9.0, 4.0];
        p.note_version(1, &v1);
        let got = p.plan(0, 1, &spec(), || v1.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Delta { since_version: 0 });
        assert_eq!(got.down_bytes, 6);
        assert_eq!(got.up_bytes, 16);

        // The other client is still cold.
        let got = p.plan(1, 1, &spec(), || v1.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Full);
    }

    #[test]
    fn dense_delta_falls_back_to_full() {
        let mut p = plane(4);
        let v0 = vec![1.0f32, 2.0, 3.0, 4.0];
        p.note_version(0, &v0);
        p.record_dispatch(0, 0, 0);
        // Every param changed by a full exponent step: delta = 1 B
        // bitmap + 1 B tags + 4 × 4 XOR bytes = 18 B > 16 B full.
        let v1 = vec![5.0f32, 6.0, 7.0, 8.0];
        p.note_version(1, &v1);
        let got = p.plan(0, 1, &spec(), || v1.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Full);
        assert_eq!(got.down_bytes, 16);
    }

    #[test]
    fn shape_change_and_invalidation_force_full() {
        let mut p = plane(4);
        let v0 = vec![0.0f32; 4];
        p.note_version(0, &v0);
        p.record_dispatch(0, 0, 7);
        p.note_version(1, &v0);
        // Cached shape 7, dispatch shape 9 → full window.
        let w = PayloadSpec::window(16, 9);
        let got = p.plan(0, 1, &w, || v0.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Window);
        // Same shape would delta (zero-length diff), but invalidation
        // cools the cache.
        p.invalidate(0);
        let same = PayloadSpec::window(16, 7);
        let got = p.plan(0, 1, &same, || v0.clone(), |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Window);
    }

    #[test]
    fn evicted_snapshot_forces_full() {
        let mut p = plane(2);
        p.note_version(0, &vec![0.0f32; 4]);
        p.record_dispatch(0, 0, 0);
        // Retention 2: versions 1 and 2 evict version 0.
        p.note_version(1, &vec![1.0f32; 4]);
        p.note_version(2, &vec![2.0f32; 4]);
        let got = p.plan(0, 2, &spec(), || vec![2.0f32; 4], |s| s.clone());
        assert_eq!(got.kind, PayloadKind::Full);
    }

    #[test]
    fn state_roundtrips_through_serde() {
        let mut p = plane(4);
        p.note_version(0, &vec![1.0f32, 2.0]);
        p.record_dispatch(1, 0, 3);
        let state = p.to_state().expect("enabled plane snapshots");
        let json = serde_json::to_string(&state).unwrap();
        let back: CommState<Vecs> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cfg, p.cfg);
        assert_eq!(
            back.cache,
            vec![(
                1,
                CacheEntry {
                    version: 0,
                    shape_id: 3
                },
                0
            )]
        );
        assert_eq!(back.touch, 1);
        assert_eq!(back.snapshots, vec![(0, vec![1.0f32, 2.0])]);
        let restored = CommPlane::from_state(Some(&back), 2);
        assert_eq!(restored.cache_entry(1), p.cache_entry(1));
        assert_eq!(restored.touch, p.touch);
    }

    #[test]
    fn dense_legacy_cache_still_loads() {
        // The pre-hierarchy checkpoint layout: a dense per-client list.
        let json = r#"{"cfg": {"delta_downloads": true, "snapshot_retention": 4},
                       "cache": [null, {"version": 2, "shape_id": 7}],
                       "snapshots": []}"#;
        let back: CommState<Vecs> = serde_json::from_str(json).unwrap();
        assert_eq!(back.cfg.cache_rows, 0);
        assert_eq!(
            back.cache,
            vec![(
                1,
                CacheEntry {
                    version: 2,
                    shape_id: 7
                },
                0
            )]
        );
        assert_eq!(back.touch, 1);
        let restored = CommPlane::<Vecs>::from_state(Some(&back), 2);
        assert_eq!(
            restored.cache_entry(1),
            Some(CacheEntry {
                version: 2,
                shape_id: 7
            })
        );
    }

    #[test]
    fn bounded_cache_evicts_least_recently_dispatched() {
        let mut p: CommPlane<Vecs> = CommPlane::new(
            CommConfig {
                delta_downloads: true,
                snapshot_retention: 4,
                cache_rows: 2,
            },
            100_000,
        );
        p.record_dispatch(10, 0, 0);
        p.record_dispatch(20, 0, 0);
        assert_eq!(p.resident_rows(), 2);
        // Re-dispatching 10 refreshes its stamp, so 20 is now oldest.
        p.record_dispatch(10, 1, 0);
        p.record_dispatch(30, 1, 0);
        assert_eq!(p.resident_rows(), 2);
        assert!(p.cache_entry(20).is_none(), "LRU row evicted");
        assert!(p.cache_entry(10).is_some());
        assert!(p.cache_entry(30).is_some());
        // Eviction survives serde round-trips bit-identically.
        let state = p.to_state().unwrap();
        let json = serde_json::to_string(&state).unwrap();
        let back: CommState<Vecs> = serde_json::from_str(&json).unwrap();
        let mut restored = CommPlane::from_state(Some(&back), 100_000);
        restored.record_dispatch(40, 2, 0);
        p.record_dispatch(40, 2, 0);
        assert_eq!(restored.cache_entry(10), p.cache_entry(10));
        assert_eq!(restored.cache_entry(30), p.cache_entry(30));
        assert_eq!(restored.resident_rows(), p.resident_rows());
    }

    #[test]
    #[should_panic(expected = "snapshot_retention")]
    fn rejects_delta_without_retention() {
        CommConfig {
            delta_downloads: true,
            snapshot_retention: 0,
            cache_rows: 0,
        }
        .validate();
    }
}
