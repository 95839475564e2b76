//! Generation-counted, atomically swappable serving snapshots.
//!
//! A [`Snapshot`] bundles everything one query needs — the
//! [`EmbeddingStore`], the optional ANN index, and a monotonically
//! increasing generation number — into a single immutable unit behind an
//! `Arc`. The [`SnapshotHandle`] is the swap point: readers take a brief
//! read lock only long enough to clone the `Arc` (no allocation, no copy),
//! then run the whole query against that pinned snapshot, so a query can
//! never observe half of one generation and half of the next. Publishing
//! builds the replacement entirely off to the side and swaps the pointer
//! under a write lock — the pause readers can observe is one pointer
//! assignment, not a rebuild.
//!
//! [`SnapshotUpdate`] is the serializable delta vocabulary (upserts +
//! deletes) shared by the `/v1/admin/reindex` route and the on-disk delta
//! log (one JSON object per line), so a crashed server replays exactly the
//! updates it acknowledged.

use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::hnsw::HnswIndex;
use crate::store::EmbeddingStore;

/// One immutable serving state: store + ANN + generation.
pub struct Snapshot {
    /// The exact-scan store (tombstones included): the one owner of the
    /// generation's rows, norms and tombstone mask.
    pub store: EmbeddingStore,
    /// The ANN index over the store's rows, which it shares, when the
    /// engine was configured with one.
    pub ann: Option<HnswIndex>,
    /// Monotonic generation counter; 0 is the initially loaded state and
    /// every publish increments it by one.
    pub generation: u64,
}

/// The atomically swappable handle readers and the reindex path share.
pub struct SnapshotHandle {
    inner: RwLock<Arc<Snapshot>>,
}

impl SnapshotHandle {
    /// Wraps an initial state as generation 0.
    pub fn new(store: EmbeddingStore, ann: Option<HnswIndex>) -> Self {
        aneci_obs::gauge("serve.snapshot.generation").set(0.0);
        Self {
            inner: RwLock::new(Arc::new(Snapshot {
                store,
                ann,
                generation: 0,
            })),
        }
    }

    /// Pins the current snapshot: one `Arc` clone under a read lock. The
    /// caller holds a consistent view for as long as it keeps the `Arc`,
    /// regardless of how many generations are published meanwhile.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_read(&self.inner))
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        lock_read(&self.inner).generation
    }

    /// Publishes a replacement state as the next generation and returns
    /// its number. In-flight readers keep their pinned snapshot; new loads
    /// see the replacement immediately.
    pub fn publish(&self, store: EmbeddingStore, ann: Option<HnswIndex>) -> u64 {
        let mut slot = self
            .inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let generation = slot.generation + 1;
        *slot = Arc::new(Snapshot {
            store,
            ann,
            generation,
        });
        aneci_obs::gauge("serve.snapshot.generation").set(generation as f64);
        generation
    }
}

fn lock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One vector write in a [`SnapshotUpdate`]: replaces `node`'s vector when
/// the id exists, appends when `node` equals the current node count.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct VectorUpsert {
    /// Target node id. Appends must be contiguous: the first appended node
    /// is exactly `num_nodes()`, the next one `num_nodes() + 1`, and so on.
    pub node: usize,
    /// The new embedding vector (must match the store dimension).
    pub vector: Vec<f64>,
}

/// A batch of embedding mutations applied as one atomic generation bump.
/// Upserts run first (in order), then deletes, so an update that both
/// rewrites and deletes an id deletes it.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct SnapshotUpdate {
    /// Vector replacements and contiguous appends.
    pub upserts: Vec<VectorUpsert>,
    /// Node ids to tombstone.
    pub deletes: Vec<usize>,
}

impl SnapshotUpdate {
    /// An empty update (applying it still bumps the generation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one upsert.
    pub fn upsert(mut self, node: usize, vector: Vec<f64>) -> Self {
        self.upserts.push(VectorUpsert { node, vector });
        self
    }

    /// Adds one delete.
    pub fn delete(mut self, node: usize) -> Self {
        self.deletes.push(node);
        self
    }

    /// Whether the update carries no mutations.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.deletes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::DenseMatrix;

    fn store(n: usize) -> EmbeddingStore {
        EmbeddingStore::new(DenseMatrix::from_fn(n, 2, |r, c| (r * 2 + c) as f64), None)
    }

    #[test]
    fn publish_bumps_generation_and_readers_keep_pins() {
        let handle = SnapshotHandle::new(store(3), None);
        assert_eq!(handle.generation(), 0);
        let pinned = handle.load();
        let g1 = handle.publish(store(4), None);
        assert_eq!(g1, 1);
        assert_eq!(handle.generation(), 1);
        // The pinned snapshot still answers from generation 0.
        assert_eq!(pinned.generation, 0);
        assert_eq!(pinned.store.num_nodes(), 3);
        assert_eq!(handle.load().store.num_nodes(), 4);
    }

    #[test]
    fn update_round_trips_through_json() {
        let u = SnapshotUpdate::new()
            .upsert(2, vec![0.5, -1.0])
            .upsert(10, vec![1.0, 2.0])
            .delete(7);
        let line = serde_json::to_string(&u).unwrap();
        let back: SnapshotUpdate = serde_json::from_str(&line).unwrap();
        assert_eq!(back, u);
        assert!(!u.is_empty());
        assert!(SnapshotUpdate::new().is_empty());
    }
}
