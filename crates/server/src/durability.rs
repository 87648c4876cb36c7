//! The engine's optional durability layer: WAL-before-publish plus a
//! background checkpointer, on top of [`magik_storage`].
//!
//! # Write path
//!
//! Mutations hold the writer mutex for their whole critical section, so
//! the durability protocol is simple **log-before-apply**: after the
//! no-op check (duplicate assert, absent retract) the op's request text
//! and *post-op* epochs are appended to the WAL (fsynced per policy);
//! only then is the in-memory change applied and published. An append
//! failure leaves memory untouched, returns `err storage …` to the
//! client, and **poisons** the layer — later mutations are refused
//! rather than silently diverging from the log. A panic while the store
//! was held (its lock is then poisoned) poisons the layer the same way.
//! Read requests never touch the layer at all.
//!
//! # Recovery
//!
//! Opening loads the newest valid checkpoint, then applies the WAL tail
//! through `Engine::apply_logged`, as a replica applies shipped records.
//! Replayed ops count in `recovery.replayed_ops`, not as requests.
//!
//! # Checkpointer
//!
//! Every logged op ticks a counter; when it reaches
//! [`DurabilityOptions::checkpoint_every`] the mutation path captures
//! the freshly published snapshot, which carries its vocabulary, and
//! hands it to a one-worker background pool. The worker
//! builds the image from the snapshot, serializes and fsyncs it while
//! the engine keeps serving; it serializes against shutdown's final
//! checkpoint on the store mutex. Old checkpoint generations and fully
//! covered WAL segments are pruned by
//! [`magik_storage::Store::checkpoint`] itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use magik_storage::{Append, FsyncPolicy, StorageError, Store, WalRecord};

/// Configuration for [`crate::Engine::open_durable`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Checkpoint after this many logged ops (0 disables periodic
    /// checkpoints; shutdown still writes a final one).
    pub checkpoint_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
            checkpoint_every: 1024,
        }
    }
}

/// What crash recovery found and replayed when a durable engine opened.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// TCS epoch after recovery.
    pub tcs_epoch: u64,
    /// Data epoch after recovery.
    pub data_epoch: u64,
    /// Whether a checkpoint image was loaded (false = replay from empty).
    pub from_checkpoint: bool,
    /// Mutation ops replayed from the WAL tail.
    pub replayed_ops: u64,
    /// Torn-tail bytes discarded from the final WAL segment.
    pub discarded_bytes: u64,
    /// Corrupt checkpoint generations skipped before a valid one loaded.
    pub checkpoints_skipped: usize,
}

impl RecoveryReport {
    pub(crate) fn of(recovery: &magik_storage::Recovery) -> RecoveryReport {
        let (tcs_epoch, data_epoch) = recovery.final_epochs();
        RecoveryReport {
            tcs_epoch,
            data_epoch,
            from_checkpoint: recovery.checkpoint.is_some(),
            replayed_ops: recovery.replayed_ops(),
            discarded_bytes: recovery.discarded_bytes,
            checkpoints_skipped: recovery.checkpoints_skipped,
        }
    }
}

/// The engine-side durability state. Internal to the crate: the engine
/// drives it from its mutation paths.
#[derive(Debug)]
pub(crate) struct Durability {
    store: Mutex<Store>,
    /// Logged ops since the last checkpoint was scheduled.
    pub(crate) since_checkpoint: AtomicU64,
    /// CAS guard: at most one background checkpoint in flight.
    pub(crate) checkpointing: AtomicBool,
    /// Set when an append failed or the store lock was poisoned; all
    /// further mutations are refused.
    poisoned: AtomicBool,
    /// Checkpoint trigger threshold (0 = never periodic).
    pub(crate) checkpoint_every: u64,
}

impl Durability {
    pub(crate) fn new(store: Store, checkpoint_every: u64) -> Durability {
        Durability {
            store: Mutex::new(store),
            since_checkpoint: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            checkpoint_every,
        }
    }

    /// The store, serialized: appends (under the writer mutex) and
    /// checkpoints (background worker or shutdown) both pass through here.
    /// A panic while the store was held leaves its lock poisoned; that
    /// poisons the layer as a failed append does, so mutations are refused
    /// with `err storage` while reads keep serving.
    pub(crate) fn store(&self) -> Result<MutexGuard<'_, Store>, StorageError> {
        self.store.lock().map_err(|_| {
            self.poisoned.store(true, Ordering::SeqCst);
            StorageError::Io(std::io::Error::other(
                "durability layer poisoned by a panic while the WAL store was held",
            ))
        })
    }

    /// Appends one record under the configured fsync policy. A failure
    /// poisons the layer: the log no longer reflects memory, so further
    /// mutations must be refused.
    pub(crate) fn append(&self, rec: &WalRecord) -> Result<Append, StorageError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(StorageError::Io(std::io::Error::other(
                "durability layer poisoned by an earlier append failure",
            )));
        }
        let result = self.store().and_then(|mut store| store.append(rec));
        if result.is_err() {
            self.poisoned.store(true, Ordering::SeqCst);
        }
        result
    }

    /// Whether an earlier append failure or a panic while the store was
    /// held poisoned the layer.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}
