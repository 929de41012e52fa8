//! A functional software model of Intel Memory Protection Keys.
//!
//! Real MPK tags each page with one of 16 protection keys and filters every
//! access through the per-thread PKRU register. Chiron uses MPK to give
//! each function thread a private arena inside the shared address space
//! (§4). This module reproduces those semantics in safe Rust: arenas are
//! tagged with a [`ProtectionKey`], and every access is checked against the
//! calling thread's PKRU-style permission mask. It backs the `-M` system
//! variants' correctness tests and the memory-isolation example.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One of the 16 hardware protection keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProtectionKey(u8);

impl ProtectionKey {
    const MAX_KEYS: u8 = 16;

    pub fn new(key: u8) -> Option<Self> {
        (key < Self::MAX_KEYS).then_some(ProtectionKey(key))
    }

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-thread access rights to one key, mirroring PKRU's two bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    None,
    ReadOnly,
    ReadWrite,
}

impl Access {
    fn allows_read(self) -> bool {
        !matches!(self, Access::None)
    }

    fn allows_write(self) -> bool {
        matches!(self, Access::ReadWrite)
    }
}

/// Identifier of a function thread within a wrap.
pub type ThreadId = u32;

/// Access violations raised by the checked arena operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpkViolation {
    /// The thread's PKRU mask denies reading pages with this key.
    ReadDenied { thread: ThreadId, key: u8 },
    /// The thread's PKRU mask denies writing pages with this key.
    WriteDenied { thread: ThreadId, key: u8 },
    /// Access beyond the arena's allocation.
    OutOfBounds { offset: usize, len: usize },
    /// All 16 keys are already allocated.
    KeysExhausted,
}

impl std::fmt::Display for MpkViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpkViolation::ReadDenied { thread, key } => {
                write!(f, "thread {thread} may not read key-{key} pages")
            }
            MpkViolation::WriteDenied { thread, key } => {
                write!(f, "thread {thread} may not write key-{key} pages")
            }
            MpkViolation::OutOfBounds { offset, len } => {
                write!(f, "access at {offset} beyond arena of {len} bytes")
            }
            MpkViolation::KeysExhausted => write!(f, "no free protection keys"),
        }
    }
}

impl std::error::Error for MpkViolation {}

#[derive(Debug)]
struct Arena {
    key: ProtectionKey,
    data: Vec<u8>,
}

/// A shared address space partitioned into key-tagged arenas.
///
/// This mirrors the `mpk-memalloc-module` Chiron bundles into its OpenFaaS
/// template (§5): each function thread allocates a private arena and is
/// granted `ReadWrite` on its own key only; the orchestrator thread holds
/// `ReadWrite` everywhere to move state between functions.
#[derive(Debug, Default)]
pub struct MpkDomain {
    inner: RwLock<DomainInner>,
}

#[derive(Debug, Default)]
struct DomainInner {
    arenas: HashMap<usize, Arena>,
    next_arena: usize,
    next_key: u8,
    /// PKRU-style masks: per thread, per key.
    pkru: HashMap<ThreadId, [Access; ProtectionKey::MAX_KEYS as usize]>,
}

/// Handle to an allocated arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaHandle {
    id: usize,
    pub key: ProtectionKey,
}

impl MpkDomain {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new arena of `size` bytes under a fresh protection key.
    pub fn allocate(&self, size: usize) -> Result<ArenaHandle, MpkViolation> {
        let mut inner = self.inner.write();
        if inner.next_key >= ProtectionKey::MAX_KEYS {
            return Err(MpkViolation::KeysExhausted);
        }
        let key = ProtectionKey(inner.next_key);
        inner.next_key += 1;
        let id = inner.next_arena;
        inner.next_arena += 1;
        inner.arenas.insert(
            id,
            Arena {
                key,
                data: vec![0; size],
            },
        );
        Ok(ArenaHandle { id, key })
    }

    /// Sets `thread`'s access rights for `key` (the `wrpkru` analogue).
    pub fn grant(&self, thread: ThreadId, key: ProtectionKey, access: Access) {
        let mut inner = self.inner.write();
        let mask = inner
            .pkru
            .entry(thread)
            .or_insert([Access::None; ProtectionKey::MAX_KEYS as usize]);
        mask[key.index()] = access;
    }

    fn access_for(inner: &DomainInner, thread: ThreadId, key: ProtectionKey) -> Access {
        inner
            .pkru
            .get(&thread)
            .map(|mask| mask[key.index()])
            .unwrap_or(Access::None)
    }

    /// Checked read of `len` bytes at `offset`.
    pub fn read(
        &self,
        thread: ThreadId,
        handle: ArenaHandle,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, MpkViolation> {
        let inner = self.inner.read();
        let arena = &inner.arenas[&handle.id];
        if !Self::access_for(&inner, thread, arena.key).allows_read() {
            return Err(MpkViolation::ReadDenied {
                thread,
                key: arena.key.0,
            });
        }
        let end = offset.checked_add(len).filter(|&e| e <= arena.data.len());
        match end {
            Some(end) => Ok(arena.data[offset..end].to_vec()),
            None => Err(MpkViolation::OutOfBounds {
                offset,
                len: arena.data.len(),
            }),
        }
    }

    /// Checked write of `bytes` at `offset`.
    pub fn write(
        &self,
        thread: ThreadId,
        handle: ArenaHandle,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), MpkViolation> {
        let mut inner = self.inner.write();
        let arena = inner.arenas.get(&handle.id).expect("valid handle");
        if !Self::access_for(&inner, thread, arena.key).allows_write() {
            return Err(MpkViolation::WriteDenied {
                thread,
                key: arena.key.0,
            });
        }
        let arena = inner.arenas.get_mut(&handle.id).expect("valid handle");
        let end = offset
            .checked_add(bytes.len())
            .filter(|&e| e <= arena.data.len());
        match end {
            Some(end) => {
                arena.data[offset..end].copy_from_slice(bytes);
                Ok(())
            }
            None => Err(MpkViolation::OutOfBounds {
                offset,
                len: arena.data.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_arena_per_thread() {
        let domain = MpkDomain::new();
        let a = domain.allocate(64).unwrap();
        let b = domain.allocate(64).unwrap();
        assert_ne!(a.key, b.key);

        domain.grant(1, a.key, Access::ReadWrite);
        domain.grant(2, b.key, Access::ReadWrite);

        domain.write(1, a, 0, b"secret").unwrap();
        // Thread 2 holds no rights on arena A.
        assert_eq!(
            domain.read(2, a, 0, 6).unwrap_err(),
            MpkViolation::ReadDenied {
                thread: 2,
                key: a.key.0
            }
        );
        assert_eq!(
            domain.write(2, a, 0, b"x").unwrap_err(),
            MpkViolation::WriteDenied {
                thread: 2,
                key: a.key.0
            }
        );
        // Thread 1 reads its own data back.
        assert_eq!(domain.read(1, a, 0, 6).unwrap(), b"secret");
    }

    #[test]
    fn orchestrator_reads_everything() {
        let domain = MpkDomain::new();
        let a = domain.allocate(16).unwrap();
        let b = domain.allocate(16).unwrap();
        const ORCH: ThreadId = 0;
        domain.grant(ORCH, a.key, Access::ReadWrite);
        domain.grant(ORCH, b.key, Access::ReadWrite);
        domain.write(ORCH, a, 0, b"in").unwrap();
        domain.write(ORCH, b, 0, b"out").unwrap();
        assert_eq!(domain.read(ORCH, a, 0, 2).unwrap(), b"in");
        assert_eq!(domain.read(ORCH, b, 0, 3).unwrap(), b"out");
    }

    #[test]
    fn read_only_grant() {
        let domain = MpkDomain::new();
        let a = domain.allocate(8).unwrap();
        domain.grant(1, a.key, Access::ReadWrite);
        domain.write(1, a, 0, b"data").unwrap();
        domain.grant(2, a.key, Access::ReadOnly);
        assert_eq!(domain.read(2, a, 0, 4).unwrap(), b"data");
        assert!(matches!(
            domain.write(2, a, 0, b"z"),
            Err(MpkViolation::WriteDenied { .. })
        ));
    }

    #[test]
    fn bounds_checked() {
        let domain = MpkDomain::new();
        let a = domain.allocate(4).unwrap();
        domain.grant(1, a.key, Access::ReadWrite);
        assert!(matches!(
            domain.write(1, a, 2, b"long"),
            Err(MpkViolation::OutOfBounds { .. })
        ));
        assert!(matches!(
            domain.read(1, a, 4, 1),
            Err(MpkViolation::OutOfBounds { .. })
        ));
    }

    #[test]
    fn keys_exhaust_at_16() {
        let domain = MpkDomain::new();
        for _ in 0..16 {
            domain.allocate(1).unwrap();
        }
        assert_eq!(domain.allocate(1).unwrap_err(), MpkViolation::KeysExhausted);
    }

    #[test]
    fn key_constructor_bounds() {
        assert!(ProtectionKey::new(15).is_some());
        assert!(ProtectionKey::new(16).is_none());
    }
}
