//! A functional in-memory object store standing in for S3/MinIO.
//!
//! One-to-one platforms pass intermediate data by writing each function's
//! output to the store and reading it back downstream. This store holds the
//! actual payload bytes (so integration tests exercise real data flow) and
//! reports the latency each operation would have cost through the
//! calibrated [`crate::transfer::LinkModel`].

use crate::transfer::LinkModel;
use bytes::Bytes;
use chiron_model::SimDuration;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Statistics accumulated by an object store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub puts: u64,
    pub gets: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// An in-memory bucket with an attached latency model.
///
/// Thread-safe: the runtime's real-thread executor may call it from many
/// worker threads at once.
#[derive(Debug)]
pub struct ObjectStore {
    link: LinkModel,
    objects: RwLock<HashMap<String, Bytes>>,
    stats: RwLock<StoreStats>,
}

/// Failure modes of object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(key) => write!(f, "object not found: {key}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl ObjectStore {
    pub fn new(link: LinkModel) -> Self {
        ObjectStore {
            link,
            objects: RwLock::new(HashMap::new()),
            stats: RwLock::new(StoreStats::default()),
        }
    }

    /// Stores `data` under `key`; returns the modelled write latency.
    pub fn put(&self, key: impl Into<String>, data: Bytes) -> SimDuration {
        let latency = self.link.latency(data.len() as u64);
        let mut stats = self.stats.write();
        stats.puts += 1;
        stats.bytes_written += data.len() as u64;
        drop(stats);
        self.objects.write().insert(key.into(), data);
        latency
    }

    /// Fetches the object under `key` with its modelled read latency.
    pub fn get(&self, key: &str) -> Result<(Bytes, SimDuration), StoreError> {
        let data = self
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(key.to_owned()))?;
        let latency = self.link.latency(data.len() as u64);
        let mut stats = self.stats.write();
        stats.gets += 1;
        stats.bytes_read += data.len() as u64;
        Ok((data, latency))
    }

    pub fn contains(&self, key: &str) -> bool {
        self.objects.read().contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    pub fn stats(&self) -> StoreStats {
        *self.stats.read()
    }

    /// Drops all objects (between simulated requests).
    pub fn clear(&self) {
        self.objects.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferModel;

    fn store() -> ObjectStore {
        ObjectStore::new(TransferModel::paper_calibrated().minio)
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        let wrote = s.put("stage0/f0", Bytes::from_static(b"payload"));
        assert!(wrote >= SimDuration::from_millis(10));
        let (data, read) = s.get("stage0/f0").unwrap();
        assert_eq!(&data[..], b"payload");
        assert!(read >= SimDuration::from_millis(10));
        assert!(s.contains("stage0/f0"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn missing_key_errors() {
        let s = store();
        assert_eq!(
            s.get("nope").unwrap_err(),
            StoreError::NotFound("nope".into())
        );
    }

    #[test]
    fn stats_accumulate() {
        let s = store();
        s.put("a", Bytes::from(vec![0u8; 100]));
        s.put("b", Bytes::from(vec![0u8; 50]));
        s.get("a").unwrap();
        let st = s.stats();
        assert_eq!(st.puts, 2);
        assert_eq!(st.gets, 1);
        assert_eq!(st.bytes_written, 150);
        assert_eq!(st.bytes_read, 100);
    }

    #[test]
    fn clear_empties_the_store() {
        let s = store();
        s.put("b", Bytes::from_static(b"y"));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn bigger_objects_cost_more() {
        let s = store();
        let small = s.put("s", Bytes::from(vec![0u8; 1 << 10]));
        let large = s.put("l", Bytes::from(vec![0u8; 8 << 20]));
        assert!(large > small);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = std::sync::Arc::new(store());
        let mut handles = Vec::new();
        for i in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    let key = format!("k{i}-{j}");
                    s.put(key.clone(), Bytes::from(vec![i as u8; 64]));
                    s.get(&key).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 50);
        assert_eq!(s.stats().puts, 400);
    }
}
