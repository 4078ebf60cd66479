//! Reference page cache for differential testing.
//!
//! The straightforward model [`super::PageCache`] must agree with: one
//! global map of `(file, page)` entries plus a per-file ordered set of
//! dirty pages. It keeps the exact dirty-FIFO semantics of the real cache
//! (stale FIFO entries are skipped, or come back into use when their page
//! is dirtied again), so any difference in returned keys, payloads, order
//! or counters is a bug in the optimised table.

use std::collections::{BTreeSet, HashMap, VecDeque};

use super::{DirtyPage, PageKey};

#[derive(Clone, Debug)]
struct CachedPage {
    data: Option<Box<[u8]>>,
    dirty: bool,
}

/// The map-and-set page cache.
#[derive(Debug, Default)]
pub struct OraclePageCache {
    pages: HashMap<PageKey, CachedPage>,
    dirty_fifo: VecDeque<PageKey>,
    dirty_by_file: HashMap<u64, BTreeSet<u64>>,
    dirty_count: usize,
    hits: u64,
    misses: u64,
}

impl OraclePageCache {
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn write_page(&mut self, key: PageKey, data: Option<&[u8]>) -> bool {
        let entry = self.pages.entry(key).or_insert(CachedPage {
            data: None,
            dirty: false,
        });
        if let Some(d) = data {
            entry.data = Some(d.into());
        }
        if entry.dirty {
            return true;
        }
        entry.dirty = true;
        self.dirty_fifo.push_back(key);
        self.dirty_by_file.entry(key.0).or_default().insert(key.1);
        self.dirty_count += 1;
        false
    }

    pub fn read_page(&mut self, key: PageKey) -> Option<Option<&[u8]>> {
        match self.pages.get(&key) {
            Some(p) => {
                self.hits += 1;
                Some(p.data.as_deref())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn peek_page(&self, key: PageKey) -> Option<Option<&[u8]>> {
        self.pages.get(&key).map(|p| p.data.as_deref())
    }

    pub fn fill_page(&mut self, key: PageKey, data: Option<&[u8]>) {
        if self.pages.get(&key).is_some_and(|p| p.dirty) {
            return;
        }
        self.pages.insert(
            key,
            CachedPage {
                data: data.map(Into::into),
                dirty: false,
            },
        );
    }

    pub fn contains(&self, key: PageKey) -> bool {
        self.pages.contains_key(&key)
    }

    pub fn take_dirty(&mut self, max: usize) -> Vec<DirtyPage> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(key) = self.dirty_fifo.pop_front() else {
                break;
            };
            if let Some(p) = self.pages.get_mut(&key) {
                if p.dirty {
                    p.dirty = false;
                    self.dirty_count -= 1;
                    if let Some(set) = self.dirty_by_file.get_mut(&key.0) {
                        set.remove(&key.1);
                    }
                    out.push((key, p.data.clone()));
                }
            }
        }
        out
    }

    pub fn take_dirty_of_file(&mut self, file: u64) -> Vec<DirtyPage> {
        let Some(set) = self.dirty_by_file.remove(&file) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(set.len());
        for page in set {
            let key = (file, page);
            if let Some(p) = self.pages.get_mut(&key) {
                if p.dirty {
                    p.dirty = false;
                    self.dirty_count -= 1;
                    out.push((key, p.data.clone()));
                }
            }
        }
        out
    }

    pub fn evict_file(&mut self, file: u64) {
        self.pages.retain(|k, _| k.0 != file);
        if let Some(set) = self.dirty_by_file.remove(&file) {
            self.dirty_count -= set.len();
        }
        self.dirty_fifo.retain(|k| k.0 != file);
    }
}
