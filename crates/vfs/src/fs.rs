//! The in-memory hierarchical file system served over the NFS-like
//! protocol: inodes, directories, and file data that is either sparse
//! (ordinary, writable files) or synthetic (huge read-only VM state
//! files whose content is a pure function of a seed, so a 2 GB image
//! file costs no memory).
//!
//! A sparse file is a size plus the 8 KiB pages ([`NFS_BLOCK`]) that
//! hold a non-zero byte. A page never stored is a hole and reads as
//! zeros; writing zeros into a hole, or past end of file, stores
//! nothing but the new size. Simulated guests write zeros whose
//! content never affects timing, so presizing a multi-GiB state file
//! and streaming writes through it costs no file memory. A read
//! inside one page copies at most once: a hole is a slice of one
//! static zero page, a stored page is copied out.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use gridvm_simcore::slot::{DenseMap, Handle, SlotMap};
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::block::synthetic_file_chunk;

use crate::protocol::NFS_BLOCK;

/// Bytes per page of a sparse file: the NFS transfer size, so a
/// block-aligned RPC touches exactly one page.
const PAGE: u64 = NFS_BLOCK.as_u64();

/// The content of every hole.
static ZERO_PAGE: [u8; PAGE as usize] = [0; PAGE as usize];

/// Tag type for inode-table handles.
enum FsTag {}

/// Handle to a file or directory (an inode number, as in NFS).
///
/// The value packs a generation-stamped slot handle into the inode
/// table, so a handle held across a remove is detectably stale even
/// after the slot is reused (NFS `ESTALE` semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileHandle(pub u64);

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh#{}", self.0)
    }
}

/// File attributes returned by `getattr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Last modification time.
    pub mtime: SimTime,
    /// True for directories.
    pub is_dir: bool,
}

/// Errors from file-system operations (mirrors NFS status codes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Stale or never-issued handle.
    Stale(
        /// The bad handle.
        FileHandle,
    ),
    /// Name not present in the directory.
    NotFound(
        /// The name looked up.
        String,
    ),
    /// Operation requires a directory.
    NotDir,
    /// Operation requires a regular file.
    IsDir,
    /// Name already exists.
    Exists(
        /// The conflicting name.
        String,
    ),
    /// The file is read-only (synthetic VM state).
    ReadOnly,
    /// Directory not empty on remove.
    NotEmpty,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Stale(h) => write!(f, "stale file handle {h}"),
            FsError::NotFound(n) => write!(f, "no such entry {n:?}"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::Exists(n) => write!(f, "entry {n:?} already exists"),
            FsError::ReadOnly => write!(f, "file is read-only"),
            FsError::NotEmpty => write!(f, "directory not empty"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Clone, Debug)]
enum FileData {
    /// Ordinary user file data: `size` bytes, of which only the pages
    /// in `pages` (keyed by page index) may hold non-zero bytes.
    Sparse {
        size: u64,
        pages: DenseMap<Box<[u8]>>,
    },
    /// Huge read-only content generated from a seed (VM disk images
    /// and memory snapshots exported over NFS).
    Synthetic { seed: u64, size: u64 },
}

#[derive(Clone, Debug)]
enum Node {
    File {
        data: FileData,
        mtime: SimTime,
    },
    Dir {
        entries: BTreeMap<String, FileHandle>,
        mtime: SimTime,
    },
}

/// The in-memory file system.
///
/// ```
/// use gridvm_vfs::fs::InMemoryFs;
/// use gridvm_simcore::time::SimTime;
///
/// let mut fs = InMemoryFs::new();
/// let root = fs.root();
/// let dir = fs.mkdir(root, "home", SimTime::ZERO)?;
/// let file = fs.create(dir, "data.txt", SimTime::ZERO)?;
/// fs.write(file, 0, b"hello", SimTime::ZERO)?;
/// assert_eq!(&fs.read(file, 0, 5)?[..], b"hello");
/// # Ok::<(), gridvm_vfs::fs::FsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct InMemoryFs {
    nodes: SlotMap<FsTag, Node>,
    root: FileHandle,
}

impl Default for InMemoryFs {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryFs {
    /// Creates a file system with an empty root directory.
    pub fn new() -> Self {
        let mut nodes = SlotMap::new();
        let root = FileHandle(
            nodes
                .insert(Node::Dir {
                    entries: BTreeMap::new(),
                    mtime: SimTime::ZERO,
                })
                .pack(),
        );
        InMemoryFs { nodes, root }
    }

    /// The root directory handle.
    pub fn root(&self) -> FileHandle {
        self.root
    }

    fn node(&self, h: FileHandle) -> Result<&Node, FsError> {
        self.nodes
            .get(Handle::from_pack(h.0))
            .map_err(|_| FsError::Stale(h))
    }

    fn node_mut(&mut self, h: FileHandle) -> Result<&mut Node, FsError> {
        self.nodes
            .get_mut(Handle::from_pack(h.0))
            .map_err(|_| FsError::Stale(h))
    }

    fn alloc(&mut self, node: Node) -> FileHandle {
        FileHandle(self.nodes.insert(node).pack())
    }

    /// Looks `name` up in directory `dir`.
    ///
    /// # Errors
    ///
    /// Stale handle, not a directory, or name not found.
    pub fn lookup(&self, dir: FileHandle, name: &str) -> Result<FileHandle, FsError> {
        match self.node(dir)? {
            Node::Dir { entries, .. } => entries
                .get(name)
                .copied()
                // audit:allow(alloc-in-hot): error construction on the missing-name path; the error owns its name by API contract
                .ok_or_else(|| FsError::NotFound(name.to_owned())),
            Node::File { .. } => Err(FsError::NotDir),
        }
    }

    /// Resolves a `/`-separated path from the root.
    ///
    /// # Errors
    ///
    /// Any component failing [`lookup`](InMemoryFs::lookup).
    pub fn resolve(&self, path: &str) -> Result<FileHandle, FsError> {
        let mut h = self.root();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            h = self.lookup(h, comp)?;
        }
        Ok(h)
    }

    /// Creates an empty regular file in `dir`.
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn create(
        &mut self,
        dir: FileHandle,
        name: &str,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::File {
                data: FileData::Sparse {
                    size: 0,
                    pages: DenseMap::new(),
                },
                mtime: now,
            },
            now,
        )
    }

    /// Creates a read-only synthetic file of `size` bytes whose
    /// content derives from `seed` (used to export VM images over
    /// NFS without materializing gigabytes).
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn create_synthetic(
        &mut self,
        dir: FileHandle,
        name: &str,
        size: ByteSize,
        seed: u64,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::File {
                data: FileData::Synthetic {
                    seed,
                    size: size.as_u64(),
                },
                mtime: now,
            },
            now,
        )
    }

    /// Creates a subdirectory.
    ///
    /// # Errors
    ///
    /// Stale/non-directory handle or existing name.
    pub fn mkdir(
        &mut self,
        dir: FileHandle,
        name: &str,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        self.insert_node(
            dir,
            name,
            Node::Dir {
                entries: BTreeMap::new(),
                mtime: now,
            },
            now,
        )
    }

    fn insert_node(
        &mut self,
        dir: FileHandle,
        name: &str,
        node: Node,
        now: SimTime,
    ) -> Result<FileHandle, FsError> {
        // Check before allocating to keep the namespace consistent.
        match self.node(dir)? {
            Node::Dir { entries, .. } => {
                if entries.contains_key(name) {
                    // audit:allow(alloc-in-hot): error construction on the name-collision path; the error owns its name by API contract
                    return Err(FsError::Exists(name.to_owned()));
                }
            }
            Node::File { .. } => return Err(FsError::NotDir),
        }
        let h = self.alloc(node);
        match self.node_mut(dir)? {
            Node::Dir { entries, mtime } => {
                // audit:allow(alloc-in-hot): namespace mutation stores the new entry's name; allocation is the operation itself
                entries.insert(name.to_owned(), h);
                *mtime = now;
            }
            Node::File { .. } => unreachable!("checked above"),
        }
        Ok(h)
    }

    /// Reads up to `len` bytes at `offset`; short reads happen at end
    /// of file.
    ///
    /// # Errors
    ///
    /// Stale handle or directory handle.
    pub fn read(&self, h: FileHandle, offset: u64, len: u64) -> Result<Bytes, FsError> {
        match self.node(h)? {
            Node::File { data, .. } => match data {
                FileData::Sparse { size, pages } => {
                    let start = offset.min(*size);
                    let end = offset.saturating_add(len).min(*size);
                    Ok(read_pages(pages, start, end))
                }
                FileData::Synthetic { seed, size } => {
                    let start = offset.min(*size);
                    let end = (offset + len).min(*size);
                    Ok(synthetic_file_chunk(*seed, start, (end - start) as usize))
                }
            },
            Node::Dir { .. } => Err(FsError::IsDir),
        }
    }

    /// Writes `data` at `offset`, extending (zero-filling any gap) as
    /// needed. Zeros written into a hole, and the gap, store nothing.
    ///
    /// # Errors
    ///
    /// Stale handle, directory handle, or synthetic (read-only) file.
    pub fn write(
        &mut self,
        h: FileHandle,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<(), FsError> {
        match self.node_mut(h)? {
            Node::File { data: fd, mtime } => match fd {
                FileData::Sparse { size, pages } => {
                    let end = offset + data.len() as u64;
                    let mut cursor = offset;
                    while cursor < end {
                        let index = cursor / PAGE;
                        let base = index * PAGE;
                        let stop = end.min(base + PAGE);
                        let src = &data[(cursor - offset) as usize..(stop - offset) as usize];
                        let dst = (cursor - base) as usize..(stop - base) as usize;
                        match pages.get_mut(index) {
                            Some(page) => page[dst].copy_from_slice(src),
                            // A hole stays a hole under zeros. Comparing
                            // with the zero page is a memcmp, which is
                            // several times faster than a byte loop.
                            None if *src == ZERO_PAGE[..src.len()] => {}
                            None => {
                                // audit:allow(alloc-in-hot): the first non-zero byte written into a hole allocates its page once; zero writes and rewrites of stored pages never reach here
                                let mut page = vec![0u8; PAGE as usize].into_boxed_slice();
                                page[dst].copy_from_slice(src);
                                pages.insert(index, page);
                            }
                        }
                        cursor = stop;
                    }
                    *size = (*size).max(end);
                    *mtime = now;
                    Ok(())
                }
                FileData::Synthetic { .. } => Err(FsError::ReadOnly),
            },
            Node::Dir { .. } => Err(FsError::IsDir),
        }
    }

    /// File or directory attributes.
    ///
    /// # Errors
    ///
    /// Stale handle.
    pub fn getattr(&self, h: FileHandle) -> Result<FileAttr, FsError> {
        Ok(match self.node(h)? {
            Node::File { data, mtime } => FileAttr {
                size: match data {
                    FileData::Sparse { size, .. } | FileData::Synthetic { size, .. } => *size,
                },
                mtime: *mtime,
                is_dir: false,
            },
            Node::Dir { mtime, .. } => FileAttr {
                size: 0,
                mtime: *mtime,
                is_dir: true,
            },
        })
    }

    /// Directory entries in name order.
    ///
    /// # Errors
    ///
    /// Stale or non-directory handle.
    pub fn readdir(&self, dir: FileHandle) -> Result<Vec<(String, FileHandle)>, FsError> {
        match self.node(dir)? {
            Node::Dir { entries, .. } => Ok(entries.iter().map(|(n, h)| (n.clone(), *h)).collect()),
            Node::File { .. } => Err(FsError::NotDir),
        }
    }

    /// Removes `name` from `dir`. Directories must be empty.
    ///
    /// # Errors
    ///
    /// Stale handle, missing name, or non-empty directory.
    pub fn remove(&mut self, dir: FileHandle, name: &str, now: SimTime) -> Result<(), FsError> {
        let victim = self.lookup(dir, name)?;
        if let Node::Dir { entries, .. } = self.node(victim)? {
            if !entries.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        match self.node_mut(dir)? {
            Node::Dir { entries, mtime } => {
                entries.remove(name);
                *mtime = now;
            }
            Node::File { .. } => return Err(FsError::NotDir),
        }
        self.nodes
            .remove(Handle::from_pack(victim.0))
            .map_err(|_| FsError::Stale(victim))?;
        Ok(())
    }

    /// First and last block indices an NFS transfer of the byte range
    /// touches (`block`-aligned), or `None` for an empty range.
    pub fn block_span(offset: u64, len: u64, block: ByteSize) -> Option<(u64, u64)> {
        if len == 0 {
            return None;
        }
        let bs = block.as_u64();
        Some((offset / bs, (offset + len - 1) / bs))
    }
}

/// The bytes `start..end` of a sparse file. A range inside one page
/// copies at most once (a hole is a slice of [`ZERO_PAGE`]); a range
/// over several pages is assembled into one buffer.
fn read_pages(pages: &DenseMap<Box<[u8]>>, start: u64, end: u64) -> Bytes {
    let Some((first, last)) = InMemoryFs::block_span(start, end - start, NFS_BLOCK) else {
        return Bytes::new();
    };
    if first == last {
        let at = (start - first * PAGE) as usize;
        let range = at..at + (end - start) as usize;
        return match pages.get(first) {
            Some(page) => Bytes::copy_from_slice(&page[range]),
            None => Bytes::from_static(&ZERO_PAGE[range]),
        };
    }
    // audit:allow(alloc-in-hot): a read straddling pages needs one contiguous reply buffer; block-aligned NFS reads stay inside one page and never reach here
    let mut out = vec![0u8; (end - start) as usize];
    for index in first..=last {
        let Some(page) = pages.get(index) else {
            continue;
        };
        let base = index * PAGE;
        let (lo, hi) = (start.max(base), end.min(base + PAGE));
        out[(lo - start) as usize..(hi - start) as usize]
            .copy_from_slice(&page[(lo - base) as usize..(hi - base) as usize]);
    }
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "a.txt", t0()).unwrap();
        fs.write(f, 0, b"hello world", t0()).unwrap();
        assert_eq!(&fs.read(f, 0, 5).unwrap()[..], b"hello");
        assert_eq!(
            &fs.read(f, 6, 100).unwrap()[..],
            b"world",
            "short read at EOF"
        );
        assert_eq!(fs.getattr(f).unwrap().size, 11);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "sparse", t0()).unwrap();
        fs.write(f, 5, b"x", t0()).unwrap();
        assert_eq!(&fs.read(f, 0, 6).unwrap()[..], b"\0\0\0\0\0x");
    }

    #[test]
    fn directories_nest_and_resolve() {
        let mut fs = InMemoryFs::new();
        let home = fs.mkdir(fs.root(), "home", t0()).unwrap();
        let user = fs.mkdir(home, "userA", t0()).unwrap();
        let f = fs.create(user, "sim.dat", t0()).unwrap();
        assert_eq!(fs.resolve("/home/userA/sim.dat").unwrap(), f);
        assert_eq!(fs.resolve("home/userA").unwrap(), user);
        assert!(matches!(
            fs.resolve("/home/nope"),
            Err(FsError::NotFound(_))
        ));
        let entries = fs.readdir(home).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "userA");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut fs = InMemoryFs::new();
        fs.create(fs.root(), "x", t0()).unwrap();
        assert!(matches!(
            fs.create(fs.root(), "x", t0()),
            Err(FsError::Exists(_))
        ));
        assert!(matches!(
            fs.mkdir(fs.root(), "x", t0()),
            Err(FsError::Exists(_))
        ));
    }

    #[test]
    fn synthetic_files_read_deterministically_and_reject_writes() {
        let mut fs = InMemoryFs::new();
        let img = fs
            .create_synthetic(fs.root(), "rh72.img", ByteSize::from_mib(64), 9, t0())
            .unwrap();
        let a = fs.read(img, 4096, 8192).unwrap();
        let b = fs.read(img, 4096, 8192).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8192);
        assert_ne!(a, fs.read(img, 12288, 8192).unwrap());
        assert_eq!(fs.getattr(img).unwrap().size, 64 * 1024 * 1024);
        assert_eq!(fs.write(img, 0, b"no", t0()), Err(FsError::ReadOnly));
        // Reads past EOF are empty.
        assert!(fs.read(img, 64 * 1024 * 1024, 10).unwrap().is_empty());
    }

    #[test]
    fn remove_enforces_emptiness_and_staleness() {
        let mut fs = InMemoryFs::new();
        let d = fs.mkdir(fs.root(), "d", t0()).unwrap();
        let f = fs.create(d, "f", t0()).unwrap();
        assert_eq!(fs.remove(fs.root(), "d", t0()), Err(FsError::NotEmpty));
        fs.remove(d, "f", t0()).unwrap();
        fs.remove(fs.root(), "d", t0()).unwrap();
        assert!(matches!(fs.getattr(f), Err(FsError::Stale(_))));
        assert!(matches!(fs.lookup(d, "f"), Err(FsError::Stale(_))));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "f", t0()).unwrap();
        assert_eq!(fs.lookup(f, "x"), Err(FsError::NotDir));
        assert_eq!(fs.read(fs.root(), 0, 1), Err(FsError::IsDir));
        assert_eq!(fs.write(fs.root(), 0, b"x", t0()), Err(FsError::IsDir));
        assert!(matches!(fs.readdir(f), Err(FsError::NotDir)));
    }

    #[test]
    fn block_range_mapping() {
        let bs = ByteSize::from_kib(8);
        assert_eq!(InMemoryFs::block_span(0, 1, bs), Some((0, 0)));
        assert_eq!(InMemoryFs::block_span(8191, 2, bs), Some((0, 1)));
        assert_eq!(InMemoryFs::block_span(16384, 8192, bs), Some((2, 2)));
        assert_eq!(InMemoryFs::block_span(100, 0, bs), None);
    }

    /// Pages a sparse file stores (holes excluded).
    fn stored_pages(fs: &InMemoryFs, h: FileHandle) -> usize {
        match fs.node(h).unwrap() {
            Node::File {
                data: FileData::Sparse { pages, .. },
                ..
            } => pages.len(),
            other => panic!("not a sparse file: {other:?}"),
        }
    }

    #[test]
    fn terabyte_presize_stores_no_page() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "vmstate", t0()).unwrap();
        let size = 1u64 << 40;
        fs.write(f, size - 1, &[0], t0()).unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, size);
        for offset in [0, 12_345, 1 << 39, size - PAGE, size - 3] {
            let got = fs.read(f, offset, PAGE).unwrap();
            assert_eq!(got.len() as u64, PAGE.min(size - offset));
            assert!(got.iter().all(|&b| b == 0), "hole at {offset} reads zeros");
        }
        assert_eq!(stored_pages(&fs, f), 0);
    }

    #[test]
    fn zero_writes_leave_holes_and_non_zero_writes_fill_them() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "f", t0()).unwrap();
        fs.write(f, 3 * PAGE - 10, &[0; 20], t0()).unwrap();
        assert_eq!(stored_pages(&fs, f), 0);
        assert_eq!(fs.getattr(f).unwrap().size, 3 * PAGE + 10);
        // One non-zero byte in the second page of a straddling write
        // stores that page only.
        fs.write(f, PAGE - 4, &[0, 0, 0, 0, 9], t0()).unwrap();
        assert_eq!(stored_pages(&fs, f), 1);
        assert_eq!(&fs.read(f, PAGE - 1, 2).unwrap()[..], &[0, 9]);
        // Zeros over a stored page overwrite it in place.
        fs.write(f, PAGE, &[0], t0()).unwrap();
        assert_eq!(stored_pages(&fs, f), 1);
        assert!(fs.read(f, 0, 4 * PAGE).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn hole_reads_share_one_static_page() {
        let mut fs = InMemoryFs::new();
        let f = fs.create(fs.root(), "f", t0()).unwrap();
        fs.write(f, 10 * PAGE, &[1], t0()).unwrap();
        let a = fs.read(f, 0, PAGE).unwrap();
        let b = fs.read(f, 5 * PAGE + 100, 50).unwrap();
        assert_eq!(a.as_ptr(), ZERO_PAGE.as_ptr());
        assert_eq!(b.as_ptr(), ZERO_PAGE[100..].as_ptr());
    }

    #[test]
    fn error_display() {
        assert!(FsError::Stale(FileHandle(3)).to_string().contains("fh#3"));
        assert!(FsError::NotFound("q".into()).to_string().contains('q'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Writes then reads behave like a flat byte array, across
        /// page boundaries, holes, and zeros written over stored
        /// pages.
        #[test]
        fn file_matches_vec_model(
            ops in proptest::collection::vec(
                (0u64..5 * PAGE, 1usize..2 * PAGE as usize, proptest::bool::ANY, 0u8..=255),
                1..24,
            ),
            reads in proptest::collection::vec((0u64..6 * PAGE, 0u64..3 * PAGE), 1..16),
        ) {
            let mut fs = InMemoryFs::new();
            let f = fs.create(fs.root(), "m", SimTime::ZERO).unwrap();
            let mut model: Vec<u8> = Vec::new();
            for (offset, len, zeros, seed) in ops {
                let data: Vec<u8> = if zeros {
                    vec![0; len]
                } else {
                    (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect()
                };
                fs.write(f, offset, &data, SimTime::ZERO).unwrap();
                let end = offset as usize + len;
                if model.len() < end { model.resize(end, 0); }
                model[offset as usize..end].copy_from_slice(&data);
            }
            prop_assert_eq!(fs.getattr(f).unwrap().size, model.len() as u64);
            let whole = fs.read(f, 0, model.len() as u64 + 10).unwrap();
            prop_assert_eq!(&whole[..], &model[..]);
            for (offset, len) in reads {
                let start = (offset as usize).min(model.len());
                let end = ((offset + len) as usize).min(model.len());
                let got = fs.read(f, offset, len).unwrap();
                prop_assert_eq!(&got[..], &model[start..end]);
            }
        }
    }
}
