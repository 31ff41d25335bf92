//! Read-only memory-mapped regions and the typed storages that let index
//! payloads borrow their bytes from a map instead of owning them.
//!
//! The index file (`vaq_core::persist`) lays sealed-segment
//! payloads out as page-aligned extents so the scan kernels can read them
//! straight from the page cache. Each payload is wrapped in a storage enum
//! — [`CodesStorage`], [`U16Storage`], [`U32Storage`], [`F32Storage`],
//! [`U64Storage`] — that is either `Owned` (a plain `Vec`, the in-RAM
//! path) or `Mapped` (a typed window into an [`MappedRegion`]). Both
//! variants deref to the same slice type, so every consumer downstream of
//! the load path is storage-agnostic and answers are byte-identical.
//!
//! Mapped constructors are *total*: any bounds, alignment, or endianness
//! problem yields `None` and the caller degrades to an owned copy. The
//! `unsafe` needed for the FFI and the typed reinterpretation lives
//! entirely in this module (every other crate in the workspace forbids
//! unsafe code).
//!
//! Platform support is Linux/macOS on 64-bit little-endian targets; on
//! anything else [`MappedRegion::map_file`] returns `None` and loaders
//! fall back to owned reads.
//!
//! # Caveat: the backing file must not shrink
//!
//! A `MAP_PRIVATE, PROT_READ` mapping is immune to logical writes by other
//! processes, but truncating the backing file below a mapped page turns
//! accesses into `SIGBUS`. The persist layer only maps files it has just
//! committed atomically and never truncates in place, so this is only
//! reachable by outside interference with the index directory.

use std::fmt;
use std::fs::File;
use std::sync::Arc;

/// Page size assumed by the index file's extent layout. Real page size is
/// queried nowhere: 4096 divides every page size the supported targets
/// use, so aligning extents to it keeps typed loads aligned.
pub const PAGE_ALIGN: usize = 4096;

#[cfg(all(
    not(miri),
    any(target_os = "linux", target_os = "macos"),
    target_pointer_width = "64",
    target_endian = "little"
))]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // Stable across Linux and macOS on the supported targets.
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only and private. `None` on any
    /// failure (callers degrade to owned reads). `len` must be non-zero.
    pub(super) fn map(file: &File, len: usize) -> Option<*const u8> {
        // SAFETY: addr=null lets the kernel pick a placement, the fd is
        // live for the duration of the call, and a PROT_READ|MAP_PRIVATE
        // mapping cannot alias any writable Rust memory.
        let ptr = unsafe {
            mmap(core::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr.is_null() || ptr as isize == -1 {
            return None;
        }
        Some(ptr as *const u8)
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: (ptr, len) is exactly the mapping returned by `map`;
        // the caller (Drop) guarantees no outstanding borrows.
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

// Miri cannot interpret foreign mmap/munmap calls, so it takes the
// degrade-to-owned stub like any other unsupported target.
#[cfg(not(all(
    not(miri),
    any(target_os = "linux", target_os = "macos"),
    target_pointer_width = "64",
    target_endian = "little"
)))]
mod sys {
    use std::fs::File;

    pub(super) fn map(_file: &File, _len: usize) -> Option<*const u8> {
        None
    }

    pub(super) fn unmap(_ptr: *const u8, _len: usize) {}
}

/// A read-only, private memory mapping of a whole file. Shared by `Arc`
/// between every storage carved out of it; the mapping lives until the
/// last storage drops.
pub struct MappedRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never handed out mutably; a
// `&MappedRegion` only permits reads of immutable bytes, which is safe
// from any thread.
unsafe impl Send for MappedRegion {}
// SAFETY: as above — shared reads of read-only pages are data-race free.
unsafe impl Sync for MappedRegion {}

impl MappedRegion {
    /// Maps `file` (its full current length) read-only. `None` when the
    /// platform is unsupported, the file is empty, its length does not
    /// fit in `usize`, or the `mmap` call fails — callers degrade to an
    /// owned read.
    pub fn map_file(file: &File) -> Option<Arc<MappedRegion>> {
        let len = file.metadata().ok()?.len();
        let len = usize::try_from(len).ok()?;
        if len == 0 {
            return None;
        }
        let ptr = sys::map(file, len)?;
        Some(Arc::new(MappedRegion { ptr, len }))
    }

    /// Total mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is mapped (never the case for a region built
    /// by [`MappedRegion::map_file`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 || self.ptr.is_null() {
            return &[];
        }
        // SAFETY: ptr is the live mapping base and len its exact length;
        // the pages are immutable for the mapping's lifetime, and the
        // returned borrow cannot outlive `self`, which owns the unmap.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn base_addr(&self) -> usize {
        self.ptr as usize
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        if self.len > 0 && !self.ptr.is_null() {
            sys::unmap(self.ptr, self.len);
        }
    }
}

impl fmt::Debug for MappedRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedRegion").field("len", &self.len).finish()
    }
}

/// Where a mapped storage's bytes live inside its region, for the VAQ113
/// audit ("mapped extents stay within file bounds and alignment").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedSpan {
    /// Byte offset of the storage's first element inside the region.
    pub offset: usize,
    /// Length of the storage in bytes.
    pub byte_len: usize,
    /// Total region (file) length in bytes.
    pub region_len: usize,
    /// Whether `offset` sits on a [`PAGE_ALIGN`] boundary.
    pub aligned: bool,
}

macro_rules! typed_storage {
    ($(#[$doc:meta])* $name:ident, $elem:ty) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub enum $name {
            /// The in-RAM path: the storage owns its elements.
            Owned(Vec<$elem>),
            /// A typed window of `len` elements starting `offset` bytes
            /// into a shared read-only mapping.
            Mapped {
                /// The backing mapping, shared with sibling storages.
                region: Arc<MappedRegion>,
                /// Byte offset of the first element.
                offset: usize,
                /// Element (not byte) count.
                len: usize,
            },
        }

        impl $name {
            /// A mapped storage of `len` elements at byte `offset`.
            /// `None` when the window escapes the region, the offset is
            /// misaligned for the element type, or the byte size
            /// overflows — callers degrade to an owned copy.
            pub fn mapped(
                region: Arc<MappedRegion>,
                offset: usize,
                len: usize,
            ) -> Option<$name> {
                let bytes = len.checked_mul(core::mem::size_of::<$elem>())?;
                let end = offset.checked_add(bytes)?;
                if end > region.len() {
                    return None;
                }
                if region
                    .base_addr()
                    .checked_add(offset)?
                    % core::mem::align_of::<$elem>()
                    != 0
                {
                    return None;
                }
                Some($name::Mapped { region, offset, len })
            }

            /// The elements, whichever variant holds them.
            pub fn as_slice(&self) -> &[$elem] {
                match self {
                    $name::Owned(v) => v.as_slice(),
                    $name::Mapped { region, offset, len } => {
                        if *len == 0 {
                            return &[];
                        }
                        let base = region.as_bytes()[*offset..].as_ptr();
                        // SAFETY: the `mapped` constructor proved that
                        // `offset + len * size_of::<elem>()` fits in the
                        // region and that `base` is aligned for the
                        // element type; the target is little-endian (cfg
                        // on sys::map), the bytes are immutable, and any
                        // bit pattern is a valid u8/u16/u32/u64/f32.
                        unsafe {
                            core::slice::from_raw_parts(base as *const $elem, *len)
                        }
                    }
                }
            }

            /// A mutable owned vector, materializing a copy when the
            /// storage is mapped (copy-on-write for the rare mutating
            /// paths, e.g. deletes on a mapped index).
            pub fn to_mut(&mut self) -> &mut Vec<$elem> {
                if let $name::Mapped { .. } = self {
                    *self = $name::Owned(self.as_slice().to_vec());
                }
                match self {
                    $name::Owned(v) => v,
                    // Unreachable: the match above rewrote Mapped.
                    $name::Mapped { .. } => unreachable!("storage just materialized"),
                }
            }

            /// Span metadata when mapped (`None` for owned storage); see
            /// [`MappedSpan`].
            pub fn mapped_span(&self) -> Option<MappedSpan> {
                match self {
                    $name::Owned(_) => None,
                    $name::Mapped { region, offset, len } => Some(MappedSpan {
                        offset: *offset,
                        byte_len: len * core::mem::size_of::<$elem>(),
                        region_len: region.len(),
                        aligned: offset % PAGE_ALIGN == 0,
                    }),
                }
            }

            /// `true` when the storage borrows from a mapping.
            pub fn is_mapped(&self) -> bool {
                matches!(self, $name::Mapped { .. })
            }
        }

        impl core::ops::Deref for $name {
            type Target = [$elem];

            fn deref(&self) -> &[$elem] {
                self.as_slice()
            }
        }

        impl Default for $name {
            fn default() -> $name {
                $name::Owned(Vec::new())
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> $name {
                $name::Owned(v)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &$name) -> bool {
                self.as_slice() == other.as_slice()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $name::Owned(v) => {
                        write!(f, concat!(stringify!($name), "::Owned(len={})"), v.len())
                    }
                    $name::Mapped { offset, len, .. } => write!(
                        f,
                        concat!(stringify!($name), "::Mapped(offset={}, len={})"),
                        offset, len
                    ),
                }
            }
        }
    };
}

typed_storage!(
    /// Byte storage for [`crate::PackedCodes`] blocks.
    CodesStorage,
    u8
);
typed_storage!(
    /// Storage for row-major `u16` code arrays.
    U16Storage,
    u16
);
typed_storage!(
    /// Storage for `u32` arrays (global ids, TI member indices).
    U32Storage,
    u32
);
typed_storage!(
    /// Storage for `f32` arrays (TI member distances).
    F32Storage,
    f32
);
typed_storage!(
    /// Storage for `u64` arrays (tombstone bitmap words).
    U64Storage,
    u64
);

impl Eq for CodesStorage {}
impl Eq for U16Storage {}
impl Eq for U32Storage {}
impl Eq for U64Storage {}

/// One extent's placement inside a mapped file, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentSpan {
    /// Absolute byte offset of the payload.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(bytes: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "vaq-mmap-test-{}-{}",
            std::process::id(),
            bytes.len()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
        (path.clone(), File::open(&path).unwrap())
    }

    #[test]
    fn owned_storages_deref_and_compare() {
        let a = U32Storage::from(vec![1, 2, 3]);
        let b = U32Storage::from(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert!(a.mapped_span().is_none());
        assert!(!a.is_mapped());
    }

    #[cfg(all(
        not(miri),
        any(target_os = "linux", target_os = "macos"),
        target_pointer_width = "64",
        target_endian = "little"
    ))]
    mod mapped {
        use super::*;

        #[test]
        fn mapped_bytes_match_the_file() {
            let payload: Vec<u8> = (0..=255u8).cycle().take(9000).collect();
            let (path, f) = tmp_file(&payload);
            let region = MappedRegion::map_file(&f).expect("mmap supported here");
            assert_eq!(region.as_bytes(), &payload[..]);
            let storage = CodesStorage::mapped(Arc::clone(&region), 100, 500).unwrap();
            assert_eq!(&storage[..], &payload[100..600]);
            let span = storage.mapped_span().unwrap();
            assert_eq!(span.byte_len, 500);
            assert_eq!(span.region_len, 9000);
            assert!(!span.aligned);
            std::fs::remove_file(path).unwrap();
        }

        #[test]
        fn typed_views_decode_little_endian_values() {
            let mut bytes = vec![0u8; 4096 + 16];
            bytes[4096..4100].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            bytes[4100..4104].copy_from_slice(&7u32.to_le_bytes());
            bytes[4104..4108].copy_from_slice(&1.5f32.to_le_bytes());
            let (path, f) = tmp_file(&bytes);
            let region = MappedRegion::map_file(&f).unwrap();
            let ints = U32Storage::mapped(Arc::clone(&region), 4096, 2).unwrap();
            assert_eq!(&ints[..], &[0xDEAD_BEEF, 7]);
            assert!(ints.mapped_span().unwrap().aligned);
            let floats = F32Storage::mapped(Arc::clone(&region), 4104, 1).unwrap();
            assert_eq!(&floats[..], &[1.5]);
            std::fs::remove_file(path).unwrap();
        }

        #[test]
        fn out_of_bounds_and_misaligned_windows_are_refused() {
            let (path, f) = tmp_file(&[0u8; 64]);
            let region = MappedRegion::map_file(&f).unwrap();
            assert!(U32Storage::mapped(Arc::clone(&region), 0, 17).is_none(), "past end");
            assert!(U32Storage::mapped(Arc::clone(&region), 2, 1).is_none(), "misaligned");
            assert!(
                U64Storage::mapped(Arc::clone(&region), usize::MAX, 1).is_none(),
                "offset overflow"
            );
            assert!(U32Storage::mapped(Arc::clone(&region), 0, 16).is_some());
            std::fs::remove_file(path).unwrap();
        }

        #[test]
        fn to_mut_materializes_an_owned_copy() {
            let (path, f) = tmp_file(&[1, 2, 3, 4, 5, 6, 7, 8]);
            let region = MappedRegion::map_file(&f).unwrap();
            let mut storage = CodesStorage::mapped(region, 0, 8).unwrap();
            storage.to_mut()[0] = 99;
            assert!(!storage.is_mapped());
            assert_eq!(&storage[..], &[99, 2, 3, 4, 5, 6, 7, 8]);
            std::fs::remove_file(path).unwrap();
        }
    }
}
