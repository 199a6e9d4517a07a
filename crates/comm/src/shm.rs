//! Shared-memory regions: the body carrier of a same-host (UDS) stream.
//!
//! Over a Unix-domain socket an all-reduce body crossed the kernel twice per
//! hop, and the hub served every rank's hops in series. Here each rank owns
//! two **request regions**, writes its all-reduce rounds into them in turn,
//! and maps every peer's read-only. A body is written once, and every rank
//! folds every body — its own included — straight out of the regions
//! ([`fold`]); the socket carries only a descriptor, which the hub relays
//! without touching a body. See `net`'s all-reduce paths.
//!
//! A region is a `/dev/shm/grace-<pid>-<salt>-<nonce>-<tag>` file (`shm_open`
//! semantics: created with `create_new`, mode 0600) mapped `MAP_SHARED`. It
//! grows only, and only with `fallocate`, so a full tmpfs is an `ENOSPC`
//! error at growth time rather than a `SIGBUS` at first touch.
//!
//! # The ownership invariant
//!
//! This is the `SAFETY` argument of every block below. A rank writes its
//! all-reduce round *t* into its region *t* mod 2; every rank that takes part
//! in the round (the owner included) is one of its readers.
//!
//! * A region is written only by its owner, and rewritten at round *t+2*
//!   only after the owner has received response *t+1*.
//! * Response *t+1* exists only once every reader has sent request *t+1*.
//! * Every reader finishes folding round *t* before it sends request *t+1*.
//!   So no reader is still reading a region when its owner rewrites it.
//! * Every access is bounds-checked against this process's own mapping
//!   (`read_at`, `write_at`); a length a peer claims is checked against the
//!   region's size before any access (`expose`).
//! * Every byte is copied out of a mapping once, into private memory, and
//!   the CRC and the arithmetic both see that private copy. A peer that
//!   breaks the protocol (writes out of turn) can therefore cause a CRC
//!   mismatch or a typed error, never an out-of-bounds access.
//!
//! Outside the invariant: a process that truncates a region file another
//! process has mapped makes that process's next touch of the lost pages
//! raise `SIGBUS`. Regions are created 0600 and their names removed once
//! every rank holds them, so only a process of the same user that already
//! holds the file can do that; the protocol itself never shrinks a region.

use grace_tensor::pack::{add_f32s_le, Crc32};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where regions live.
pub(crate) const SHM_DIR: &str = "/dev/shm";

/// Every region name starts with this; no peer's name outside it is opened.
const PREFIX: &str = "grace-";

/// Longest name accepted from a peer.
const MAX_NAME: usize = 128;

/// Regions grow in whole multiples of this.
const GRANULE: usize = 64 << 10;

/// Bytes one step of a fused pass works over: two of these (the running sum
/// and the next contribution) stay in L1 together.
const CHUNK: usize = 8 << 10;

/// Whether `name` is one a region of this crate could have: the prefix,
/// then ASCII letters, digits and `-` only — no `/`, no `.`, no way out of
/// the region directory.
pub(crate) fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME
        && name.starts_with(PREFIX)
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
}

/// One mapped region file.
#[derive(Debug)]
pub(crate) struct Region {
    file: File,
    /// Start of the mapping (null while nothing is mapped).
    ptr: *mut u8,
    /// Bytes mapped at `ptr`.
    mapped: usize,
    /// Created here (mapped read-write) rather than opened from a peer's
    /// name (read-only).
    writable: bool,
    name: String,
    /// The name this process removes on drop: a created file's, until it
    /// is handed over.
    path: Option<PathBuf>,
}

// SAFETY: `ptr` is the one field that is not `Send` by itself. A `Region`
// owns its mapping as a `Vec` owns its buffer: the pointer never leaves the
// struct, every access goes through `&self` / `&mut self` methods, and the
// mapping is process-wide, valid on any thread until `Drop` unmaps it.
// `file`, `mapped`, `writable`, `name` and `path` are `Send` themselves.
unsafe impl Send for Region {}

impl Region {
    /// Creates a fresh, empty region file in `dir`, readable and writable by
    /// this user only; `tag` (ASCII letters and digits) ends its name.
    pub(crate) fn create(dir: &Path, tag: &str) -> io::Result<Region> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        sys::supported()?;
        let salt = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let mut last = None;
        // A stale file of a dead process with a recycled pid can hold a
        // name; the next nonce sidesteps it.
        for _ in 0..8 {
            let nonce = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("{PREFIX}{}-{salt:x}-{nonce}-{tag}", std::process::id());
            debug_assert!(valid_name(&name), "{name}");
            let path = dir.join(&name);
            let mut options = OpenOptions::new();
            options.read(true).write(true).create_new(true);
            #[cfg(unix)]
            std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
            match options.open(&path) {
                Ok(file) => return Ok(Region::new(file, name, Some(path))),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Opens a peer's region `name` in `dir` read-only, once [`check`] has
    /// passed it.
    pub(crate) fn open(dir: &Path, name: &str) -> io::Result<Region> {
        let path = check(dir, name)?;
        sys::supported()?;
        let file = File::open(&path)?;
        Ok(Region::new(file, name.to_string(), None))
    }

    fn new(file: File, name: String, path: Option<PathBuf>) -> Region {
        Region {
            file,
            ptr: std::ptr::null_mut(),
            mapped: 0,
            writable: path.is_some(),
            name,
            path,
        }
    }

    /// The region's file name (what rides in `HELLO` / `WELCOME`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Hands the name over to the hub, which removes it once every peer
    /// has opened the file — possibly after this region is gone.
    pub(crate) fn hand_over(&mut self) {
        self.path = None;
    }

    /// Writer side: makes at least `len` bytes writable, growing the file
    /// with `fallocate` (a full tmpfs fails here, with `ENOSPC`).
    pub(crate) fn reserve(&mut self, len: usize) -> io::Result<()> {
        if len <= self.mapped {
            return Ok(());
        }
        let size = len.div_ceil(GRANULE) * GRANULE;
        sys::grow(&self.file, size)?;
        self.remap(size)
    }

    /// Reader side: makes the first `len` bytes readable, or fails when the
    /// region is smaller than that. `len` is a peer's claim: it is checked
    /// against the file's size before anything is mapped or read.
    pub(crate) fn expose(&mut self, len: usize) -> io::Result<()> {
        if len <= self.mapped {
            return Ok(());
        }
        let size = self.file.metadata()?.len();
        if len as u64 > size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "descriptor length {len} exceeds region {} of {size} bytes",
                    self.name
                ),
            ));
        }
        // Never past the file's end: pages there would fault on touch.
        let size = usize::try_from(size).unwrap_or(usize::MAX);
        self.remap((len.div_ceil(GRANULE) * GRANULE).min(size))
    }

    fn remap(&mut self, size: usize) -> io::Result<()> {
        self.unmap();
        self.ptr = sys::map(&self.file, size, self.writable)?;
        self.mapped = size;
        Ok(())
    }

    fn unmap(&mut self) {
        if !self.ptr.is_null() {
            sys::unmap(self.ptr, self.mapped);
            self.ptr = std::ptr::null_mut();
            self.mapped = 0;
        }
    }

    /// Copies `dst.len()` bytes at offset `at` out of the mapping.
    ///
    /// # Panics
    ///
    /// Panics when the range is not inside the mapping.
    fn read_at(&self, at: usize, dst: &mut [u8]) {
        if dst.is_empty() {
            return;
        }
        let end = at.checked_add(dst.len());
        assert!(
            end.is_some_and(|end| end <= self.mapped),
            "read past the mapping"
        );
        // SAFETY: `ptr..ptr + mapped` is a live mapping this struct owns and
        // the range was just checked to lie inside it; `dst` is private
        // memory of this process, so the two cannot overlap. By the
        // ownership invariant the owner does not rewrite a region a reader
        // is folding (round t+2 waits for response t+1, which waits for
        // every reader's request t+1, sent after its fold of round t); an
        // owner writing out of turn changes only what `dst` receives, which
        // the caller's CRC then rejects.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(at), dst.as_mut_ptr(), dst.len()) }
    }

    /// Copies `src` into the mapping at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics when the region is read-only or the range is not inside the
    /// mapping.
    fn write_at(&mut self, at: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        assert!(self.writable, "write to a read-only region");
        let end = at.checked_add(src.len());
        assert!(
            end.is_some_and(|end| end <= self.mapped),
            "write past the mapping"
        );
        // SAFETY: the mapping is live, writable (checked) and owned by this
        // struct, the range lies inside it (checked), and `src` is private
        // memory of this process. By the ownership invariant no reader
        // folds this region while its owner writes it: the owner rewrites
        // round t's region at round t+2, after response t+1, which exists
        // only once every reader has finished round t and sent request t+1.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(at), src.len()) }
    }

    /// Inverts one bit of the byte at `at` (the corruption test hook, and
    /// its undo before a resend).
    pub(crate) fn flip(&mut self, at: usize) {
        let mut byte = [0u8];
        self.read_at(at, &mut byte);
        self.write_at(at, &[byte[0] ^ 0x10]);
    }

    /// Rank, request: writes `data` as little-endian `f32`s at the start of
    /// the region and returns their CRC — one pass, chunk by chunk.
    pub(crate) fn put_f32s(&mut self, data: &[f32]) -> io::Result<u32> {
        self.reserve(4 * data.len())?;
        let mut crc = Crc32::new();
        let mut chunk = [0u8; CHUNK];
        for (i, words) in data.chunks(CHUNK / 4).enumerate() {
            let bytes = &mut chunk[..4 * words.len()];
            for (b, w) in bytes.chunks_exact_mut(4).zip(words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            crc.update(bytes);
            self.write_at(i * CHUNK, bytes);
        }
        Ok(crc.finish())
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        self.unmap();
        // The creator's name, unless handed over: a peer that merely opened
        // it may be gone long before another opens it.
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Checks a peer's region name: one a region of this crate could have
/// ([`valid_name`]), naming a regular file in `dir`. Returns its path.
pub(crate) fn check(dir: &Path, name: &str) -> io::Result<PathBuf> {
    if !valid_name(name) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("region name {name:?} is not a {PREFIX}… name"),
        ));
    }
    let path = dir.join(name);
    if !std::fs::metadata(&path)?.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("region {name} is not a regular file"),
        ));
    }
    Ok(path)
}

/// One contribution to [`fold`]: a rank's request region (exposed to the
/// body's length) and the CRC its descriptor claims for the body.
pub(crate) struct Contribution<'a> {
    pub(crate) region: &'a Region,
    pub(crate) crc: u32,
}

/// Rank: the round's fused pass. Sums the little-endian `f32` bodies of
/// every contribution, in the order given (rank order), into `out`. Chunk by
/// chunk, each body is copied into L1 and checked against its CRC as it is
/// read; the first is the running sum, later ones are added to it
/// (`add_f32s_le`), and the finished chunk is decoded into `out` — element
/// *i* is `r0[i] + r1[i] + …` exactly as the inline path computes it.
///
/// Returns `Err(i)` when contribution `i` is the first whose bytes fail
/// their CRC: `out` then holds no sum, and the caller has the body resent
/// and folds the round again.
pub(crate) fn fold(out: &mut [f32], contributions: &[Contribution<'_>]) -> Result<(), usize> {
    let mut crcs = vec![Crc32::new(); contributions.len()];
    let (mut acc, mut next) = ([0u8; CHUNK], [0u8; CHUNK]);
    for (i, words) in out.chunks_mut(CHUNK / 4).enumerate() {
        let n = 4 * words.len();
        let (acc, next) = (&mut acc[..n], &mut next[..n]);
        for (j, (c, crc)) in contributions.iter().zip(&mut crcs).enumerate() {
            if j == 0 {
                c.region.read_at(i * CHUNK, acc);
                crc.update(acc);
            } else {
                c.region.read_at(i * CHUNK, next);
                crc.update(next);
                add_f32s_le(acc, next);
            }
        }
        for (w, b) in words.iter_mut().zip(acc.as_chunks::<4>().0) {
            *w = f32::from_le_bytes(*b);
        }
    }
    let bad = contributions
        .iter()
        .zip(crcs)
        .position(|(c, crc)| crc.finish() != c.crc);
    bad.map_or(Ok(()), Err)
}

/// The three system calls, on the targets whose ABI is declared here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn fallocate(fd: c_int, mode: c_int, offset: i64, len: i64) -> c_int;
    }

    pub(super) fn supported() -> io::Result<()> {
        Ok(())
    }

    /// Allocates the file's first `size` bytes (extending it as needed).
    pub(super) fn grow(file: &File, size: usize) -> io::Result<()> {
        #[cfg(test)]
        if let Some(errno) = super::tests::take_growth_failure() {
            return Err(io::Error::from_raw_os_error(errno));
        }
        let len = i64::try_from(size).map_err(|_| io::Error::other("region too large"))?;
        // SAFETY: `fallocate` only reads its integer arguments; the
        // descriptor is open for writing for the duration of the call
        // (borrowed from `file`).
        let rc = unsafe { fallocate(file.as_raw_fd(), 0, 0, len) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Maps the file's first `size` bytes, shared.
    pub(super) fn map(file: &File, size: usize, writable: bool) -> io::Result<*mut u8> {
        let prot = if writable {
            PROT_READ | PROT_WRITE
        } else {
            PROT_READ
        };
        // SAFETY: a fresh mapping at an address the kernel picks (null
        // hint) cannot alias any existing Rust object; the descriptor is
        // open for the call, and the result is checked for MAP_FAILED
        // before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                size,
                prot,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    /// Unmaps what [`map`] returned.
    pub(super) fn unmap(ptr: *mut u8, size: usize) {
        // SAFETY: `ptr`/`size` are exactly a mapping `map` returned and the
        // caller's only handle to it, which it forgets right after; no
        // reference into it outlives the call (every access copies out).
        unsafe { munmap(ptr.cast(), size) };
    }
}

/// Elsewhere no region can be created, so streams keep inline bodies.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::fs::File;
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory regions are Linux-only",
        )
    }

    pub(super) fn supported() -> io::Result<()> {
        Err(unsupported())
    }

    pub(super) fn grow(_: &File, _: usize) -> io::Result<()> {
        Err(unsupported())
    }

    pub(super) fn map(_: &File, _: usize, _: bool) -> io::Result<*mut u8> {
        Err(unsupported())
    }

    pub(super) fn unmap(_: *mut u8, _: usize) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        static FAIL_GROWTH: std::cell::Cell<Option<i32>> = const { std::cell::Cell::new(None) };
    }

    /// Test hook: the calling thread's next region growth fails with
    /// `errno`.
    pub(crate) fn fail_next_growth(errno: i32) {
        FAIL_GROWTH.with(|f| f.set(Some(errno)));
    }

    /// Test hook: takes the calling thread's pending growth failure.
    pub(crate) fn take_growth_failure() -> Option<i32> {
        FAIL_GROWTH.with(|f| f.take())
    }

    fn dir() -> &'static Path {
        Path::new(SHM_DIR)
    }

    #[test]
    fn names_outside_the_prefix_or_with_path_characters_are_refused() {
        for bad in [
            "",
            "grace",
            "evil-1",
            "grace-1/../../etc/passwd",
            "grace-1.sock",
            "grace-a b",
            &format!("grace-{}", "x".repeat(MAX_NAME)),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
            let e = Region::open(dir(), bad).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{bad:?}: {e}");
        }
        assert!(valid_name("grace-123-abc0-r0"));
    }

    fn put(tag: &str, data: &[f32]) -> (Region, u32) {
        let mut region = Region::create(dir(), tag).unwrap();
        let crc = region.put_f32s(data).unwrap();
        region.expose(4 * data.len()).unwrap();
        (region, crc)
    }

    #[test]
    fn a_reader_sees_what_the_writer_put_and_no_further() {
        let mut w = Region::create(dir(), "t").unwrap();
        let data: Vec<f32> = (0..5000).map(|i| i as f32 * 0.25 - 7.0).collect();
        let crc = w.put_f32s(&data).unwrap();
        let mut r = Region::open(dir(), w.name()).unwrap();
        std::fs::remove_file(dir().join(w.name())).unwrap();
        r.expose(4 * data.len()).unwrap();
        let mut out = vec![0.0; data.len()];
        let region = &r;
        assert_eq!(fold(&mut out, &[Contribution { region, crc }]), Ok(()));
        assert_eq!(out, data);
        // The file is one granule: a claim past it is refused unmapped.
        let e = r.expose(GRANULE + 1).unwrap_err();
        assert!(e.to_string().contains("exceeds"), "{e}");
    }

    #[test]
    fn fold_sums_in_order_and_names_a_torn_contribution() {
        let a: Vec<f32> = (0..3000).map(|i| i as f32 / 3.0).collect();
        let b: Vec<f32> = (0..3000).map(|i| 1e7 - i as f32).collect();
        let ((ra, ca), (mut rb, cb)) = (put("a", &a), put("b", &b));
        let mut sum = vec![0.0; a.len()];
        let cs = [
            Contribution {
                region: &ra,
                crc: ca,
            },
            Contribution {
                region: &rb,
                crc: cb,
            },
        ];
        assert_eq!(fold(&mut sum, &cs), Ok(()));
        let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(sum, want);

        rb.flip(4 * a.len() / 2);
        let cs = [
            Contribution {
                region: &ra,
                crc: ca,
            },
            Contribution {
                region: &rb,
                crc: cb,
            },
        ];
        assert_eq!(fold(&mut sum, &cs), Err(1));
    }

    /// The oracle [`fold`] must match bit for bit: a hub-side fused pass
    /// that builds the sum once into an image region, which each rank then
    /// copies out.
    fn hub_reduce(image: &mut Region, contributions: &[Contribution<'_>], len: usize) -> u32 {
        image.reserve(len).unwrap();
        let mut sum_crc = Crc32::new();
        let (mut acc, mut next) = ([0u8; CHUNK], [0u8; CHUNK]);
        for at in (0..len).step_by(CHUNK) {
            let n = CHUNK.min(len - at);
            let (acc, next) = (&mut acc[..n], &mut next[..n]);
            for (i, c) in contributions.iter().enumerate() {
                if i == 0 {
                    c.region.read_at(at, acc);
                } else {
                    c.region.read_at(at, next);
                    add_f32s_le(acc, next);
                }
            }
            sum_crc.update(acc);
            image.write_at(at, acc);
        }
        sum_crc.finish()
    }

    /// The rank's copy out of the image (the oracle's second half).
    fn take_f32s(image: &Region, out: &mut [f32]) -> u32 {
        let mut crc = Crc32::new();
        let mut chunk = [0u8; CHUNK];
        for (i, words) in out.chunks_mut(CHUNK / 4).enumerate() {
            let bytes = &mut chunk[..4 * words.len()];
            image.read_at(i * CHUNK, bytes);
            crc.update(bytes);
            for (w, b) in words.iter_mut().zip(bytes.as_chunks::<4>().0) {
                *w = f32::from_le_bytes(*b);
            }
        }
        crc.finish()
    }

    /// Every bit of the rank-side fold is the hub pass's: NaNs of both
    /// signs with payloads, ±0, ±∞ and subnormals, at lengths around and
    /// across the chunk, for one to three contributors. Every rank holds a
    /// NaN of its own at the last element, and the sum keeps rank 0's, as
    /// `sum_into` (the board's sum) does everywhere.
    #[test]
    fn the_fold_matches_the_hub_pass_bit_for_bit() {
        let specials = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0x7f80_0003),
            f32::from_bits(0xff80_0004),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
            1.5,
            -3.25e7,
        ];
        let value = |rank: usize, i: usize| {
            let k = i.wrapping_mul(2_654_435_761).wrapping_add(rank * 97) >> 3;
            match k % 3 {
                0 => specials[k / 3 % specials.len()],
                1 => (k % 1009) as f32 * -0.125 + rank as f32,
                _ => f32::from_bits((k as u32).wrapping_mul(0x9e37_79b9)),
            }
        };
        let words = CHUNK / 4;
        for len in [0, 1, words - 1, words, words + 1, 3 * words + 17] {
            for ranks in 1..=3 {
                let data: Vec<Vec<f32>> = (0..ranks)
                    .map(|r| {
                        let mut data: Vec<f32> = (0..len).map(|i| value(r, i)).collect();
                        if let Some(last) = data.last_mut() {
                            let sign = (r as u32 & 1) << 31;
                            *last = f32::from_bits(sign | 0x7fc0_0010 | r as u32);
                        }
                        data
                    })
                    .collect();
                let regions: Vec<(Region, u32)> = (data.iter().enumerate())
                    .map(|(r, data)| put(&format!("f{r}"), data))
                    .collect();
                let cs: Vec<Contribution<'_>> = regions
                    .iter()
                    .map(|(region, crc)| Contribution { region, crc: *crc })
                    .collect();
                let mut image = Region::create(dir(), "img").unwrap();
                let image_crc = hub_reduce(&mut image, &cs, 4 * len);
                let mut want = vec![0.0f32; len];
                assert_eq!(take_f32s(&image, &mut want), image_crc);
                let mut got = vec![7.0f32; len];
                assert_eq!(fold(&mut got, &cs), Ok(()), "{len} × {ranks}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{len} × {ranks}");
                let mut board = data[0].clone();
                for d in &data[1..] {
                    grace_tensor::simd::sum_into(&mut board, d);
                }
                assert_eq!(bits(&got), bits(&board), "{len} × {ranks}");
                if len > 0 {
                    assert_eq!(got[len - 1].to_bits(), 0x7fc0_0010, "{len} × {ranks}");
                }
            }
        }
    }

    #[test]
    fn growth_failure_is_an_error_not_a_signal() {
        let mut w = Region::create(dir(), "g").unwrap();
        fail_next_growth(28); // ENOSPC
        let e = w.put_f32s(&[1.0; 16]).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28));
        assert_eq!(
            w.put_f32s(&[1.0; 16]).unwrap(),
            grace_tensor::pack::crc32(&[0, 0, 0x80, 0x3f].repeat(16))
        );
    }
}
