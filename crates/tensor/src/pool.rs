//! A per-thread intra-op pool: one kernel's *output* split into disjoint
//! contiguous ranges, one range per thread.
//!
//! # Why the bits cannot move
//!
//! A pooled kernel cuts its output — rows of `C`, elements of a parameter —
//! into contiguous ranges. The calling thread and its helpers each take
//! ranges, and the call returns only when every range is done. Each output element is therefore computed by exactly one
//! thread, with the same sequence of operations the serial body runs for it,
//! so the result is bit-identical at every width. No reduction is ever split
//! across threads: a sum whose order matters (a norm, a loss, a bias
//! column sum, top-k's selection) stays on one thread.
//!
//! # Width
//!
//! A thread's width is derived, never configured: a compute thread's share
//! of this host is `max(1, cores ÷ ranks computing on it)` ([`share`]).
//! A training rank sets it for its run ([`take_share`]); a thread that
//! never sets it — the thread running the simulator, set-up code outside a run —
//! gets every core. At width 1 every call runs its body inline on the caller,
//! which is the serial code path.
//!
//! # Shape
//!
//! Each thread that needs width `w > 1` owns `w − 1` persistent helpers,
//! spawned on first use; nothing is spawned per call. The caller and the
//! helpers claim the ranges of a call one at a time, so a helper that wakes
//! late (or not at all, on a busy host) costs at most the serial time.
//! Helpers spin briefly after a job, then park. A region whose estimated
//! work is below [`INLINE_WORK`] runs inline, and a warm dispatch allocates
//! nothing. The module's `unsafe` — handing a helper a job that borrows the
//! caller's stack, and the disjoint ranges of one output — is all in this
//! file.

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Estimated element-operations below which a region runs inline, and the
/// least work a range is given: about what waking a helper costs.
pub const INLINE_WORK: usize = 1 << 15;

/// How long a helper (or the caller, waiting for helpers) spins before it
/// parks.
const SPIN: Duration = Duration::from_millis(1);

/// A compute thread's width: its share of `cores` when `ranks` ranks
/// compute on the same host — `max(1, cores ÷ ranks)`.
pub fn share(cores: usize, ranks: usize) -> usize {
    (cores / ranks.max(1)).max(1)
}

/// This host's available parallelism (1 when it cannot be read).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

std::thread_local! {
    /// This thread's width; `None` means every core.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

/// This thread's width.
pub fn width() -> usize {
    WIDTH.with(Cell::get).unwrap_or_else(cores)
}

/// Restores the calling thread's previous width when dropped.
#[must_use = "the width holds only while the guard lives"]
pub struct WidthGuard(Option<usize>);

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.with(|w| w.set(self.0));
    }
}

fn set_width(width: usize) -> WidthGuard {
    WidthGuard(WIDTH.with(|w| w.replace(Some(width.max(1)))))
}

/// Gives the calling thread its [`share`] of `cores` while `ranks` ranks
/// compute on them, until the guard drops. A run passes the [`width`] of the
/// thread that launched it: every core, unless a test pinned it.
pub fn take_share(cores: usize, ranks: usize) -> WidthGuard {
    set_width(share(cores, ranks))
}

/// Runs `f` with the calling thread at `width`, whatever the host's core
/// count — how the width-equivalence tests pin widths 1, 2, 3 and 5.
#[doc(hidden)]
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = set_width(width);
    f()
}

/// Runs `body` over disjoint row ranges that cover `0..rows` and the
/// matching slices of `out` (`out.len()` is a whole number of rows). Ranges
/// start at multiples of `grain` rows; `work` estimates the region's
/// element-operations.
///
/// # Panics
///
/// Panics if `out` does not split into `rows` equal rows, or if `body`
/// panics on any thread.
pub fn split_rows<T: Send>(
    out: &mut [T],
    rows: usize,
    grain: usize,
    work: usize,
    body: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let row = row_len(out.len(), rows);
    let Some(parts) = parts(rows, grain, work) else {
        return body(0..rows, out);
    };
    let out = Shard::new(out);
    run(parts, &|p| {
        let r = cut(rows, grain, parts, p);
        // SAFETY: `cut` gives each part index a distinct range of rows, the
        // ranges are disjoint, and `run` hands each index to exactly one
        // thread; `out` stays borrowed until `run` returns, which is after
        // every part is done.
        let slice = unsafe { out.part(r.start * row..r.end * row) };
        body(r, slice);
    });
}

/// [`split_rows`] over two outputs cut at the same rows.
///
/// # Panics
///
/// As [`split_rows`], for either output.
pub fn split_rows2<T: Send, U: Send>(
    a: &mut [T],
    b: &mut [U],
    rows: usize,
    grain: usize,
    work: usize,
    body: impl Fn(Range<usize>, &mut [T], &mut [U]) + Sync,
) {
    let (row_a, row_b) = (row_len(a.len(), rows), row_len(b.len(), rows));
    let Some(parts) = parts(rows, grain, work) else {
        return body(0..rows, a, b);
    };
    let (a, b) = (Shard::new(a), Shard::new(b));
    run(parts, &|p| {
        let r = cut(rows, grain, parts, p);
        // SAFETY: as in `split_rows` — distinct part indices get disjoint row
        // ranges of each output, each index runs on one thread, and both
        // outputs stay borrowed until every part is done.
        let (sa, sb) = unsafe {
            (
                a.part(r.start * row_a..r.end * row_a),
                b.part(r.start * row_b..r.end * row_b),
            )
        };
        body(r, sa, sb);
    });
}

/// A fresh buffer of `len` floats in `rows` rows, each range zeroed by the
/// thread that then runs `body` over it — no serial fill before a kernel
/// that overwrites (or accumulates into) its whole output.
///
/// # Panics
///
/// As [`split_rows`].
pub fn fresh_rows(
    len: usize,
    rows: usize,
    grain: usize,
    work: usize,
    body: impl Fn(Range<usize>, &mut [f32]) + Sync,
) -> Vec<f32> {
    if parts(rows, grain, work).is_none() {
        let mut out = vec![0.0f32; len];
        body(0..rows, &mut out);
        return out;
    }
    let mut out = Vec::<f32>::with_capacity(len);
    split_rows(
        &mut out.spare_capacity_mut()[..len],
        rows,
        grain,
        work,
        |r, slots| {
            for slot in slots.iter_mut() {
                slot.write(0.0);
            }
            // SAFETY: every slot of this range was initialised just above, and
            // `MaybeUninit<f32>` has `f32`'s size and alignment.
            let zeroed = unsafe { &mut *(slots as *mut [MaybeUninit<f32>] as *mut [f32]) };
            body(r, zeroed);
        },
    );
    // SAFETY: `split_rows` returned, so its ranges — which cover `0..len` —
    // have each been initialised by the thread that ran them.
    unsafe { out.set_len(len) };
    out
}

/// `len ÷ rows`, asserting the division is exact.
fn row_len(len: usize, rows: usize) -> usize {
    if rows == 0 {
        assert_eq!(len, 0, "an output of zero rows is empty");
        return 0;
    }
    assert_eq!(
        len % rows,
        0,
        "output of {len} does not split into {rows} rows"
    );
    len / rows
}

/// How many parts a region runs in, or `None` to run it inline.
fn parts(rows: usize, grain: usize, work: usize) -> Option<usize> {
    let width = width();
    if width < 2 || work < INLINE_WORK {
        return None;
    }
    let blocks = rows.div_ceil(grain.max(1));
    let parts = width.min(blocks).min(work / INLINE_WORK);
    (parts >= 2).then_some(parts)
}

/// Rows of part `p` out of `parts`: contiguous, balanced to a block, and
/// starting on a multiple of `grain`.
fn cut(rows: usize, grain: usize, parts: usize, p: usize) -> Range<usize> {
    let grain = grain.max(1);
    let blocks = rows.div_ceil(grain);
    let edge = |q: usize| (blocks * q / parts * grain).min(rows);
    edge(p)..edge(p + 1)
}

/// One output shared by the threads of a dispatch, each of which takes its
/// own range.
struct Shard<'a, T> {
    ptr: *mut T,
    len: usize,
    _out: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: a `Shard` only hands out `&mut` slices of `T` through `part`,
// whose contract keeps them disjoint, so sharing it moves `T`s between
// threads exactly as splitting the slice would — sound for `T: Send`.
unsafe impl<T: Send> Sync for Shard<'_, T> {}

impl<'a, T> Shard<'a, T> {
    fn new(out: &'a mut [T]) -> Self {
        Shard {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _out: std::marker::PhantomData,
        }
    }

    /// The elements `r` of the output.
    ///
    /// # Safety
    ///
    /// No two live results of `part` on one `Shard` may overlap.
    #[allow(clippy::mut_from_ref)]
    unsafe fn part(&self, r: Range<usize>) -> &mut [T] {
        assert!(r.start <= r.end && r.end <= self.len, "part out of bounds");
        // SAFETY: `r` lies inside the borrowed output (asserted above), and
        // the caller guarantees no other live part overlaps it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len()) }
    }
}

/// A pointer to the caller's job, bounded by the caller's borrows.
type Borrowed<'a> = *const (dyn Fn(usize) + Sync + 'a);

/// The caller's job, as helpers see it: a pointer they dereference only
/// for a part they have claimed.
#[derive(Clone, Copy)]
struct JobPtr(Borrowed<'static>);

// SAFETY: the pointee is `Sync`, so calling it from any thread is sound;
// when a helper may dereference the pointer at all is `Shared::claim`'s
// contract.
unsafe impl Send for JobPtr {}

/// Low bits of `Shared::claim` that count parts; the rest is the epoch.
const PART_BITS: u32 = 24;

/// The dispatch slot: the current job, stamped with its epoch.
struct Slot {
    epoch: u64,
    parts: usize,
    job: Option<JobPtr>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// `epoch << PART_BITS | next unclaimed part` of the current dispatch.
    /// A part is claimed by moving the count on under an unchanged epoch,
    /// so a helper that read an older slot can never claim a newer part.
    claim: AtomicU64,
    /// Parts of the current dispatch finished (or panicked).
    done: AtomicUsize,
    panicked: AtomicBool,
    quit: AtomicBool,
    owner: Thread,
    owner_parked: AtomicBool,
}

impl Shared {
    /// Claims the next part of dispatch `epoch`, if it is still current
    /// and a part is left.
    fn claim(&self, epoch: u64, parts: usize) -> Option<usize> {
        let mut now = self.claim.load(SeqCst);
        loop {
            let next = (now & ((1 << PART_BITS) - 1)) as usize;
            if now >> PART_BITS != epoch || next >= parts {
                return None;
            }
            match self
                .claim
                .compare_exchange_weak(now, now + 1, SeqCst, SeqCst)
            {
                Ok(_) => return Some(next),
                Err(seen) => now = seen,
            }
        }
    }

    /// Runs claimed part `p`; a panic is recorded, not propagated, so the
    /// part still counts as done. Returns the panic's payload.
    fn run_part(
        &self,
        job: &(dyn Fn(usize) + Sync),
        p: usize,
        parts: usize,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(p))).err();
        if outcome.is_some() {
            self.panicked.store(true, SeqCst);
        }
        if self.done.fetch_add(1, SeqCst) + 1 == parts && self.owner_parked.load(SeqCst) {
            self.owner.unpark();
        }
        outcome
    }
}

struct Helper {
    thread: JoinHandle<()>,
    parked: Arc<AtomicBool>,
}

/// One thread's helpers.
struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<Helper>,
    epoch: u64,
}

impl Pool {
    fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                slot: Mutex::new(Slot {
                    epoch: 0,
                    parts: 0,
                    job: None,
                }),
                claim: AtomicU64::new(0),
                done: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
                quit: AtomicBool::new(false),
                owner: thread::current(),
                owner_parked: AtomicBool::new(false),
            }),
            helpers: Vec::new(),
            epoch: 0,
        }
    }

    fn grow(&mut self, helpers: usize) {
        while self.helpers.len() < helpers {
            let shared = Arc::clone(&self.shared);
            let parked = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&parked);
            let thread = thread::Builder::new()
                .name(format!("grace-pool-{}", self.helpers.len() + 1))
                .spawn(move || helper_loop(&shared, &flag))
                .expect("spawn a pool helper");
            self.helpers.push(Helper { thread, parked });
        }
    }

    /// Runs `job(p)` for every `p` in `0..parts`: the caller and up to
    /// `parts − 1` helpers claim parts until none is left, so a helper that
    /// wakes late costs at most its own part. Returns when all are done.
    fn dispatch(&mut self, parts: usize, job: &(dyn Fn(usize) + Sync)) {
        assert!(parts < 1 << PART_BITS, "too many parts");
        self.grow(parts - 1);
        let shared = &*self.shared;
        self.epoch = (self.epoch + 1) & (u64::MAX >> PART_BITS);
        let epoch = self.epoch;
        let borrowed: Borrowed<'_> = job;
        // SAFETY: only the pointer's lifetime bound changes. Helpers
        // dereference it only for a part they claimed under this epoch;
        // this call does not return — nor unwind — until every part of
        // the epoch is done, and it clears the slot before returning, so no
        // helper can reach the job (or the caller's borrows inside it) once
        // the caller's frame is gone.
        let erased = unsafe { std::mem::transmute::<Borrowed<'_>, JobPtr>(borrowed) };
        shared.done.store(0, SeqCst);
        *shared.slot.lock().expect("pool slot") = Slot {
            epoch,
            parts,
            job: Some(erased),
        };
        shared.claim.store(epoch << PART_BITS, SeqCst);
        for helper in &self.helpers[..parts - 1] {
            if helper.parked.load(SeqCst) {
                helper.thread.thread().unpark();
            }
        }
        let mut own = None;
        while let Some(p) = shared.claim(epoch, parts) {
            own = own.or(shared.run_part(job, p, parts));
        }
        wait(|| shared.done.load(SeqCst) == parts, &shared.owner_parked);
        shared.slot.lock().expect("pool slot").job = None;
        let panicked = shared.panicked.swap(false, SeqCst);
        if let Some(payload) = own {
            panic::resume_unwind(payload);
        }
        assert!(!panicked, "a pool helper panicked");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.quit.store(true, SeqCst);
        for helper in self.helpers.drain(..) {
            helper.thread.thread().unpark();
            let _ = helper.thread.join();
        }
    }
}

/// Spins on `done` for [`SPIN`], yielding now and then, then parks
/// (flagging `parked` so a waker knows to unpark) until it holds.
fn wait(done: impl Fn() -> bool, parked: &AtomicBool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !done() {
        spins = spins.wrapping_add(1);
        if !spins.is_multiple_of(64) {
            std::hint::spin_loop();
        } else if start.elapsed() < SPIN {
            thread::yield_now();
        } else {
            parked.store(true, SeqCst);
            while !done() {
                thread::park();
            }
            parked.store(false, SeqCst);
            return;
        }
    }
}

fn helper_loop(shared: &Shared, parked: &AtomicBool) {
    // A pooled call inside a job runs inline on its helper.
    WIDTH.with(|w| w.set(Some(1)));
    let mut seen = 0u64;
    loop {
        wait(
            || shared.claim.load(SeqCst) >> PART_BITS != seen || shared.quit.load(SeqCst),
            parked,
        );
        if shared.quit.load(SeqCst) {
            return;
        }
        let (epoch, parts, job) = {
            let slot = shared.slot.lock().expect("pool slot");
            (slot.epoch, slot.parts, slot.job)
        };
        seen = epoch;
        let Some(job) = job else {
            continue;
        };
        while let Some(p) = shared.claim(epoch, parts) {
            // SAFETY: part `p` of this epoch is claimed and not yet done, so
            // the owner is still inside `dispatch` for it, holding the job
            // (and everything it borrows) alive.
            let job = unsafe { &*job.0 };
            shared.run_part(job, p, parts);
        }
    }
}

/// Runs `job(p)` for every `p` in `0..parts`, across this thread's pool.
/// A nested call (from inside a job on the owning thread) runs its parts
/// in order on the caller.
fn run(parts: usize, job: &(dyn Fn(usize) + Sync)) {
    POOL.with(|pool| match pool.try_borrow_mut() {
        Ok(mut pool) => pool.get_or_insert_with(Pool::new).dispatch(parts, job),
        Err(_) => (0..parts).for_each(job),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_divides_cores_among_ranks() {
        assert_eq!(share(2, 1), 2);
        assert_eq!(share(2, 2), 1);
        assert_eq!(share(2, 4), 1);
        assert_eq!(share(8, 3), 2);
        assert_eq!(share(1, 0), 1);
        assert_eq!(share(0, 1), 1);
    }

    #[test]
    fn cuts_cover_rows_on_grain_boundaries() {
        for rows in 0..40 {
            for grain in 1..10 {
                for parts in 1..6 {
                    let mut next = 0;
                    for p in 0..parts {
                        let r = cut(rows, grain, parts, p);
                        assert_eq!(r.start, next, "rows {rows} grain {grain} parts {parts}");
                        assert!(r.start.is_multiple_of(grain) || r.start == rows);
                        next = r.end;
                    }
                    assert_eq!(next, rows);
                }
            }
        }
    }

    #[test]
    fn every_element_is_written_once_at_every_width() {
        for width in [1, 2, 3, 5] {
            let mut out = vec![0u32; 1 << 16];
            with_width(width, || {
                split_rows(&mut out, 1 << 12, 3, usize::MAX, |r, s| {
                    for (i, v) in r.flat_map(|row| row * 16..row * 16 + 16).zip(s) {
                        *v += i as u32 + 1;
                    }
                });
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
        with_width(3, || {
            let hit = panic::catch_unwind(|| {
                split_rows(&mut [0u8; 90], 90, 1, usize::MAX, |r, _| {
                    assert!(r.start == 0, "boom");
                });
            });
            assert!(hit.is_err());
            let mut out = [0u8; 90];
            split_rows(&mut out, 90, 1, usize::MAX, |_, s| s.fill(7));
            assert!(out.iter().all(|&v| v == 7));
        });
    }

    #[test]
    fn small_regions_and_width_one_run_inline() {
        let caller = thread::current().id();
        let check = |work| {
            split_rows(&mut [0u8; 64], 64, 1, work, |_, _| {
                assert_eq!(thread::current().id(), caller);
            });
        };
        with_width(4, || check(INLINE_WORK - 1));
        with_width(1, || check(usize::MAX));
    }
}
