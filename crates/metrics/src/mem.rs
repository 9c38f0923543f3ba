//! Memory accounting: a counting allocator wrapper over [`System`].
//!
//! The `homc` and `table1` binaries install [`CountingAlloc`] as their
//! `#[global_allocator]`; libraries and the test harness never do, so the
//! accounting surface reads all-zero there and every consumer treats zero
//! as "not installed".
//!
//! # Attribution rules (see DESIGN.md, "Memory accounting")
//!
//! * `live` is the global number of heap bytes currently allocated;
//!   `peak` is its high-water mark since the last [`reset_run`].
//! * The verifier brackets each pipeline phase in a [`PhaseScope`], which
//!   sets a **thread-local** phase tag. An allocation is attributed to the
//!   tag of the allocating thread at allocation time: each phase's
//!   `peak_bytes` is the largest *global* live count observed while that
//!   phase was allocating. Frees are global (a phase releasing memory
//!   lowers `live` for everyone) — per-phase numbers are watermarks, not
//!   balances, so they never go negative and always telescope under the
//!   global peak.
//! * A worker thread that enters the spawning thread's accounting scope
//!   ([`inherit`]`().enter()`) carries the spawning thread's phase tag.
//! * [`window_reset`]/[`window_peak`] give the CEGAR loop a per-iteration
//!   watermark for the `peak_bytes` field of `iter` trace records.
//!
//! # Per-thread balances
//!
//! Inside an accounting scope a thread does not touch the shared counters
//! on every allocation. It keeps its net traffic in a thread-local
//! `pending` balance, plus `high`, the running maximum of `pending` since
//! the last fold. A fold adds `pending` to the shared live count once and
//! raises the watermarks to `before + high`, where `before` is the live
//! count the fold found. A thread folds when `|pending|` reaches `SLAB`
//! (64 KiB), when it enters or leaves a [`PhaseScope`] or an accounting
//! scope, when it calls [`inherit`], and when it calls a reader ([`live_bytes`],
//! [`peak_bytes`], [`phase_peak`], [`window_peak`], [`reset_run`],
//! [`window_reset`]). Because of the running high the watermarks are exact
//! on one thread, even when the peak falls between two folds; with several
//! threads each thread's contribution is off by at most one slab.
//!
//! Outside a scope a thread applies every delta directly, as a plain
//! counting allocator would, so a spawn site that forgets the scope costs
//! speed, never accuracy. Leaving the outermost scope folds and returns to
//! direct mode, so frees during thread teardown are never stranded in a
//! balance nobody folds.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this module only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use homc_budget::Phase;

const NPHASES: usize = 5;
const NO_PHASE: u8 = u8::MAX;

/// The net traffic (bytes, either sign) a thread in an accounting scope
/// keeps to itself before it folds into the shared counters.
const SLAB: u64 = 64 * 1024;

static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Signed: one thread may free what another allocated before the other's
/// balance is folded. Readers clamp at 0.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static WINDOW_PEAK: AtomicU64 = AtomicU64::new(0);
static PHASE_PEAK: [AtomicU64; NPHASES] = [const { AtomicU64::new(0) }; NPHASES];

/// One thread's accounting state. Only `Cell`s of plain integers: the
/// thread-local is `const`-initialised, has no destructor and never
/// allocates, so the allocator may use it at any point of a thread's life.
struct Local {
    /// The phase tag allocations are attributed to.
    tag: Cell<u8>,
    /// Accounting scopes entered and not yet left; nonzero means batched.
    depth: Cell<u32>,
    /// Net bytes not yet folded into `LIVE`.
    pending: Cell<i64>,
    /// The running maximum of `pending` since the last fold (at least 0).
    high: Cell<i64>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            tag: Cell::new(NO_PHASE),
            depth: Cell::new(0),
            pending: Cell::new(0),
            high: Cell::new(0),
        }
    };
}

/// Raises `mark` to `v`, with a plain load first so that the common case
/// (no new watermark) writes nothing to the shared cache line.
fn raise_to(mark: &AtomicU64, v: u64) {
    if v > mark.load(Ordering::Relaxed) {
        mark.fetch_max(v, Ordering::Relaxed);
    }
}

/// Raises the global, window and `tag`'s phase watermarks to `live`.
fn raise(live: i64, tag: u8) {
    let v = live.max(0) as u64;
    raise_to(&PEAK, v);
    raise_to(&WINDOW_PEAK, v);
    if (tag as usize) < NPHASES {
        raise_to(&PHASE_PEAK[tag as usize], v);
    }
}

fn mark_installed() {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
}

/// Folds this thread's balance into the shared counters.
#[inline(never)]
fn fold(l: &Local) {
    let (pending, high) = (l.pending.replace(0), l.high.replace(0));
    if pending == 0 && high == 0 {
        return;
    }
    mark_installed();
    let before = if pending == 0 {
        LIVE.load(Ordering::Relaxed)
    } else {
        LIVE.fetch_add(pending, Ordering::Relaxed)
    };
    if high > 0 {
        raise(before + high, l.tag.get());
    }
}

/// Folds the calling thread's balance (the first step of every reader).
fn fold_here() {
    let _ = LOCAL.try_with(fold);
}

/// The allocator's hot path: on a batched thread, two `Cell` updates and
/// a compare. Everything that touches shared state stays out of line.
#[inline]
fn account(delta: i64) {
    // `Some(tag)`: this thread is in direct mode (or its thread-local is
    // unavailable) and the delta goes straight to the shared counters.
    let direct = LOCAL
        .try_with(|l| {
            if l.depth.get() == 0 {
                return Some(l.tag.get());
            }
            let pending = l.pending.get() + delta;
            l.pending.set(pending);
            if pending > l.high.get() {
                l.high.set(pending);
            }
            if pending.unsigned_abs() >= SLAB {
                fold(l);
            }
            None
        })
        .unwrap_or(Some(NO_PHASE));
    if let Some(tag) = direct {
        account_direct(delta, tag);
    }
}

/// Direct mode: one shared update per call, as an unbatched counter does.
#[inline(never)]
fn account_direct(delta: i64, tag: u8) {
    mark_installed();
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        raise(live, tag);
    }
}

/// Records an allocation of `sz` bytes (public so the accounting logic is
/// unit-testable without installing the allocator).
#[inline]
pub fn account_alloc(sz: u64) {
    account(sz as i64);
}

/// Records a deallocation of `sz` bytes.
#[inline]
pub fn account_dealloc(sz: u64) {
    account(-(sz as i64));
}

/// The counting `#[global_allocator]` wrapper over [`System`].
pub struct CountingAlloc;

impl CountingAlloc {
    /// A const constructor, for `static` installation sites.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates to `System` unchanged; the accounting is
// pure bookkeeping on the side and never touches the heap itself (the
// thread-local is a const-initialized struct of `Cell`s with no destructor,
// which allocates nothing).
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account_alloc(layout.size() as u64);
        }
        p
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account_alloc(layout.size() as u64);
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        account_dealloc(layout.size() as u64);
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Model a grow/shrink as free(old) + alloc(new); the watermark
            // updates on the alloc side.
            account_dealloc(layout.size() as u64);
            account_alloc(new_size as u64);
        }
        p
    }
}

/// `true` when the counting allocator is actually serving this process
/// (set by the first accounted traffic: any binary that installed it has
/// allocated long before anyone asks).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Heap bytes currently live (0 when not installed).
pub fn live_bytes() -> u64 {
    fold_here();
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// The global live-byte high-water mark since the last [`reset_run`].
pub fn peak_bytes() -> u64 {
    fold_here();
    PEAK.load(Ordering::Relaxed)
}

/// One phase's live-byte high-water mark since the last [`reset_run`].
pub fn phase_peak(phase: Phase) -> u64 {
    fold_here();
    PHASE_PEAK[phase_index(phase)].load(Ordering::Relaxed)
}

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Abs => 0,
        Phase::Mc => 1,
        Phase::Feas => 2,
        Phase::Interp => 3,
        Phase::Smt => 4,
    }
}

/// Starts a fresh per-run accounting window: the global peak restarts from
/// the current live count and every per-phase peak restarts from zero.
pub fn reset_run() {
    fold_here();
    let live = LIVE.load(Ordering::Relaxed).max(0) as u64;
    PEAK.store(live, Ordering::Relaxed);
    WINDOW_PEAK.store(live, Ordering::Relaxed);
    for p in &PHASE_PEAK {
        p.store(0, Ordering::Relaxed);
    }
}

/// Restarts the iteration window's watermark from the current live count.
pub fn window_reset() {
    fold_here();
    WINDOW_PEAK.store(LIVE.load(Ordering::Relaxed).max(0) as u64, Ordering::Relaxed);
}

/// The live-byte high-water mark since the last [`window_reset`].
pub fn window_peak() -> u64 {
    fold_here();
    WINDOW_PEAK.load(Ordering::Relaxed)
}

/// An RAII phase tag: allocations on this thread are attributed to `phase`
/// until the scope drops (scopes nest; the previous tag is restored).
pub struct PhaseScope {
    prev: u8,
}

/// Tags this thread's allocations with `phase` for the scope's lifetime.
pub fn phase_scope(phase: Phase) -> PhaseScope {
    let prev = LOCAL.with(|l| {
        fold(l);
        l.tag.replace(phase_index(phase) as u8)
    });
    PhaseScope { prev }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = LOCAL.try_with(|l| {
            fold(l);
            l.tag.set(prev);
        });
    }
}

/// The spawning thread's side of an accounting scope: its phase tag,
/// captured by [`inherit`] and carried into a worker by [`Inherit::enter`].
#[derive(Clone, Copy)]
pub struct Inherit {
    tag: u8,
}

/// Captures this thread's phase tag for a worker about to be spawned (and
/// folds this thread's balance, so the workers start from an exact count).
pub fn inherit() -> Inherit {
    let tag = LOCAL.with(|l| {
        fold(l);
        l.tag.get()
    });
    Inherit { tag }
}

impl Inherit {
    /// Enters an accounting scope on the current thread: until the guard
    /// drops, its allocations carry the captured phase tag and are counted
    /// in a per-thread balance instead of one shared update each.
    pub fn enter(self) -> AccountScope {
        let prev = LOCAL.with(|l| {
            fold(l);
            l.depth.set(l.depth.get() + 1);
            l.tag.replace(self.tag)
        });
        AccountScope {
            prev,
            _thread: PhantomData,
        }
    }
}

/// An RAII accounting scope (see [`Inherit::enter`]). Dropping it folds the
/// thread's balance and restores the previous tag; leaving the outermost
/// scope returns the thread to direct mode.
pub struct AccountScope {
    prev: u8,
    /// The balance is per thread, so the guard must not move to another.
    _thread: PhantomData<*const ()>,
}

impl Drop for AccountScope {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = LOCAL.try_with(|l| {
            fold(l);
            l.depth.set(l.depth.get() - 1);
            l.tag.set(prev);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The accounting statics are process-global, so the logic tests drive
    // `account_alloc`/`account_dealloc` directly (without the allocator
    // installed, nothing else calls `account_*`, so these counters move only
    // under these tests). They assert exact shared counts, so each takes one
    // lock: run side by side, one test's traffic or reset lands inside
    // another's read-compare window.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The shared live count, read without folding the caller's balance.
    fn shared_live() -> i64 {
        LIVE.load(Ordering::Relaxed)
    }

    #[test]
    fn watermarks_track_live_bytes() {
        let _serial = serial();
        reset_run();
        let base = live_bytes();
        account_alloc(1000);
        account_alloc(500);
        assert_eq!(live_bytes(), base + 1500);
        assert!(peak_bytes() >= base + 1500);
        account_dealloc(1500);
        assert_eq!(live_bytes(), base);
        // Peak survives the free.
        assert!(peak_bytes() >= base + 1500);
        assert!(installed(), "account_alloc marks traffic");
    }

    #[test]
    fn phase_scopes_attribute_and_nest() {
        let _serial = serial();
        reset_run();
        {
            let _abs = phase_scope(Phase::Abs);
            account_alloc(4096);
            {
                let _mc = phase_scope(Phase::Mc);
                account_alloc(100);
            }
            // Back in abs after the inner scope drops.
            account_alloc(1);
            account_dealloc(4197);
        }
        assert!(phase_peak(Phase::Abs) >= 4096);
        assert!(phase_peak(Phase::Mc) >= 100);
        assert_eq!(phase_peak(Phase::Interp), 0);
        // Per-phase watermarks telescope under the global peak.
        assert!(phase_peak(Phase::Abs) <= peak_bytes());
        assert!(phase_peak(Phase::Mc) <= peak_bytes());
    }

    #[test]
    fn window_watermark_resets() {
        let _serial = serial();
        reset_run();
        account_alloc(2000);
        account_dealloc(2000);
        window_reset();
        let base = live_bytes();
        account_alloc(10);
        assert!(window_peak() >= base + 10);
        account_dealloc(10);
        assert!(window_peak() <= peak_bytes());
    }

    #[test]
    fn batched_peak_is_exact_between_folds() {
        let _serial = serial();
        let _acct = inherit().enter();
        reset_run();
        let base = live_bytes();
        account_alloc(40 * 1024);
        account_dealloc(40 * 1024);
        account_alloc(30 * 1024);
        // No fold ran in between (the net never reached a slab), yet the
        // running high keeps the 40 KiB peak.
        assert_eq!(peak_bytes(), base + 40 * 1024);
        assert_eq!(live_bytes(), base + 30 * 1024);
        account_dealloc(30 * 1024);
        assert_eq!(live_bytes(), base);
    }

    #[test]
    fn batched_traffic_under_a_slab_stays_off_the_shared_count() {
        let _serial = serial();
        let acct = inherit().enter();
        let base = live_bytes();
        let before = shared_live();
        for _ in 0..100 {
            account_alloc(300);
        }
        account_dealloc(1000);
        assert_eq!(shared_live(), before, "a shared update below one slab");
        // A reader folds the caller's balance.
        assert_eq!(live_bytes(), base + 29_000);
        assert_eq!(shared_live(), before + 29_000);
        // So does reaching a slab, in either direction.
        account_dealloc(SLAB);
        assert_eq!(shared_live(), before + 29_000 - SLAB as i64);
        account_alloc(SLAB - 29_000 + 500);
        assert_eq!(shared_live(), before + 29_000 - SLAB as i64);
        // And so does leaving the scope.
        drop(acct);
        assert_eq!(shared_live(), before + 500);
        account_dealloc(500);
        assert_eq!(shared_live(), before);
    }

    #[test]
    fn buffers_freed_by_another_thread_balance_out() {
        let _serial = serial();
        reset_run();
        let base = live_bytes();
        let (tx, rx) = std::sync::mpsc::channel::<(u64, std::sync::mpsc::Sender<()>)>();
        std::thread::scope(|s| {
            for w in 0..8 {
                let (tx, inherit) = (tx.clone(), inherit());
                s.spawn(move || {
                    let _acct = inherit.enter();
                    let sz = 1000 + w * 3000;
                    account_alloc(sz);
                    // Hand the buffer over and wait until it is freed, so the
                    // free lands before this thread's balance is folded and
                    // the shared count dips below the base (below zero here).
                    let (ack_tx, ack_rx) = std::sync::mpsc::channel();
                    tx.send((sz, ack_tx)).expect("main thread gone");
                    ack_rx.recv().expect("main thread gone");
                });
            }
            drop(tx);
            for (sz, ack) in rx {
                account_dealloc(sz);
                ack.send(()).expect("worker gone");
            }
        });
        assert_eq!(live_bytes(), base);
        // Each worker folded only after its buffer was freed, so no fold
        // raised the peak past the largest buffer; a count that wrapped on a
        // dip would have raised it out of all bounds.
        assert!(peak_bytes() <= base + 22_000, "peak {}", peak_bytes());
    }

    #[test]
    fn unscoped_threads_apply_each_delta_at_once() {
        let _serial = serial();
        let _acct = inherit().enter();
        let before = shared_live();
        // Batching is per thread and opt-in: a thread that never entered a
        // scope stays in direct mode, whatever its parent does.
        std::thread::scope(|s| {
            s.spawn(|| {
                account_alloc(10);
                assert_eq!(shared_live(), before + 10);
                account_dealloc(10);
                assert_eq!(shared_live(), before);
            });
        });
        // Leaving the outermost scope returns a thread to direct mode.
        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let _inner = inherit().enter();
                    account_alloc(7);
                    assert_eq!(shared_live(), before);
                }
                assert_eq!(shared_live(), before + 7);
                account_dealloc(7);
                assert_eq!(shared_live(), before);
            });
        });
    }

    #[test]
    fn workers_inherit_the_spawning_phase() {
        let _serial = serial();
        let _tag = phase_scope(Phase::Smt);
        let inherit = inherit();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _acct = inherit.enter();
                account_alloc(5000);
            });
        });
        assert!(phase_peak(Phase::Smt) >= 5000);
        account_dealloc(5000);
    }
}
