//! Betty's test machinery, one copy of each tool, depending on no other
//! crate so that every crate's tests can use it: [`Tracking`], the one
//! `GlobalAlloc` (a binary installs it with `#[global_allocator]`);
//! [`fuzz_decoder`]; and the golden recorder, [`fnv1a`] and
//! [`check_golden`] with the one `GOLDEN_PRINT` switch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// The tracking allocator. The count of allocation calls is process-wide, a
// relaxed atomic read at quiesced points. The largest request and the
// live-byte high-water mark are thread-local (const-initialised, no
// destructor, so safe to touch from inside the allocator), which keeps them
// exact while other tests run on other threads.

static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Zero-sized proxy around [`System`]. It counts every allocation call
/// (`alloc_zeroed` and `realloc` reach it through `alloc`) and tracks the
/// calling thread's largest request and live bytes.
pub struct Tracking;

fn track(delta: isize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(delta.max(0) as usize)));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only an atomic and thread-local `Cell`s and cannot unwind.
unsafe impl GlobalAlloc for Tracking {
    /// # Safety
    ///
    /// `GlobalAlloc::alloc`'s contract: `layout` has a non-zero size.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        track(layout.size() as isize);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    ///
    /// `GlobalAlloc::dealloc`'s contract: `ptr` came from this allocator
    /// with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: every block this allocator hands out is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls the whole process has made so far (0 unless
/// [`Tracking`] is its global allocator).
pub fn allocation_calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Whether [`Tracking`] serves this process. Any program allocates before
/// `main`, so by the time a test runs, installed ⇔ a non-zero count.
pub fn installed() -> bool {
    allocation_calls() > 0
}

/// Runs `f` on the calling thread; returns its result, the largest single
/// request it made and how far its live bytes rose above where they started.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGEST.with(|l| l.set(0));
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    let (largest, peak) = (LARGEST.with(Cell::get), PEAK.with(Cell::get));
    (out, largest, (peak - before) as usize)
}

// ---------------------------------------------------------------------------
// The decoder fuzzer. The mutations and the seed rule that draws them stay
// with each suite: what a lie or a re-seal means is its format's business.

/// What a fuzzed image may decode to, besides an `Err`.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// The valid image's value.
    Original,
    /// Nothing, unless the image is the valid one byte for byte.
    Rejected,
    /// Any value: only panics and the allocation bound are checked.
    Anything,
}

/// One mutated image: how it was made (with the seed that rebuilds it, for
/// the failure message), its bytes, and what it may decode to.
pub type Case = (String, Vec<u8>, Expect);

/// Feeds `decode` every truncation of `valid` to fewer than `truncations`
/// bytes, each of which must be an `Err`, then every case in order. Each
/// call runs under `catch_unwind`, may make no allocation larger than
/// `4 × valid.len() + 4096` bytes, and may return only what its [`Expect`]
/// allows, judged against `decode(valid)`. `name` prefixes every failure.
///
/// # Panics
///
/// On the first case that breaks a rule, if `valid` does not decode, or if
/// [`Tracking`] is not the global allocator.
pub fn fuzz_decoder<T: PartialEq, E>(
    name: &str,
    valid: &[u8],
    truncations: usize,
    cases: impl IntoIterator<Item = Case>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert!(installed(), "{name}: the allocation bound needs Tracking");
    let Ok(original) = decode(valid) else {
        panic!("{name}: the valid image does not decode");
    };
    let budget = 4 * valid.len() + 4096;
    let truncated = (0..truncations.min(valid.len())).map(|len| {
        let what = format!("truncation to {len} bytes");
        (what, valid[..len].to_vec(), Expect::Rejected)
    });
    for (what, image, expect) in truncated.chain(cases) {
        let outcome = catch_unwind(AssertUnwindSafe(|| measured(|| decode(&image))));
        let Ok((decoded, largest, _)) = outcome else {
            panic!("{name}: the decoder panicked on {what}");
        };
        assert!(largest <= budget, "{name}: {what} took {largest} bytes");
        let allowed = match (decoded, expect) {
            (Err(_), _) | (Ok(_), Expect::Anything) => true,
            (Ok(value), Expect::Original) => value == original,
            (Ok(value), Expect::Rejected) => image == valid && value == original,
        };
        assert!(allowed, "{name}: {what} decoded to something else");
    }
}

// ---------------------------------------------------------------------------
// The golden recorder. A suite hashes what it pins with `fnv1a` and checks
// its table with `check_golden`; `GOLDEN_PRINT=1` turns every suite from
// checking into printing its table as the rows to paste back.

/// FNV-1a, 64-bit, over a byte stream (words go in as their little-endian
/// bytes). Not CRC-32: a file that ends in the CRC of its own body has the
/// same CRC-32 as every other file of its length and magic (the residue
/// property), which would pin nothing.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Whether `GOLDEN_PRINT` is set: golden suites print instead of check.
pub fn printing() -> bool {
    std::env::var_os("GOLDEN_PRINT").is_some()
}

/// Checks `got` against the pinned `want` row for row, naming the actual
/// table (one `line` per row) when they differ. Under `GOLDEN_PRINT` it
/// prints that table under a `// what` heading instead and checks nothing.
///
/// # Panics
///
/// If `got != want` and `GOLDEN_PRINT` is not set.
pub fn check_golden<R: PartialEq>(what: &str, got: &[R], want: &[R], line: fn(&R) -> String) {
    let table: String = got.iter().map(|row| line(row) + "\n").collect();
    if printing() {
        print!("// {what}\n{table}");
        return;
    }
    assert!(got == want, "{what} moved; the actual table:\n{table}");
}

#[cfg(test)]
#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether fuzzing `[1, 2, 3]` (its truncations, then `cases`) fails.
    fn fails<T: PartialEq>(cases: Vec<Case>, decode: impl Fn(&[u8]) -> Result<T, ()>) -> bool {
        let fuzz = || fuzz_decoder("", &[1, 2, 3], 3, cases, decode);
        catch_unwind(AssertUnwindSafe(fuzz)).is_err()
    }

    #[test]
    fn each_broken_rule_fails_the_fuzz() {
        let strict = |b: &[u8]| if b == [1, 2, 3] { Ok(7) } else { Err(()) };
        let nine = |b: &[u8]| if b == [9] { Ok(8) } else { strict(b) };
        let hungry = |b: &[u8]| strict(b).map_err(|()| drop(std::hint::black_box(vec![0; 8192])));
        let case = |expect| vec![("[9]".to_string(), vec![9], expect)];
        assert!(!fails(case(Expect::Anything), nine));
        assert!(fails(case(Expect::Original), nine));
        assert!(fails(case(Expect::Rejected), nine));
        assert!(fails(Vec::new(), |b| Ok(b.len())), "a truncation decodes");
        let panics = |b: &[u8]| if b.is_empty() { panic!() } else { strict(b) };
        assert!(fails(Vec::new(), panics), "a panic");
        assert!(fails(Vec::new(), hungry), "an allocation past the bound");
    }
}
