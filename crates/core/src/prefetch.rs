//! Generate while serving: a sequential job's next requests are filled on
//! a second core while the serving thread serves the current chunk.
//!
//! Inline, a streamed job generates each chunk on the serving thread,
//! between `serve_batch` calls. [`with_prefetch`] instead hands the job's
//! [`RequestSource`] to one scoped helper thread, which fills blocks of up
//! to [`BLOCK`] requests into a ring of [`BLOCKS`] blocks (256 KiB of
//! packed pairs) that the serving thread allocates up front. The serving
//! thread reads the stream through [`Prefetched`], a [`RequestStream`]
//! that serves each chunk **in place**: a chunk that lies inside the block
//! in hand is a slice of that block, and only a chunk that straddles the
//! end of a block is copied into the simulator's own batch buffer, at most
//! once per block. The serving thread hands its spent block back and takes
//! the next one in a single lock acquisition. So:
//!
//! * chunk cuts, reports, telemetry counters and the stream are identical
//!   to serving the source inline. The source emits the same requests in
//!   the same order, only through other `fill` sizes, which
//!   [`RequestSource::fill`] promises cannot change a draw;
//! * serving stays on one thread, and the serve stopwatch (panel (b) of
//!   Figs. 1–4) still times `serve_batch` only. Since an in-place chunk is
//!   the helper's block, `serve_batch` reads requests the other core
//!   wrote, and the stopwatch covers those reads;
//! * the source is a **baton**: whichever thread holds it fills the next
//!   requests. When the ring is empty and the helper is not filling, the
//!   serving thread fills its own chunk instead of waiting, so a helper
//!   that is descheduled, or shares the serving thread's CPU, costs little.
//!
//! The helper fills a block in `fill` calls of [`FILL`] requests. When the
//! serving thread has to wait for a block, it asks the helper to hurry,
//! and the helper hands its block over as far as it is filled: a job's
//! first chunk waits for one fill, not for a whole block.
//!
//! The ring is 256 KiB resident for the length of a job. The helper
//! thread costs about as much again: spawning and joining one scoped
//! thread with the default stack raised the resident set by 0.07–0.26 MiB
//! in a probe on a 2-core VM.
//!
//! Waking a sleeping thread is slow on a virtual machine (tens of µs for
//! the waker, more for the woken), so neither side sleeps while the other
//! is busy: a side that has to wait polls a change counter for up to
//! `POLL`, yielding the CPU between polls, and only then parks. A parked
//! helper is woken once `WAKE_AT` blocks are free, so a wake-up buys
//! several blocks.
//!
//! A panic on either side fails the job as a panic. The helper catches its
//! own, and the serving thread resumes it with the original payload at its
//! next handoff; a panic on the serving side closes the ring, so the
//! helper exits. The helper is a scoped thread, joined on every path.

use crate::simulator::{RequestChunks, RequestStream, DEFAULT_BATCH_SIZE};
use dcn_topology::Pair;
use dcn_traces::source::RequestSource;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Requests per ring block.
pub const BLOCK: usize = 8192;

/// Blocks in the ring (256 KiB of packed pairs).
pub const BLOCKS: usize = 4;

/// Requests per helper `fill` call: the simulator's default batch size.
pub const FILL: usize = DEFAULT_BATCH_SIZE;

/// Free blocks that wake a parked helper.
const WAKE_AT: usize = 2;

/// How long a waiting side polls for the other side's next change before
/// it parks.
const POLL: Duration = Duration::from_micros(200);

type Source<'a> = &'a mut (dyn RequestSource + Send);

/// A ring block: `requests[..len]` is filled. The default block holds
/// nothing and is not the ring's: it is the serving thread's empty hand.
#[derive(Default)]
struct Block {
    requests: Box<[Pair]>,
    len: usize,
}

struct State<'a> {
    /// The source while no thread fills from it: the baton.
    source: Option<Source<'a>>,
    /// Filled blocks, in stream order.
    filled: VecDeque<Block>,
    /// Empty blocks.
    free: Vec<Block>,
    /// The helper is parked, waiting for [`WAKE_AT`] free blocks.
    helper_parked: bool,
    /// The serving thread is parked, waiting for a block or the baton.
    server_parked: bool,
    /// The serving side is done or unwinding: the helper exits.
    closed: bool,
    /// A panic the helper caught, for the serving thread to resume.
    panic: Option<Box<dyn Any + Send>>,
}

impl State<'_> {
    /// Whether the helper may fill `blocks` blocks now.
    fn helper_may_fill(&self, blocks: usize) -> bool {
        self.source.is_some() && self.free.len() >= blocks
    }
}

struct Ring<'a> {
    state: Mutex<State<'a>>,
    /// Counts changes to `state`, so a waiting side can poll without
    /// taking the lock. Bumped under the lock.
    changes: AtomicU64,
    /// Set while the serving thread waits for the block the helper is
    /// filling (or the ring closes): the helper hands the block over after
    /// its current `fill` call. Cleared when the helper hands a block over.
    /// A hint that publishes no data (the block itself passes under the
    /// lock), so it is read and written `Relaxed`.
    hurry: AtomicBool,
    helper: Condvar,
    server: Condvar,
}

impl<'a> Ring<'a> {
    /// A ring of [`BLOCKS`] free blocks, with `source` as the free baton.
    fn new(source: Source<'a>) -> Self {
        Ring {
            state: Mutex::new(State {
                source: Some(source),
                filled: VecDeque::with_capacity(BLOCKS),
                free: (0..BLOCKS)
                    .map(|_| Block {
                        requests: vec![Pair::new(0, 1); BLOCK].into_boxed_slice(),
                        len: 0,
                    })
                    .collect(),
                helper_parked: false,
                server_parked: false,
                closed: false,
                panic: None,
            }),
            changes: AtomicU64::new(0),
            hurry: AtomicBool::new(false),
            helper: Condvar::new(),
            server: Condvar::new(),
        }
    }

    /// Locks the state. No code panics while holding the lock, so a
    /// poisoned lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, State<'a>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a change the helper may wait for, and wakes it if it is
    /// parked and may now fill several blocks (or must exit).
    fn changed_for_helper(&self, st: &mut State<'a>) {
        self.changes.fetch_add(1, Ordering::Release);
        if st.helper_parked && (st.closed || st.helper_may_fill(WAKE_AT)) {
            st.helper_parked = false;
            self.helper.notify_one();
        }
    }

    /// Records a change the serving thread may wait for, and wakes it if
    /// it is parked.
    fn changed_for_server(&self, st: &mut State<'a>) {
        self.changes.fetch_add(1, Ordering::Release);
        if st.server_parked {
            st.server_parked = false;
            self.server.notify_one();
        }
    }

    /// Waits for the next change to the state: polls for up to [`POLL`],
    /// yielding the CPU between polls, then parks on `cv` once `park` has
    /// marked this side parked for the other side to wake.
    fn await_change<'g>(
        &'g self,
        st: MutexGuard<'g, State<'a>>,
        cv: &Condvar,
        park: impl FnOnce(&mut State<'a>),
    ) -> MutexGuard<'g, State<'a>> {
        let seen = self.changes.load(Ordering::Relaxed);
        drop(st);
        let t0 = Instant::now();
        while self.changes.load(Ordering::Acquire) == seen && t0.elapsed() < POLL {
            std::thread::yield_now();
        }
        let mut st = self.lock();
        if self.changes.load(Ordering::Relaxed) != seen {
            return st;
        }
        park(&mut st);
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's loop: fill free blocks while the baton is free, and
    /// return once the stream is exhausted or the ring is closed.
    fn fill_ahead(&self) {
        let mut st = self.lock();
        loop {
            if st.closed {
                return;
            }
            if !st.helper_may_fill(1) {
                st = self.await_change(st, &self.helper, |st| st.helper_parked = true);
                st.helper_parked = false;
                continue;
            }
            let (Some(source), Some(mut block)) = (st.source.take(), st.free.pop()) else {
                unreachable!("helper_may_fill checked the baton and a free block");
            };
            drop(st);
            let exhausted = self.fill_block(source, &mut block);
            st = self.lock();
            st.source = Some(source);
            st.filled.push_back(block);
            self.hurry.store(false, Ordering::Relaxed);
            self.changed_for_server(&mut st);
            if exhausted {
                return;
            }
        }
    }

    /// Fills `block` in `fill` calls of [`FILL`] requests, up to its end or
    /// the first call after the serving thread asked to hurry. Returns
    /// whether the stream is exhausted.
    fn fill_block(&self, source: &mut (dyn RequestSource + Send), block: &mut Block) -> bool {
        block.len = 0;
        loop {
            let end = (block.len + FILL).min(block.requests.len());
            let n = source.fill(&mut block.requests[block.len..end]);
            block.len += n;
            if block.len < end || source.remaining() == 0 {
                return true;
            }
            if block.len == block.requests.len() || self.hurry.load(Ordering::Relaxed) {
                return false;
            }
        }
    }
}

/// The serving thread's side of the ring: a [`RequestStream`] (and its own
/// [`RequestChunks`] cursor) over the source handed to [`with_prefetch`].
pub struct Prefetched<'r, 'a> {
    ring: &'r Ring<'a>,
    /// The block chunks are served from, and how far.
    hand: Block,
    offset: usize,
    remaining: usize,
}

impl<'a> Prefetched<'_, 'a> {
    /// Hands the spent block in hand back to the ring and takes the next
    /// filled one, in one lock acquisition. When the ring is empty and the
    /// helper is not filling, returns the baton instead, with an empty
    /// hand; while the helper fills, hurries it and waits. Resumes a panic
    /// the helper caught.
    fn exchange(&mut self) -> Option<Source<'a>> {
        let ring = self.ring;
        let spent = std::mem::take(&mut self.hand);
        self.offset = 0;
        let mut st = ring.lock();
        if !spent.requests.is_empty() {
            st.free.push(spent);
            ring.changed_for_helper(&mut st);
        }
        loop {
            if let Some(payload) = st.panic.take() {
                drop(st);
                resume_unwind(payload);
            }
            if let Some(block) = st.filled.pop_front() {
                self.hand = block;
                return None;
            }
            if let Some(source) = st.source.take() {
                return Some(source);
            }
            ring.hurry.store(true, Ordering::Relaxed);
            st = ring.await_change(st, &ring.server, |st| st.server_parked = true);
        }
    }
}

impl RequestChunks for Prefetched<'_, '_> {
    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_chunk<'b>(&'b mut self, buf: &'b mut [Pair]) -> &'b [Pair] {
        let want = buf.len().min(self.remaining);
        let mut got = 0;
        while got < want {
            if self.offset == self.hand.len {
                if let Some(source) = self.exchange() {
                    // Fill the rest of the chunk here; a short fill is the
                    // end of the stream.
                    got += source.fill(&mut buf[got..want]);
                    let mut st = self.ring.lock();
                    st.source = Some(source);
                    self.ring.changed_for_helper(&mut st);
                    break;
                }
            }
            let start = self.offset;
            self.offset = self.hand.len.min(start + want - got);
            if self.offset - start == want {
                // The whole chunk lies inside the block in hand.
                self.remaining -= want;
                return &self.hand.requests[start..self.offset];
            }
            let n = self.offset - start;
            buf[got..got + n].copy_from_slice(&self.hand.requests[start..self.offset]);
            got += n;
        }
        self.remaining -= got;
        &buf[..got]
    }
}

impl RequestStream for Prefetched<'_, '_> {
    type Chunks = Self;

    fn into_chunks(self) -> Self {
        self
    }
}

/// Closes the ring when the serving side is done, also when it unwinds.
struct CloseOnDrop<'r, 'a>(&'r Ring<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.closed = true;
        self.0.hurry.store(true, Ordering::Relaxed);
        self.0.changed_for_helper(&mut st);
    }
}

/// Runs `body` on this thread with `source` read through a [`Prefetched`]
/// stream, while one scoped helper thread fills the source's next requests
/// ahead of it. The stream starts at the source's current position, and
/// yields exactly what the source would yield inline.
///
/// A panic in `body` or in the source unwinds out of this call with its
/// original payload, after the helper has been joined.
pub fn with_prefetch<R>(
    source: &mut (dyn RequestSource + Send),
    body: impl FnOnce(Prefetched<'_, '_>) -> R,
) -> R {
    let remaining = source.remaining();
    let ring = Ring::new(source);
    std::thread::scope(|scope| {
        let ring = &ring;
        // Should no thread be available, the baton stays free for the
        // serving thread, which then fills every chunk itself: the run
        // completes as it would inline.
        let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| ring.fill_ahead())) {
                let mut st = ring.lock();
                st.panic = Some(payload);
                ring.changed_for_server(&mut st);
            }
        });
        let _close = CloseOnDrop(ring);
        body(Prefetched {
            ring,
            hand: Block::default(),
            offset: 0,
            remaining,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_traces::uniform_source;

    #[test]
    fn a_hurried_helper_hands_its_block_over_after_one_fill() {
        let mut source = uniform_source(8, 2 * BLOCK + 5, 1);
        let ring = Ring::new(&mut source);
        let source = ring.lock().source.take().expect("the free baton");
        let mut block = ring.lock().free.pop().expect("a free block");
        ring.hurry.store(true, Ordering::Relaxed);
        assert!(!ring.fill_block(source, &mut block));
        assert_eq!(block.len, FILL);
        ring.hurry.store(false, Ordering::Relaxed);
        assert!(!ring.fill_block(source, &mut block));
        assert_eq!(block.len, BLOCK);
        // 5 + BLOCK - FILL requests are left: a short last fill.
        assert!(ring.fill_block(source, &mut block));
        assert_eq!(block.len, BLOCK - FILL + 5);
    }

    #[test]
    fn a_serving_thread_that_waits_for_the_helper_asks_it_to_hurry() {
        let mut source = uniform_source(8, BLOCK, 1);
        let ring = Ring::new(&mut source);
        // The helper holds the baton: it is filling.
        let _baton = ring.lock().source.take();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut prefetched = Prefetched {
                    ring: &ring,
                    hand: Block::default(),
                    offset: 0,
                    remaining: BLOCK,
                };
                prefetched.exchange().is_none() && prefetched.hand.len == 1
            });
            let t0 = Instant::now();
            while !ring.hurry.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(60) {
                std::thread::yield_now();
            }
            let hurried = ring.hurry.load(Ordering::Relaxed);
            // Hand a one-request block over, as a hurried helper would.
            let mut st = ring.lock();
            let mut block = st.free.pop().expect("a free block");
            block.len = 1;
            st.filled.push_back(block);
            ring.changed_for_server(&mut st);
            drop(st);
            assert!(server.join().expect("the serving side returns"));
            assert!(
                hurried,
                "the waiting serving thread asked the helper to hurry"
            );
        });
    }
}
