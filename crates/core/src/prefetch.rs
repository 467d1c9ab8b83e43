//! Generate while serving: a sequential job's next requests are filled on
//! a second core while the serving thread serves the current chunk.
//!
//! Inline, a streamed job generates each chunk on the serving thread,
//! between `serve_batch` calls. [`with_prefetch`] instead hands the job's
//! [`RequestSource`] to one scoped helper thread, which fills blocks of
//! [`BLOCK`] requests into a ring of [`BLOCKS`] blocks that the serving
//! thread allocates up front. The serving thread reads the stream through
//! [`Prefetched`], a [`RequestStream`] that copies each chunk out of the
//! ring into the simulator's own batch buffer. So:
//!
//! * chunk cuts, reports, telemetry counters and the stream are identical
//!   to serving the source inline. The source emits the same requests in
//!   the same order, only through other `fill` sizes, which
//!   [`RequestSource::fill`] promises cannot change a draw;
//! * serving stays on one thread, and the serve stopwatch (panel (b) of
//!   Figs. 1–4) still times `serve_batch` only;
//! * the source is a **baton**: whichever thread holds it fills the next
//!   requests. When the ring is empty and the helper is not filling, the
//!   serving thread fills its own chunk instead of waiting, so a helper
//!   that is descheduled, or shares the serving thread's CPU, costs little.
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
//! next read; a panic on the serving side closes the ring, so the helper
//! exits. The helper is a scoped thread, joined on every path.

use crate::simulator::{RequestChunks, RequestStream};
use dcn_topology::Pair;
use dcn_traces::source::RequestSource;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Requests per ring block.
pub const BLOCK: usize = 1024;

/// Blocks in the ring (64 KiB of packed pairs).
pub const BLOCKS: usize = 8;

/// Free blocks that wake a parked helper.
const WAKE_AT: usize = 4;

/// How long a waiting side polls for the other side's next change before
/// it parks.
const POLL: Duration = Duration::from_micros(200);

type Source<'a> = &'a mut (dyn RequestSource + Send);

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
    helper: Condvar,
    server: Condvar,
}

impl<'a> Ring<'a> {
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
            block.len = source.fill(&mut block.requests);
            let exhausted = block.len < block.requests.len() || source.remaining() == 0;
            st = self.lock();
            st.source = Some(source);
            st.filled.push_back(block);
            self.changed_for_server(&mut st);
            if exhausted {
                return;
            }
        }
    }
}

/// What the serving thread gets when its block in hand runs out.
enum Next<'a> {
    Block(Block),
    Baton(Source<'a>),
}

/// The serving thread's side of the ring: a [`RequestStream`] (and its own
/// [`RequestChunks`] cursor) over the source handed to [`with_prefetch`].
pub struct Prefetched<'r, 'a> {
    ring: &'r Ring<'a>,
    /// The block being copied out, and how far.
    current: Option<Block>,
    offset: usize,
    remaining: usize,
}

impl<'a> Prefetched<'_, 'a> {
    /// The next filled block, or the baton when the ring is empty and the
    /// helper is not filling. Waits while the helper holds the baton, and
    /// resumes a panic the helper caught.
    fn take_next(&mut self) -> Next<'a> {
        let ring = self.ring;
        let mut st = ring.lock();
        loop {
            if let Some(payload) = st.panic.take() {
                drop(st);
                resume_unwind(payload);
            }
            if let Some(block) = st.filled.pop_front() {
                return Next::Block(block);
            }
            if let Some(source) = st.source.take() {
                return Next::Baton(source);
            }
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
            if self.current.is_none() {
                match self.take_next() {
                    Next::Block(block) => {
                        self.current = Some(block);
                        self.offset = 0;
                    }
                    Next::Baton(source) => {
                        // Fill the rest of the chunk here; a short fill is
                        // the end of the stream.
                        got += source.fill(&mut buf[got..want]);
                        let mut st = self.ring.lock();
                        st.source = Some(source);
                        self.ring.changed_for_helper(&mut st);
                        break;
                    }
                }
            }
            let block = self.current.as_ref().expect("a block in hand");
            let n = (block.len - self.offset).min(want - got);
            buf[got..got + n].copy_from_slice(&block.requests[self.offset..self.offset + n]);
            got += n;
            self.offset += n;
            if self.offset == block.len {
                let spent = self.current.take().expect("the block in hand");
                let mut st = self.ring.lock();
                st.free.push(spent);
                self.ring.changed_for_helper(&mut st);
            }
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
    let ring = Ring {
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
        helper: Condvar::new(),
        server: Condvar::new(),
    };
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
            current: None,
            offset: 0,
            remaining,
        })
    })
}
