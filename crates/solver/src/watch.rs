//! Pooled watch lists: one flat buffer per watch tier, carved into one
//! segment per literal.
//!
//! A per-literal `Vec` costs a heap allocation per list that ever receives
//! a watch, a 24-byte header per literal, and one `free` per list when the
//! solver is dropped — on a wide unrolling, millions of each per file. A
//! [`WatchPool`] instead keeps every list of its tier in one buffer, each
//! literal owning a `{start, len, cap}` [`Segment`] of it. A list that
//! outgrows its segment moves to the end of the buffer with double the
//! room (or grows in place when it already ends the buffer); the room it
//! leaves behind is *dead* until [`WatchPool::compact`] slides the live
//! segments together.
//!
//! Entry order within a list is exactly that of a `Vec` driven by the same
//! `push`/`swap_remove` sequence: relocation and compaction copy lists
//! verbatim. BCP visits watches in list order, so this is what keeps the
//! search bit-identical to a per-literal `Vec` layout.
//!
//! The solver holds positions into the buffer while it propagates, so
//! compaction only ever runs between propagations (see
//! [`WatchPool::maybe_compact`]).

/// The slice of the pool's buffer owned by one literal's list: live entries
/// at `start..start + len`, spare room up to `start + cap`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Segment {
    start: u32,
    pub(crate) len: u32,
    cap: u32,
}

impl Segment {
    /// Buffer index of entry `i`.
    #[inline]
    pub(crate) fn at(self, i: usize) -> usize {
        self.start as usize + i
    }
}

/// Room given to a list on its first watch. Most lists of a wide unrolling
/// hold one or two watches (a gate input's fanout), so this is half what a
/// `Vec` of 8-byte entries takes on its first push.
const FIRST_CAP: u32 = 2;

/// One watch tier of every literal (see the module docs).
pub(crate) struct WatchPool<W> {
    buf: Vec<W>,
    segs: Vec<Segment>,
    /// Buffer slots no segment owns: room left behind by relocated lists.
    dead: usize,
}

impl<W> Default for WatchPool<W> {
    fn default() -> WatchPool<W> {
        WatchPool {
            buf: Vec::new(),
            segs: Vec::new(),
            dead: 0,
        }
    }
}

impl<W: Copy> WatchPool<W> {
    /// Ensures lists exist for literal codes `0..num_lits` (new ones empty).
    pub(crate) fn grow(&mut self, num_lits: usize) {
        if num_lits > self.segs.len() {
            self.segs.resize(num_lits, Segment::default());
        }
    }

    /// Number of lists (literal codes) in the pool.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn num_lists(&self) -> usize {
        self.segs.len()
    }

    /// The segment of literal `code`'s list. Its `start` stays valid until
    /// the next [`WatchPool::push`] to this list or the next compaction.
    #[inline]
    pub(crate) fn segment(&self, code: usize) -> Segment {
        self.segs[code]
    }

    /// The buffer entry at index `at` (see [`Segment::at`]).
    #[inline]
    pub(crate) fn entry(&self, at: usize) -> W {
        self.buf[at]
    }

    /// Mutable access to the buffer entry at index `at`.
    #[inline]
    pub(crate) fn entry_mut(&mut self, at: usize) -> &mut W {
        &mut self.buf[at]
    }

    /// The live entries of literal `code`'s list, in list order.
    #[inline]
    pub(crate) fn list(&self, code: usize) -> &[W] {
        let s = self.segs[code];
        &self.buf[s.at(0)..s.at(s.len as usize)]
    }

    /// Mutable view of literal `code`'s live entries.
    pub(crate) fn list_mut(&mut self, code: usize) -> &mut [W] {
        let s = self.segs[code];
        &mut self.buf[s.at(0)..s.at(s.len as usize)]
    }

    /// Appends `w` to literal `code`'s list (`Vec::push` order).
    #[inline]
    pub(crate) fn push(&mut self, code: usize, w: W) {
        let mut s = self.segs[code];
        if s.len == s.cap {
            s = self.regrow(s, w);
        }
        self.buf[s.at(s.len as usize)] = w;
        s.len += 1;
        self.segs[code] = s;
    }

    /// Gives a full list double the room: in place when it ends the
    /// buffer, else by moving it to the end (its old room turns dead).
    /// Returns the list's new segment; `w` only fills the fresh room.
    #[cold]
    #[inline(never)]
    fn regrow(&mut self, mut s: Segment, w: W) -> Segment {
        let cap = (2 * s.cap).max(FIRST_CAP);
        let end = self.buf.len();
        if s.cap > 0 && s.at(s.cap as usize) == end {
            self.buf.resize(s.at(cap as usize), w);
        } else {
            self.buf.extend_from_within(s.at(0)..s.at(s.len as usize));
            self.buf.resize(end + cap as usize, w);
            self.dead += s.cap as usize;
            s.start = u32::try_from(end).expect("watch pool exceeds u32 slots");
        }
        s.cap = cap;
        s
    }

    /// Removes entry `i` of literal `code`'s list by moving the last entry
    /// into its place (`Vec::swap_remove` order).
    #[inline]
    pub(crate) fn swap_remove(&mut self, code: usize, i: usize) {
        let s = &mut self.segs[code];
        debug_assert!(i < s.len as usize);
        s.len -= 1;
        let last = s.at(s.len as usize);
        self.buf[s.at(i)] = self.buf[last];
    }

    /// Buffer slots owned by no list.
    #[cfg(test)]
    pub(crate) fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Total buffer slots, live, spare and dead.
    #[cfg(test)]
    pub(crate) fn total_slots(&self) -> usize {
        self.buf.len()
    }

    /// Compacts when dead room exceeds a quarter of the buffer, which keeps
    /// the pool within 4/3 of the room its lists own. Must not be called
    /// while a caller holds buffer positions (i.e. during propagation).
    pub(crate) fn maybe_compact(&mut self) {
        if 4 * self.dead > self.buf.len() {
            self.compact();
        }
    }

    /// Slides every segment down over the dead room, in buffer order, in
    /// place: each segment moves to an offset no higher than its own, so no
    /// copy overwrites a segment not yet moved. Lists keep their room and
    /// their entry order.
    pub(crate) fn compact(&mut self) {
        let mut owners: Vec<u32> = (0..self.segs.len() as u32)
            .filter(|&code| self.segs[code as usize].cap > 0)
            .collect();
        owners.sort_unstable_by_key(|&code| self.segs[code as usize].start);
        let mut end = 0usize;
        for code in owners {
            let s = &mut self.segs[code as usize];
            self.buf.copy_within(s.at(0)..s.at(s.len as usize), end);
            s.start = end as u32;
            end += s.cap as usize;
        }
        self.buf.truncate(end);
        self.dead = 0;
    }

    /// Checks the layout: every segment lies inside the buffer, no two
    /// owned regions overlap, and the buffer is exactly the owned room plus
    /// the dead room.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit_layout(&self) -> Result<(), String> {
        let mut owned: Vec<(usize, usize, usize)> = Vec::new();
        for (code, s) in self.segs.iter().enumerate() {
            if s.len > s.cap {
                return Err(format!(
                    "segment of code {code} holds {} entries in room for {}",
                    s.len, s.cap
                ));
            }
            if s.cap > 0 && s.at(s.cap as usize) > self.buf.len() {
                return Err(format!(
                    "segment of code {code} ends at {}, past the buffer's {} slots",
                    s.at(s.cap as usize),
                    self.buf.len()
                ));
            }
            if s.cap > 0 {
                owned.push((s.start as usize, s.at(s.cap as usize), code));
            }
        }
        owned.sort_unstable();
        for pair in owned.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "segments of codes {} and {} overlap",
                    pair[0].2, pair[1].2
                ));
            }
        }
        let room: usize = owned.iter().map(|&(start, end, _)| end - start).sum();
        if room + self.dead != self.buf.len() {
            return Err(format!(
                "{} owned + {} dead slots do not account for the buffer's {}",
                room,
                self.dead,
                self.buf.len()
            ));
        }
        Ok(())
    }

    /// Test hook: shortens literal `code`'s list by one without touching the
    /// buffer (a dropped watch, as a corruption would leave it).
    #[cfg(all(test, feature = "debug-invariants"))]
    pub(crate) fn drop_last_for_test(&mut self, code: usize) -> bool {
        let s = &mut self.segs[code];
        if s.len == 0 {
            return false;
        }
        s.len -= 1;
        true
    }

    /// Test hook: points the second list that owns room at the first one's
    /// segment, as a botched relocation would.
    #[cfg(all(test, feature = "debug-invariants"))]
    pub(crate) fn overlap_first_two_for_test(&mut self) {
        let owners: Vec<usize> = (0..self.segs.len())
            .filter(|&code| self.segs[code].cap > 0)
            .take(2)
            .collect();
        assert_eq!(owners.len(), 2, "need two lists with room");
        self.segs[owners[1]].start = self.segs[owners[0]].start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a pool and per-list `Vec`s with the same push/swap_remove
    /// sequence; every list must match entry for entry, through
    /// relocations and compactions.
    #[test]
    fn pool_lists_match_vec_lists() {
        let lists = 7;
        let mut pool: WatchPool<u32> = WatchPool::default();
        pool.grow(lists);
        let mut vecs: Vec<Vec<u32>> = vec![Vec::new(); lists];
        let mut state = 0x2545_f491_u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for step in 0..5000u32 {
            let code = next(lists as u64) as usize;
            if vecs[code].is_empty() || next(3) > 0 {
                pool.push(code, step);
                vecs[code].push(step);
            } else {
                let i = next(vecs[code].len() as u64) as usize;
                pool.swap_remove(code, i);
                vecs[code].swap_remove(i);
            }
            if step % 701 == 0 {
                pool.compact();
                assert_eq!(pool.dead_slots(), 0);
            } else {
                pool.maybe_compact();
            }
            assert!(4 * pool.dead_slots() <= pool.total_slots());
            for (c, v) in vecs.iter().enumerate() {
                assert_eq!(pool.list(c), v.as_slice(), "list {c} at step {step}");
            }
        }
    }

    #[test]
    fn tail_list_grows_in_place() {
        let mut pool: WatchPool<u32> = WatchPool::default();
        pool.grow(2);
        pool.push(0, 1);
        pool.push(1, 2);
        for x in 0..20 {
            pool.push(1, x);
        }
        // List 1 ended the buffer at every growth: no dead room.
        assert_eq!(pool.dead_slots(), 0);
        for x in 0..FIRST_CAP {
            pool.push(0, x);
        }
        // List 0 outgrew its first room once and had to move: that room is
        // dead, and the list kept its order.
        assert_eq!(pool.dead_slots(), FIRST_CAP as usize);
        let want: Vec<u32> = [1].into_iter().chain(0..FIRST_CAP).collect();
        assert_eq!(pool.list(0), want.as_slice());
    }
}
