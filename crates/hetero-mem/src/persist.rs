//! NVM persistence domain: per-frame flush state and write-behind policies.
//!
//! The paper's SlowMem tier is NVM-like (PCM projections, Table 1), which
//! means frames resident there can *survive a crash* — but only the portion
//! of a frame's data that has actually reached the media. A store that is
//! still sitting in a volatile CPU cache at power-loss is lost, leaving the
//! frame *torn*. Real persistent-memory software closes that window with
//! `clflush`/`clwb` + `sfence` sequences; this module models the same
//! contract at page granularity:
//!
//! * every write to an NVM-resident frame makes it **dirty-in-cache**,
//! * an explicit flush (costed through [`crate::CostModel::flush_cost`])
//!   moves it to **flushed**,
//! * at a [`power-loss`](PersistDomain::survivors) event, flushed frames
//!   survive byte-exact, dirty frames are torn and must be discarded.
//!
//! Three write-behind policies trade flush traffic against the size of the
//! torn window (selected via `SimConfig::persist` in `hetero-core`):
//! eager (flush every epoch), epoch-batched (amortise the fence over
//! [`FLUSH_BATCH_EPOCHS`] epochs), and on-evict (free-riding on natural
//! cache eviction: a frame not re-written for [`ON_EVICT_AGE`] epochs is
//! assumed to have left the cache hierarchy on its own — zero flush cost,
//! but recently-written frames stay vulnerable).

use std::fmt;
use std::str::FromStr;

use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Epoch interval at which [`FlushPolicy::EpochBatched`] drains the dirty
/// set (the batch shares one `sfence`).
pub const FLUSH_BATCH_EPOCHS: u64 = 4;

/// Epochs a frame must go un-written before [`FlushPolicy::OnEvict`]
/// considers it naturally evicted from the cache hierarchy (and therefore
/// durable without an explicit flush).
pub const ON_EVICT_AGE: u32 = 2;

/// Write-behind flush policy for the NVM persistence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlushPolicy {
    /// No persistence domain: a crash loses the slow tier too (the
    /// pre-persistence behaviour; zero overhead).
    #[default]
    Off,
    /// Flush every dirty frame at the end of every epoch. Smallest torn
    /// window, highest flush traffic.
    Eager,
    /// Flush the accumulated dirty set every [`FLUSH_BATCH_EPOCHS`] epochs.
    /// Amortises fences; frames dirtied since the last drain are torn.
    EpochBatched,
    /// Never flush explicitly: frames age to durable once un-written for
    /// [`ON_EVICT_AGE`] epochs. Free, but the write-hot set is always torn.
    OnEvict,
}

impl FlushPolicy {
    /// Every policy, in ablation presentation order.
    pub const ALL: [FlushPolicy; 4] = [
        FlushPolicy::Off,
        FlushPolicy::Eager,
        FlushPolicy::EpochBatched,
        FlushPolicy::OnEvict,
    ];

    /// True when a persistence domain should be maintained at all.
    #[inline]
    pub fn is_enabled(self) -> bool {
        self != FlushPolicy::Off
    }
}

impl fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlushPolicy::Off => "off",
            FlushPolicy::Eager => "eager",
            FlushPolicy::EpochBatched => "epoch",
            FlushPolicy::OnEvict => "on-evict",
        };
        f.write_str(s)
    }
}

impl FromStr for FlushPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(FlushPolicy::Off),
            "eager" => Ok(FlushPolicy::Eager),
            "epoch" | "epoch-batched" => Ok(FlushPolicy::EpochBatched),
            "on-evict" | "onevict" => Ok(FlushPolicy::OnEvict),
            other => Err(format!(
                "unknown flush policy '{other}' (expected off|eager|epoch|on-evict)"
            )),
        }
    }
}

/// Persistence state of one NVM-tier frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameState {
    /// Not resident on the tier (free, or migrated away): untracked.
    Absent,
    /// Written since the last flush: cache lines may still be volatile.
    /// `clean_epochs` counts consecutive epochs without a (re)write.
    Dirty {
        /// Consecutive epochs the frame has gone un-written.
        clean_epochs: u32,
    },
    /// All lines reached the media: survives power loss byte-exact.
    Flushed,
}

/// The persistence domain of the NVM tier: tracks which resident frames are
/// dirty-in-cache versus flushed, drives the write-behind policy, and
/// answers the crash-time question "which frames survive?".
///
/// Frames are identified by their raw guest-frame index (`Gfn.0`); the
/// domain is deliberately ignorant of page types and reverse maps — the
/// engine owns that interpretation. It keeps one state per frame of the
/// tier it is swept over, in a dense array the sweeps reuse. All iteration
/// orders are ascending frame index, so every consumer is deterministic.
///
/// # Examples
///
/// ```
/// use hetero_mem::persist::{FlushPolicy, PersistDomain};
///
/// let mut d = PersistDomain::new(FlushPolicy::Eager);
/// // Epoch 0: of an 8-frame tier starting at frame 0, only frame 7 is
/// // resident, and it was written.
/// let mut tier = [None; 8];
/// tier[7] = Some(true);
/// let flushed = d.sweep(0, 0, &tier, |&frame| frame);
/// assert_eq!(flushed, 1); // eager drains every epoch
/// assert_eq!(d.dirty_frames(), 0);
/// assert_eq!(d.survivors(true), vec![7]); // now survives power loss
/// ```
#[derive(Debug, Clone)]
pub struct PersistDomain {
    policy: FlushPolicy,
    /// The frame `states[0]` describes.
    base: u64,
    /// One state per frame of the swept tier: `states[i]` is frame
    /// `base + i`. Laid out by the first sweep and reused by every later
    /// one.
    states: Vec<FrameState>,
    /// Tracked frames decoded from a snapshot, strictly ascending, that no
    /// sweep has laid out yet. A snapshot names frames but not the tier,
    /// so decoding keeps the pairs as read; the next sweep places them.
    /// Never non-empty together with a tracked entry of `states`.
    restored: Vec<(u64, FrameState)>,
    /// Frames tracked (not [`FrameState::Absent`]).
    tracked: u64,
    /// Tracked frames that are [`FrameState::Dirty`].
    dirty: u64,
    /// Frames explicitly flushed (costed through the cost model).
    pub flushes: u64,
    /// `sfence` ordering points issued.
    pub fences: u64,
    /// Frames that aged to durable under [`FlushPolicy::OnEvict`] (free).
    pub evict_flushes: u64,
    /// Frames discarded as torn at the most recent crash.
    pub torn_discards: u64,
}

impl PersistDomain {
    /// Creates an empty domain under `policy`.
    pub fn new(policy: FlushPolicy) -> Self {
        PersistDomain {
            policy,
            base: 0,
            states: Vec::new(),
            restored: Vec::new(),
            tracked: 0,
            dirty: 0,
            flushes: 0,
            fences: 0,
            evict_flushes: 0,
            torn_discards: 0,
        }
    }

    /// The active write-behind policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Ends epoch `epoch` (the engine's epoch index, which the batched
    /// policy drains on): walks `tier` — the descriptors of the NVM tier's
    /// frames, `tier[i]` being frame `base + i` — in step with the state
    /// array, runs the write-behind policy in the same pass, and returns how
    /// many frames were *explicitly* flushed (the caller charges
    /// [`crate::CostModel::flush_cost`] for exactly that count).
    /// `resident` reads one descriptor: `None` when the frame is not
    /// resident, else whether it was written this epoch.
    ///
    /// * A frame seen for the first time enters dirty: its initial fill
    ///   was a write.
    /// * A tracked frame no longer resident left the tier (freed, or
    ///   migrated away): its state dies with it, so it re-enters dirty if
    ///   it comes back.
    /// * A written frame is dirty again, which re-opens the torn window
    ///   even for a previously flushed frame.
    /// * An unwritten dirty frame ages one epoch; an unwritten flushed
    ///   frame stays flushed.
    ///
    /// The first sweep over a tier (and the first after a restore) lays
    /// the state array out for it; later sweeps allocate nothing.
    pub fn sweep<T>(
        &mut self,
        epoch: u64,
        base: u64,
        tier: &[T],
        resident: impl Fn(&T) -> Option<bool>,
    ) -> u64 {
        if self.base != base || self.states.len() != tier.len() || !self.restored.is_empty() {
            self.lay_out(base, tier.len());
        }
        let drain = match self.policy {
            FlushPolicy::Eager => true,
            FlushPolicy::EpochBatched => (epoch + 1).is_multiple_of(FLUSH_BATCH_EPOCHS),
            FlushPolicy::Off | FlushPolicy::OnEvict => false,
        };
        let age_out = self.policy == FlushPolicy::OnEvict;
        let (mut tracked, mut drained, mut aged, mut dirty) = (0, 0, 0, 0);
        for (slot, frame) in self.states.iter_mut().zip(tier) {
            let Some(written) = resident(frame) else {
                *slot = FrameState::Absent;
                continue;
            };
            tracked += 1;
            let mut state = match *slot {
                FrameState::Dirty { clean_epochs } if !written => FrameState::Dirty {
                    clean_epochs: clean_epochs.saturating_add(1),
                },
                FrameState::Flushed if !written => FrameState::Flushed,
                _ => FrameState::Dirty { clean_epochs: 0 },
            };
            if let FrameState::Dirty { clean_epochs } = state {
                if drain {
                    state = FrameState::Flushed;
                    drained += 1;
                } else if age_out && clean_epochs >= ON_EVICT_AGE {
                    state = FrameState::Flushed;
                    aged += 1;
                } else {
                    dirty += 1;
                }
            }
            *slot = state;
        }
        self.tracked = tracked;
        self.dirty = dirty;
        self.evict_flushes += aged;
        if drained > 0 {
            self.flushes += drained;
            self.fences += 1;
        }
        drained
    }

    /// Re-lays the state array out for the `len` frames from `base` on,
    /// carrying over every tracked frame inside them. A frame outside them
    /// is not on the tier, so its state dies, as a sweep would end it.
    #[cold]
    fn lay_out(&mut self, base: u64, len: usize) {
        let mut states = vec![FrameState::Absent; len];
        for (frame, state) in self.entries() {
            let index = frame.checked_sub(base).and_then(|i| usize::try_from(i).ok());
            if let Some(slot) = index.and_then(|i| states.get_mut(i)) {
                *slot = state;
            }
        }
        self.states = states;
        self.base = base;
        self.restored = Vec::new();
    }

    /// Every tracked frame and its state, ascending.
    fn entries(&self) -> impl Iterator<Item = (u64, FrameState)> + '_ {
        let dense = self
            .states
            .iter()
            .zip(self.base..)
            .filter(|(state, _)| **state != FrameState::Absent)
            .map(|(&state, frame)| (frame, state));
        self.restored.iter().copied().chain(dense)
    }

    /// Frames currently dirty-in-cache.
    pub fn dirty_frames(&self) -> u64 {
        self.dirty
    }

    /// Frames currently flushed (durable).
    pub fn flushed_frames(&self) -> u64 {
        self.tracked - self.dirty
    }

    /// Crash: returns the frames that survive, ascending. With
    /// `torn_lost = true` (host power loss) only flushed frames survive and
    /// dirty frames are counted into
    /// [`torn_discards`](PersistDomain::torn_discards); with `false` (guest
    /// crash under a live host, whose caches survive) every tracked frame
    /// survives. Either way the domain resets to empty — recovery re-seeds
    /// it from the recovered residency.
    pub fn survivors(&mut self, torn_lost: bool) -> Vec<u64> {
        let mut out = Vec::new();
        let mut torn = 0;
        for (frame, state) in self.entries() {
            if torn_lost && state != FrameState::Flushed {
                torn += 1;
            } else {
                out.push(frame);
            }
        }
        self.torn_discards += torn;
        self.states.fill(FrameState::Absent);
        self.restored.clear();
        self.tracked = 0;
        self.dirty = 0;
        out
    }

    /// Frames tracked (resident on the NVM tier as far as the domain knows).
    pub fn tracked(&self) -> u64 {
        self.tracked
    }

    /// The lowest and highest tracked frame, or `None` when nothing is
    /// tracked: what a restore checks against the NVM tier's frames.
    pub fn frame_span(&self) -> Option<(u64, u64)> {
        let mut frames = self.entries().map(|(frame, _)| frame);
        let first = frames.next()?;
        Some((first, frames.last().unwrap_or(first)))
    }
}

hetero_sim::impl_snap!(enum FlushPolicy {
    0 => Off {},
    1 => Eager {},
    2 => EpochBatched {},
    3 => OnEvict {},
});

/// Wire format: the policy, the tracked frames as a length and then their
/// `(frame, state)` pairs in ascending frame order — the same bytes a
/// `BTreeMap<u64, FrameState>` encodes to, a frame being a `u64` and a
/// state a tag byte (0 dirty, 1 flushed) with a dirty frame's `u32`
/// clean-epoch count after it — and the four counters. Encoding makes one
/// pass over the state array; decoding one pass over the pairs, which it
/// keeps as read until a sweep lays them out, so a frame number never sizes
/// an allocation. The dirty count is recomputed on decode, not stored.
/// Decoding rejects frames that are not strictly ascending, once the whole
/// array has been read.
impl Snap for PersistDomain {
    fn snap(&self, w: &mut SnapWriter) {
        self.policy.snap(w);
        w.put_usize(self.tracked as usize);
        for &(frame, state) in &self.restored {
            put_pair(w, frame, state);
        }
        for (&state, frame) in self.states.iter().zip(self.base..) {
            if state != FrameState::Absent {
                put_pair(w, frame, state);
            }
        }
        self.flushes.snap(w);
        self.fences.snap(w);
        self.evict_flushes.snap(w);
        self.torn_discards.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let policy = FlushPolicy::unsnap(r)?;
        let len = r.take_usize()?;
        // A pair takes at least 9 bytes.
        let mut restored = Vec::with_capacity(len.min(r.remaining() / 9));
        let (mut dirty, mut ascending) = (0, true);
        for _ in 0..len {
            let frame = r.take_u64()?;
            let state = match r.take_u8()? {
                0 => {
                    dirty += 1;
                    FrameState::Dirty {
                        clean_epochs: r.take_u32()?,
                    }
                }
                1 => FrameState::Flushed,
                tag => return Err(SnapshotError::bad_tag("FrameState", tag)),
            };
            ascending &= restored.last().is_none_or(|&(last, _)| last < frame);
            restored.push((frame, state));
        }
        if !ascending {
            return Err(SnapshotError::corrupt(
                "persistence domain frames are not strictly ascending",
            ));
        }
        Ok(PersistDomain {
            policy,
            base: 0,
            states: Vec::new(),
            restored,
            tracked: len as u64,
            dirty,
            flushes: u64::unsnap(r)?,
            fences: u64::unsnap(r)?,
            evict_flushes: u64::unsnap(r)?,
            torn_discards: u64::unsnap(r)?,
        })
    }
}

/// Writes one tracked frame's `(frame, state)` pair of the wire format; an
/// absent frame writes nothing.
#[inline(always)]
fn put_pair(w: &mut SnapWriter, frame: u64, state: FrameState) {
    match state {
        FrameState::Absent => {}
        FrameState::Dirty { clean_epochs } => {
            w.put_u64(frame);
            w.put_u8(0);
            w.put_u32(clean_epochs);
        }
        FrameState::Flushed => {
            w.put_u64(frame);
            w.put_u8(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames of the tier the tests sweep: frames 0 to 15.
    const TIER: usize = 16;

    /// One sweep over the test tier, where exactly the listed frames are
    /// resident, each with whether it was written this epoch.
    fn sweep(d: &mut PersistDomain, epoch: u64, resident: &[(u64, bool)]) -> u64 {
        let mut tier = [None; TIER];
        for &(frame, written) in resident {
            tier[frame as usize] = Some(written);
        }
        d.sweep(epoch, 0, &tier, |&frame| frame)
    }

    #[test]
    fn first_sight_is_dirty_and_eager_flushes_every_epoch() {
        let mut d = PersistDomain::new(FlushPolicy::Eager);
        assert_eq!(sweep(&mut d, 0, &[(1, false), (3, false)]), 2);
        assert_eq!(d.flushed_frames(), 2);
        assert_eq!(d.fences, 1);
        // No new writes: nothing to flush, no fence.
        assert_eq!(sweep(&mut d, 1, &[(1, false), (3, false)]), 0);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn rewrite_reopens_the_torn_window() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        assert_eq!(sweep(&mut d, FLUSH_BATCH_EPOCHS - 1, &[(5, true)]), 1);
        assert_eq!(d.flushed_frames(), 1);
        sweep(&mut d, FLUSH_BATCH_EPOCHS, &[(5, true)]);
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(d.flushed_frames(), 0);
    }

    #[test]
    fn epoch_batched_drains_on_the_interval() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        assert_eq!(sweep(&mut d, 0, &[(9, true)]), 0, "no drain before the interval");
        for e in 1..FLUSH_BATCH_EPOCHS - 1 {
            assert_eq!(sweep(&mut d, e, &[(9, false)]), 0, "no drain before the interval");
        }
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(sweep(&mut d, FLUSH_BATCH_EPOCHS - 1, &[(9, false)]), 1);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn on_evict_ages_clean_frames_to_durable_for_free() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        assert_eq!(sweep(&mut d, 0, &[(2, true)]), 0);
        // Two clean epochs age it out of the cache hierarchy.
        assert_eq!(sweep(&mut d, 1, &[(2, false)]), 0);
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(sweep(&mut d, 2, &[(2, false)]), 0);
        assert_eq!(d.flushed_frames(), 1);
        assert_eq!(d.evict_flushes, 1);
        assert_eq!(d.flushes, 0, "aging is free");
    }

    #[test]
    fn power_loss_tears_dirty_frames_only() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        sweep(&mut d, FLUSH_BATCH_EPOCHS - 1, &[(1, true), (2, true)]);
        // Frame 3 arrives after the drain: dirty at crash time.
        sweep(&mut d, FLUSH_BATCH_EPOCHS, &[(1, false), (2, false), (3, true)]);
        assert_eq!(d.survivors(true), vec![1, 2]);
        assert_eq!(d.torn_discards, 1);
        assert_eq!(d.tracked(), 0, "domain resets at crash");
        assert_eq!(d.dirty_frames(), 0);
    }

    #[test]
    fn guest_crash_preserves_dirty_frames() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        sweep(&mut d, 0, &[(4, true), (8, true)]);
        assert_eq!(d.survivors(false), vec![4, 8]);
        assert_eq!(d.torn_discards, 0);
    }

    #[test]
    fn absent_frames_retire() {
        let mut d = PersistDomain::new(FlushPolicy::Eager);
        sweep(&mut d, 0, &[1, 2, 3, 4].map(|f| (f, true)));
        sweep(&mut d, 1, &[(1, false), (4, false)]);
        assert_eq!(d.tracked(), 2);
        assert_eq!(d.survivors(false), vec![1, 4]);
    }

    #[test]
    fn a_frame_that_leaves_and_returns_restarts_dirty() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        sweep(&mut d, FLUSH_BATCH_EPOCHS - 1, &[(6, true), (7, true)]);
        assert_eq!(d.flushed_frames(), 2);
        sweep(&mut d, FLUSH_BATCH_EPOCHS, &[(6, false)]);
        sweep(&mut d, FLUSH_BATCH_EPOCHS + 1, &[(6, false), (7, false)]);
        assert_eq!(d.dirty_frames(), 1, "frame 7 came back unwritten but dirty");
        assert_eq!(d.survivors(true), vec![6]);
    }

    #[test]
    fn an_unwritten_flushed_frame_stays_flushed() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        sweep(&mut d, FLUSH_BATCH_EPOCHS - 1, &[(5, true)]);
        for e in FLUSH_BATCH_EPOCHS..2 * FLUSH_BATCH_EPOCHS {
            assert_eq!(
                sweep(&mut d, e, &[(5, false)]),
                0,
                "epoch {e}: nothing left to drain"
            );
            assert_eq!(d.flushed_frames(), 1);
        }
        assert_eq!(d.fences, 1);
    }

    /// The sweep's semantics as a sorted merge of `(frame, state)` pairs
    /// against the resident frames: first sight dirty, absent frames die,
    /// a rewrite re-dirties, clean epochs age. The dense sweep must agree
    /// with it on every output.
    #[derive(Clone)]
    struct Reference {
        policy: FlushPolicy,
        states: Vec<(u64, FrameState)>,
        counters: [u64; 4],
    }

    impl Reference {
        fn sweep(&mut self, epoch: u64, resident: &[(u64, bool)]) -> u64 {
            let drain = match self.policy {
                FlushPolicy::Eager => true,
                FlushPolicy::EpochBatched => (epoch + 1).is_multiple_of(FLUSH_BATCH_EPOCHS),
                _ => false,
            };
            let mut next = Vec::new();
            let (mut drained, mut aged) = (0, 0);
            for &(frame, written) in resident {
                let prior = self.states.iter().find(|&&(f, _)| f == frame).map(|&(_, s)| s);
                let mut state = match prior {
                    Some(FrameState::Dirty { clean_epochs }) if !written => FrameState::Dirty {
                        clean_epochs: clean_epochs + 1,
                    },
                    Some(FrameState::Flushed) if !written => FrameState::Flushed,
                    _ => FrameState::Dirty { clean_epochs: 0 },
                };
                if let FrameState::Dirty { clean_epochs } = state {
                    if drain {
                        state = FrameState::Flushed;
                        drained += 1;
                    } else if self.policy == FlushPolicy::OnEvict && clean_epochs >= ON_EVICT_AGE {
                        state = FrameState::Flushed;
                        aged += 1;
                    }
                }
                next.push((frame, state));
            }
            self.states = next;
            self.counters[2] += aged;
            if drained > 0 {
                self.counters[0] += drained;
                self.counters[1] += 1;
            }
            drained
        }

        fn dirty(&self) -> u64 {
            let flushed = self.states.iter().filter(|(_, s)| *s == FrameState::Flushed);
            self.states.len() as u64 - flushed.count() as u64
        }

        fn survivors(&mut self, torn_lost: bool) -> Vec<u64> {
            let torn = |s: &FrameState| torn_lost && *s != FrameState::Flushed;
            self.counters[3] += self.states.iter().filter(|(_, s)| torn(s)).count() as u64;
            let out = self.states.iter().filter(|(_, s)| !torn(s)).map(|&(f, _)| f);
            let out = out.collect();
            self.states.clear();
            out
        }

        fn encode(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.policy.snap(&mut w);
            w.put_usize(self.states.len());
            for &(frame, state) in &self.states {
                w.put_u64(frame);
                match state {
                    FrameState::Dirty { clean_epochs } => {
                        w.put_u8(0);
                        w.put_u32(clean_epochs);
                    }
                    _ => w.put_u8(1),
                }
            }
            for counter in self.counters {
                w.put_u64(counter);
            }
            w.into_bytes()
        }
    }

    fn encode(d: &PersistDomain) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.snap(&mut w);
        w.into_bytes()
    }

    /// Seeded residency sequences over a 64-frame tier starting at frame
    /// 100, under every policy: flush counts, dirty and flushed totals and
    /// the encoded bytes after every epoch, and both crash kinds' survivors
    /// every 8 epochs, match the reference. Each run restores from its own
    /// bytes every 5 epochs and crashes for real twice.
    #[test]
    fn dense_sweep_matches_the_merge_reference() {
        const BASE: u64 = 100;
        for policy in FlushPolicy::ALL {
            for seed in 1..=6u64 {
                let mut rng = hetero_sim::SimRng::seed_from(seed);
                let present = 0.3 + 0.1 * seed as f64;
                let mut d = PersistDomain::new(policy);
                let mut reference = Reference {
                    policy,
                    states: Vec::new(),
                    counters: [0; 4],
                };
                for epoch in 0..48u64 {
                    let tier: Vec<Option<bool>> = (0..64)
                        .map(|_| rng.chance(present).then(|| rng.chance(0.25)))
                        .collect();
                    let resident: Vec<(u64, bool)> = (BASE..)
                        .zip(&tier)
                        .filter_map(|(f, r)| r.map(|written| (f, written)))
                        .collect();
                    let at = format!("{policy} seed {seed} epoch {epoch}");
                    let flushed = d.sweep(epoch, BASE, &tier, |&r| r);
                    assert_eq!(flushed, reference.sweep(epoch, &resident), "{at}");
                    assert_eq!(d.dirty_frames(), reference.dirty(), "{at}");
                    assert_eq!(
                        d.flushed_frames(),
                        resident.len() as u64 - reference.dirty(),
                        "{at}"
                    );
                    assert_eq!(encode(&d), reference.encode(), "{at}");
                    if epoch % 8 == 7 {
                        for torn_lost in [true, false] {
                            assert_eq!(
                                d.clone().survivors(torn_lost),
                                reference.clone().survivors(torn_lost),
                                "{at} torn_lost {torn_lost}"
                            );
                        }
                    }
                    if epoch % 5 == 4 {
                        let bytes = encode(&d);
                        d = PersistDomain::unsnap(&mut SnapReader::new(&bytes)).unwrap();
                        assert_eq!(encode(&d), bytes, "{at}: decode + encode");
                    }
                    if epoch == 15 || epoch == 40 {
                        let torn_lost = epoch == 15;
                        assert_eq!(d.survivors(torn_lost), reference.survivors(torn_lost));
                        assert_eq!(encode(&d), reference.encode(), "{at}: after the crash");
                    }
                }
            }
        }
    }

    /// A domain's bytes with the given frames, each flushed.
    fn encoded(frames: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        FlushPolicy::Eager.snap(&mut w);
        w.put_usize(frames.len());
        for &f in frames {
            f.snap(&mut w);
            w.put_u8(1); // flushed
        }
        for counter in [3, 1, 0, 0] {
            w.put_u64(counter);
        }
        w.into_bytes()
    }

    #[test]
    fn decode_round_trips_and_rejects_unordered_frames() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        sweep(&mut d, 0, &[(1, true), (2, true)]);
        sweep(&mut d, 1, &[(1, false), (2, true), (9, true)]);
        sweep(&mut d, 2, &[(1, false), (2, false), (9, false)]);
        let mut w = SnapWriter::new();
        d.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = PersistDomain::unsnap(&mut r).expect("a swept domain decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!((back.dirty_frames(), back.flushed_frames()), (2, 1));
        assert_eq!(back.evict_flushes, d.evict_flushes);

        assert!(PersistDomain::unsnap(&mut SnapReader::new(&encoded(&[2, 5]))).is_ok());
        for frames in [[5, 5], [5, 2]] {
            let bytes = encoded(&frames);
            let err = PersistDomain::unsnap(&mut SnapReader::new(&bytes)).err();
            assert!(
                matches!(err, Some(SnapshotError::Corrupt(_))),
                "{frames:?}: {err:?}"
            );
        }
        // A length prefix far beyond the bytes present fails without
        // reserving memory for it.
        let mut inflated = encoded(&[2]);
        inflated[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(PersistDomain::unsnap(&mut SnapReader::new(&inflated)).is_err());
    }

    /// 64-bit FNV-1a digest of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Recorded with the decoder before its one-pass rewrite.
    const PERSIST_ERROR_DIGEST: u64 = 0x6931_cabe_103e_142f;

    #[test]
    fn decode_errors_match_the_pinned_digest() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        sweep(&mut d, 0, &[(1, true), (2, true), (4, true)]);
        sweep(&mut d, 1, &[(1, false), (2, true), (4, false), (9, true)]);
        sweep(&mut d, 2, &[(1, false), (2, false), (4, false), (9, false)]);
        let mut w = SnapWriter::new();
        d.snap(&mut w);
        let bytes = w.into_bytes();
        // The policy tag and each state's tag set to the first value they
        // reject, then each frame set to its predecessor's number.
        let mut mutations = vec![(0, vec![4u8])];
        let mut at = 9;
        let mut prev = None;
        for _ in 0..d.tracked() {
            if let Some(p) = prev {
                mutations.push((at, u64::to_le_bytes(p).to_vec()));
            }
            prev = Some(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
            mutations.push((at + 8, vec![2]));
            at += if bytes[at + 8] == 0 { 13 } else { 9 };
        }
        assert_eq!((mutations.len(), bytes.len() - at), (1 + 4 + 3, 32));
        let mut seen = String::new();
        let inputs = (0..bytes.len())
            .map(|cut| bytes[..cut].to_vec())
            .chain(mutations.iter().map(|(at, v)| {
                let mut m = bytes.clone();
                m[*at..*at + v.len()].copy_from_slice(v);
                m
            }));
        for input in inputs {
            let mut r = SnapReader::new(&input);
            match PersistDomain::unsnap(&mut r).and_then(|_| r.finish()) {
                Ok(()) => seen.push_str("ok"),
                Err(e) => seen.push_str(&e.to_string()),
            }
            seen.push('\n');
        }
        let digest = fnv1a(seen.as_bytes());
        assert_eq!(
            digest, PERSIST_ERROR_DIGEST,
            "persistence decode errors moved: {digest:#018x}"
        );
    }

    #[test]
    fn policy_parsing_round_trips() {
        for p in FlushPolicy::ALL {
            assert_eq!(p.to_string().parse::<FlushPolicy>().unwrap(), p);
        }
        assert_eq!("epoch-batched".parse::<FlushPolicy>().unwrap(), FlushPolicy::EpochBatched);
        assert!("warm".parse::<FlushPolicy>().is_err());
        assert!(!FlushPolicy::Off.is_enabled());
        assert!(FlushPolicy::OnEvict.is_enabled());
    }
}
