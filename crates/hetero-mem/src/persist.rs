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

/// Persistence state of one NVM-resident frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameState {
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
/// engine owns that interpretation. All iteration orders are ascending
/// frame index, so every consumer is deterministic.
///
/// # Examples
///
/// ```
/// use hetero_mem::persist::{FlushPolicy, PersistDomain};
///
/// let mut d = PersistDomain::new(FlushPolicy::Eager);
/// // Epoch 0: frame 7 is resident and written.
/// let flushed = d.sweep(0, [(7, true)]);
/// assert_eq!(flushed, 1); // eager drains every epoch
/// assert_eq!(d.dirty_frames(), 0);
/// assert_eq!(d.survivors(true), vec![7]); // now survives power loss
/// ```
#[derive(Debug, Clone)]
pub struct PersistDomain {
    policy: FlushPolicy,
    /// Tracked frames and their states, strictly ascending by frame.
    states: Vec<(u64, FrameState)>,
    /// Entries of `states` that are [`FrameState::Dirty`].
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
            states: Vec::new(),
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
    /// policy drains on): merges `resident` — every frame present on the
    /// NVM tier with whether it was written this epoch, in strictly
    /// ascending frame order — against the tracked states in one pass,
    /// runs the write-behind policy in the same pass, and returns how many
    /// frames were *explicitly* flushed (the caller charges
    /// [`crate::CostModel::flush_cost`] for exactly that count).
    ///
    /// * A frame seen for the first time enters dirty: its initial fill
    ///   was a write.
    /// * A tracked frame missing from `resident` left the tier (freed, or
    ///   migrated away): its state dies with it, so it re-enters dirty if
    ///   it comes back.
    /// * A written frame is dirty again, which re-opens the torn window
    ///   even for a previously flushed frame.
    /// * An unwritten dirty frame ages one epoch; an unwritten flushed
    ///   frame stays flushed.
    ///
    /// # Panics
    ///
    /// If `resident` is not strictly ascending.
    pub fn sweep(&mut self, epoch: u64, resident: impl IntoIterator<Item = (u64, bool)>) -> u64 {
        let drain = match self.policy {
            FlushPolicy::Eager => true,
            FlushPolicy::EpochBatched => (epoch + 1).is_multiple_of(FLUSH_BATCH_EPOCHS),
            FlushPolicy::Off | FlushPolicy::OnEvict => false,
        };
        let age_out = self.policy == FlushPolicy::OnEvict;
        // Merge into a fresh vector each epoch: a second buffer kept for
        // reuse across epochs fragmented the heap and raised peak RSS.
        let old = std::mem::take(&mut self.states);
        self.states.reserve(old.len());
        let (mut drained, mut aged, mut dirty) = (0, 0, 0);
        let mut i = 0;
        for (frame, written) in resident {
            if let Some(&(last, _)) = self.states.last() {
                assert!(
                    last < frame,
                    "sweep: frame {frame} after {last} is not ascending"
                );
            }
            while old.get(i).is_some_and(|&(f, _)| f < frame) {
                i += 1;
            }
            let mut state = match old.get(i) {
                Some(&(f, prior)) if f == frame => {
                    i += 1;
                    match prior {
                        _ if written => FrameState::Dirty { clean_epochs: 0 },
                        FrameState::Dirty { clean_epochs } => FrameState::Dirty {
                            clean_epochs: clean_epochs.saturating_add(1),
                        },
                        FrameState::Flushed => FrameState::Flushed,
                    }
                }
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
            self.states.push((frame, state));
        }
        self.dirty = dirty;
        self.evict_flushes += aged;
        if drained > 0 {
            self.flushes += drained;
            self.fences += 1;
        }
        drained
    }

    /// Frames currently dirty-in-cache.
    pub fn dirty_frames(&self) -> u64 {
        self.dirty
    }

    /// Frames currently flushed (durable).
    pub fn flushed_frames(&self) -> u64 {
        self.tracked() - self.dirty
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
        for &(frame, state) in &self.states {
            match state {
                FrameState::Flushed => out.push(frame),
                FrameState::Dirty { .. } => {
                    if torn_lost {
                        self.torn_discards += 1;
                    } else {
                        out.push(frame);
                    }
                }
            }
        }
        self.states.clear();
        self.dirty = 0;
        out
    }

    /// Frames tracked (resident on the NVM tier as far as the domain knows).
    pub fn tracked(&self) -> u64 {
        self.states.len() as u64
    }
}

hetero_sim::impl_snap!(enum FlushPolicy {
    0 => Off {},
    1 => Eager {},
    2 => EpochBatched {},
    3 => OnEvict {},
});

/// Wire format: the policy, `states` as a length and then its `(frame,
/// state)` pairs — the same bytes a `BTreeMap<u64, FrameState>` encodes
/// to, a frame being a `u64` and a state a tag byte (0 dirty, 1 flushed)
/// with a dirty frame's `u32` clean-epoch count after it — and the four
/// counters. Both directions make one pass over `states`; the dirty count
/// is recomputed on decode, not stored. Decoding rejects frames that are
/// not strictly ascending, once the whole array has been read.
impl Snap for PersistDomain {
    fn snap(&self, w: &mut SnapWriter) {
        self.policy.snap(w);
        w.put_usize(self.states.len());
        for &(frame, state) in &self.states {
            w.put_u64(frame);
            match state {
                FrameState::Dirty { clean_epochs } => {
                    w.put_u8(0);
                    w.put_u32(clean_epochs);
                }
                FrameState::Flushed => w.put_u8(1),
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
        let mut states = Vec::with_capacity(len.min(r.remaining() / 9));
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
            ascending &= states.last().is_none_or(|&(last, _)| last < frame);
            states.push((frame, state));
        }
        if !ascending {
            return Err(SnapshotError::corrupt(
                "persistence domain frames are not strictly ascending",
            ));
        }
        Ok(PersistDomain {
            policy,
            states,
            dirty,
            flushes: u64::unsnap(r)?,
            fences: u64::unsnap(r)?,
            evict_flushes: u64::unsnap(r)?,
            torn_discards: u64::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sight_is_dirty_and_eager_flushes_every_epoch() {
        let mut d = PersistDomain::new(FlushPolicy::Eager);
        assert_eq!(d.sweep(0, [(1, false), (3, false)]), 2);
        assert_eq!(d.flushed_frames(), 2);
        assert_eq!(d.fences, 1);
        // No new writes: nothing to flush, no fence.
        assert_eq!(d.sweep(1, [(1, false), (3, false)]), 0);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn rewrite_reopens_the_torn_window() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        assert_eq!(d.sweep(FLUSH_BATCH_EPOCHS - 1, [(5, true)]), 1);
        assert_eq!(d.flushed_frames(), 1);
        d.sweep(FLUSH_BATCH_EPOCHS, [(5, true)]);
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(d.flushed_frames(), 0);
    }

    #[test]
    fn epoch_batched_drains_on_the_interval() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        assert_eq!(d.sweep(0, [(9, true)]), 0, "no drain before the interval");
        for e in 1..FLUSH_BATCH_EPOCHS - 1 {
            assert_eq!(d.sweep(e, [(9, false)]), 0, "no drain before the interval");
        }
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(d.sweep(FLUSH_BATCH_EPOCHS - 1, [(9, false)]), 1);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn on_evict_ages_clean_frames_to_durable_for_free() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        assert_eq!(d.sweep(0, [(2, true)]), 0);
        // Two clean epochs age it out of the cache hierarchy.
        assert_eq!(d.sweep(1, [(2, false)]), 0);
        assert_eq!(d.dirty_frames(), 1);
        assert_eq!(d.sweep(2, [(2, false)]), 0);
        assert_eq!(d.flushed_frames(), 1);
        assert_eq!(d.evict_flushes, 1);
        assert_eq!(d.flushes, 0, "aging is free");
    }

    #[test]
    fn power_loss_tears_dirty_frames_only() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        d.sweep(FLUSH_BATCH_EPOCHS - 1, [(1, true), (2, true)]);
        // Frame 3 arrives after the drain: dirty at crash time.
        d.sweep(FLUSH_BATCH_EPOCHS, [(1, false), (2, false), (3, true)]);
        assert_eq!(d.survivors(true), vec![1, 2]);
        assert_eq!(d.torn_discards, 1);
        assert_eq!(d.tracked(), 0, "domain resets at crash");
        assert_eq!(d.dirty_frames(), 0);
    }

    #[test]
    fn guest_crash_preserves_dirty_frames() {
        let mut d = PersistDomain::new(FlushPolicy::OnEvict);
        d.sweep(0, [(4, true), (8, true)]);
        assert_eq!(d.survivors(false), vec![4, 8]);
        assert_eq!(d.torn_discards, 0);
    }

    #[test]
    fn absent_frames_retire() {
        let mut d = PersistDomain::new(FlushPolicy::Eager);
        d.sweep(0, [1, 2, 3, 4].map(|f| (f, true)));
        d.sweep(1, [(1, false), (4, false)]);
        assert_eq!(d.tracked(), 2);
        assert_eq!(d.survivors(false), vec![1, 4]);
    }

    #[test]
    fn a_frame_that_leaves_and_returns_restarts_dirty() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        d.sweep(FLUSH_BATCH_EPOCHS - 1, [(6, true), (7, true)]);
        assert_eq!(d.flushed_frames(), 2);
        d.sweep(FLUSH_BATCH_EPOCHS, [(6, false)]);
        d.sweep(FLUSH_BATCH_EPOCHS + 1, [(6, false), (7, false)]);
        assert_eq!(d.dirty_frames(), 1, "frame 7 came back unwritten but dirty");
        assert_eq!(d.survivors(true), vec![6]);
    }

    #[test]
    fn an_unwritten_flushed_frame_stays_flushed() {
        let mut d = PersistDomain::new(FlushPolicy::EpochBatched);
        d.sweep(FLUSH_BATCH_EPOCHS - 1, [(5, true)]);
        for e in FLUSH_BATCH_EPOCHS..2 * FLUSH_BATCH_EPOCHS {
            assert_eq!(
                d.sweep(e, [(5, false)]),
                0,
                "epoch {e}: nothing left to drain"
            );
            assert_eq!(d.flushed_frames(), 1);
        }
        assert_eq!(d.fences, 1);
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
        d.sweep(0, [(1, true), (2, true)]);
        d.sweep(1, [(1, false), (2, true), (9, true)]);
        d.sweep(2, [(1, false), (2, false), (9, false)]);
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
        d.sweep(0, [(1, true), (2, true), (4, true)]);
        d.sweep(1, [(1, false), (2, true), (4, false), (9, true)]);
        d.sweep(2, [(1, false), (2, false), (4, false), (9, false)]);
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
