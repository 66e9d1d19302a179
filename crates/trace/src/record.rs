//! Trace records: the unit of work fed to the simulated processor.

/// Cache-line size in bytes (128 B on the Power5+).
pub const LINE_BYTES: u64 = 128;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 7;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
}

/// One memory access in a trace: the simulated core executes `gap` cycles
/// of non-memory work, then issues the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Compute cycles preceding this access (models memory intensity).
    pub gap: u32,
    /// Hardware thread issuing the access (0 for single-threaded traces).
    pub thread: u8,
}

impl MemAccess {
    /// The cache line this access falls in.
    #[inline]
    pub fn line(&self) -> u64 {
        self.addr >> LINE_SHIFT
    }

    /// Construct a read of the given cache line on thread 0.
    pub fn read_line(line: u64, gap: u32) -> Self {
        MemAccess { addr: line << LINE_SHIFT, kind: AccessKind::Read, gap, thread: 0 }
    }

    /// Construct a write of the given cache line on thread 0.
    pub fn write_line(line: u64, gap: u32) -> Self {
        MemAccess { addr: line << LINE_SHIFT, kind: AccessKind::Write, gap, thread: 0 }
    }
}

/// One line-aligned [`MemAccess`] of a known thread, packed into 64 bits as
/// `line << 20 | gap << 1 | is_write`: half the size of a `MemAccess`.
///
/// The thread id is not stored; a packed stream holds one thread's
/// accesses and [`PackedAccess::unpack`] is told which. Only
/// [`PackedAccess::pack`] builds one, so every value unpacks to exactly the
/// access it was packed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAccess(u64);

impl PackedAccess {
    /// The largest cache line a packed access can name (44 bits).
    pub const MAX_LINE: u64 = (1 << 44) - 1;

    /// The largest gap a packed access can hold (19 bits).
    pub const MAX_GAP: u32 = (1 << 19) - 1;

    /// Pack `a`, or `None` when its address is not line-aligned, its line
    /// exceeds [`Self::MAX_LINE`], or its gap exceeds [`Self::MAX_GAP`].
    /// `a.thread` is dropped.
    #[inline]
    pub fn pack(a: &MemAccess) -> Option<Self> {
        let line = a.line();
        if a.addr != line << LINE_SHIFT || line > Self::MAX_LINE || a.gap > Self::MAX_GAP {
            return None;
        }
        Some(PackedAccess(
            line << 20 | u64::from(a.gap) << 1 | u64::from(a.kind == AccessKind::Write),
        ))
    }

    /// The access this value was packed from, issued by `thread`.
    #[inline]
    pub fn unpack(self, thread: u8) -> MemAccess {
        let kind = if self.0 & 1 == 0 { AccessKind::Read } else { AccessKind::Write };
        MemAccess {
            addr: self.0 >> 20 << LINE_SHIFT,
            kind,
            gap: (self.0 >> 1) as u32 & Self::MAX_GAP,
            thread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{self, Suite};
    use crate::{thread_seed, TraceGenerator};

    #[test]
    fn line_extraction() {
        let a = MemAccess { addr: 128 * 5 + 17, kind: AccessKind::Read, gap: 0, thread: 0 };
        assert_eq!(a.line(), 5);
    }

    #[test]
    fn constructors_roundtrip() {
        let r = MemAccess::read_line(42, 3);
        assert_eq!(r.line(), 42);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.gap, 3);
        let w = MemAccess::write_line(42, 0);
        assert_eq!(w.kind, AccessKind::Write);
    }

    #[test]
    fn line_constants_consistent() {
        assert_eq!(1u64 << LINE_SHIFT, LINE_BYTES);
    }

    #[test]
    fn packing_keeps_every_field_up_to_its_limit() {
        assert_eq!(std::mem::size_of::<PackedAccess>(), 8);
        let access = |line: u64, kind, gap, thread| MemAccess {
            addr: line << LINE_SHIFT,
            kind,
            gap,
            thread,
        };
        for kind in [AccessKind::Read, AccessKind::Write] {
            for (line, gap) in [
                (0, 0),
                (PackedAccess::MAX_LINE, 0),
                (0, PackedAccess::MAX_GAP),
                (PackedAccess::MAX_LINE, PackedAccess::MAX_GAP),
            ] {
                for thread in [0, 1] {
                    let a = access(line, kind, gap, thread);
                    let packed = PackedAccess::pack(&a).expect("fits");
                    assert_eq!(packed.unpack(thread), a);
                }
            }
            // The first line and the first gap past the limits.
            assert_eq!(PackedAccess::pack(&access(PackedAccess::MAX_LINE + 1, kind, 0, 0)), None);
            assert_eq!(PackedAccess::pack(&access(0, kind, PackedAccess::MAX_GAP + 1, 0)), None);
            assert_eq!(
                PackedAccess::pack(&access(u64::MAX >> LINE_SHIFT, kind, u32::MAX, 0)),
                None
            );
            // A byte offset inside the line has no bits to go in.
            let unaligned = MemAccess { addr: (5 << LINE_SHIFT) + 1, ..access(5, kind, 3, 0) };
            assert_eq!(PackedAccess::pack(&unaligned), None);
        }
        assert_eq!(PackedAccess::MAX_LINE, (1 << 44) - 1);
        assert_eq!(PackedAccess::MAX_GAP, (1 << 19) - 1);
    }

    #[test]
    fn every_suite_trace_packs_and_unpacks_exactly() {
        for profile in suites::all_profiles() {
            let threads =
                if suites::suite_of(&profile.name) == Some(Suite::Commercial) { 2 } else { 1 };
            for thread in 0..threads {
                let gen = TraceGenerator::new(profile.clone(), thread_seed(0x5eed, thread))
                    .with_thread(thread);
                for (i, a) in gen.take(100_000).enumerate() {
                    let packed = PackedAccess::pack(&a).unwrap_or_else(|| {
                        panic!("{} thread {thread} access {i} fits", profile.name)
                    });
                    assert_eq!(
                        packed.unpack(thread),
                        a,
                        "{} thread {thread} access {i}",
                        profile.name
                    );
                }
            }
        }
    }
}
