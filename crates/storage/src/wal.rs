//! The append-only, CRC-framed, segment-rotated write-ahead log.
//!
//! # Frame layout
//!
//! A segment file is an 8-byte magic header (`MGKWAL01`) followed by
//! frames:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The payload is a tagged record ([`WalRecord`]): mutation ops carry the
//! op kind, the request text, and the **post-op** epoch pair; marks carry
//! the current epoch pair without an op (written e.g. on clean shutdown).
//! Log-shipping replication streams the same frames over TCP, so
//! [`WalRecord::encode_frame`] and [`WalRecord::read_frame`] are the one
//! encoder and the one length/CRC check for disk and network alike.
//! Because every op bumps exactly one epoch by one, the epoch *sum* is a
//! position on the session's linear history — recovery uses it to skip
//! records a checkpoint already covers and to detect gaps.
//!
//! # Torn tails
//!
//! Only the **final** segment of a log may end mid-frame: rotation syncs
//! the outgoing segment (and the directory) regardless of the fsync
//! policy, and a reopened log always starts a fresh segment. A scanner
//! therefore treats an incomplete or CRC-mismatching frame at the end of
//! the final segment as a torn tail (discarded, byte count reported) and
//! the same condition anywhere else as hard corruption.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use magik_relalg::codec::{put_str, put_varint, CodecError, Reader};

use crate::crc::crc32;
use crate::StorageError;

/// Magic bytes opening every WAL segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"MGKWAL01";

/// The largest payload a frame may declare. Request lines are capped at
/// 1 MiB by the server; anything past this is corrupt or torn.
const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

/// Why [`WalRecord::read_frame`] refused a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The source failed, or ended mid-frame (a torn tail on disk).
    Io(std::io::Error),
    /// The header declares an empty payload or one past the size cap.
    Length(u32),
    /// The payload does not match the header's CRC.
    Crc,
    /// The CRC matches but the payload does not decode: the writer never
    /// produces such bytes.
    Record(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) if e.kind() == ErrorKind::UnexpectedEof => {
                f.write_str("incomplete frame")
            }
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::Length(len) => write!(f, "implausible frame length {len}"),
            FrameError::Crc => f.write_str("frame CRC mismatch"),
            FrameError::Record(e) => write!(f, "undecodable record: {e}"),
        }
    }
}

/// When (if ever) appends flush to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledged op is durable.
    Always,
    /// Fsync at most once per interval: bounded data loss, high
    /// throughput.
    Interval(Duration),
    /// Never fsync explicitly; the OS flushes when it pleases. Survives
    /// process crashes (the kernel holds the pages) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval` (default 100 ms) or
    /// `interval:MILLIS`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(Duration::from_millis(100))),
            _ => {
                let ms: u64 = s.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

/// The mutation verbs the log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `assert <atom>` — fact insertion.
    Assert,
    /// `retract <atom>` — fact removal.
    Retract,
    /// `compl <tcs>` — TC-statement addition.
    Compl,
}

impl OpKind {
    fn tag(self) -> u8 {
        match self {
            OpKind::Assert => 0,
            OpKind::Retract => 1,
            OpKind::Compl => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<OpKind> {
        match tag {
            0 => Some(OpKind::Assert),
            1 => Some(OpKind::Retract),
            2 => Some(OpKind::Compl),
            _ => None,
        }
    }
}

/// One logged record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A mutation op: the request remainder after the verb (e.g.
    /// `edge(a, b).`) plus the epochs *after* the op applied.
    Op {
        /// Which mutation verb.
        kind: OpKind,
        /// The textual request remainder, parsed again by the op's own
        /// mutation code when the record is applied from the log.
        text: String,
        /// TCS epoch after this op.
        tcs_epoch: u64,
        /// Data epoch after this op.
        data_epoch: u64,
    },
    /// An epoch marker: records the current epochs without an op (clean
    /// shutdown, recovery boundary). Does not advance the history.
    Mark {
        /// Current TCS epoch.
        tcs_epoch: u64,
        /// Current data epoch.
        data_epoch: u64,
    },
}

const TAG_OP: u8 = 1;
const TAG_MARK: u8 = 2;

impl WalRecord {
    /// The `(tcs_epoch, data_epoch)` pair the record carries.
    pub fn epochs(&self) -> (u64, u64) {
        match *self {
            WalRecord::Op {
                tcs_epoch,
                data_epoch,
                ..
            }
            | WalRecord::Mark {
                tcs_epoch,
                data_epoch,
            } => (tcs_epoch, data_epoch),
        }
    }

    /// The record's position on the linear history: each op bumps exactly
    /// one epoch by one, so the sum increments by exactly one per op.
    pub fn epoch_sum(&self) -> u64 {
        let (t, d) = self.epochs();
        t + d
    }

    /// Serializes the record as one frame,
    /// `[payload_len: u32 LE][crc32: u32 LE][payload]`: what the WAL
    /// writer appends to a segment and what log-shipping replication
    /// sends over TCP.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(72);
        frame.extend_from_slice(&[0; 8]);
        self.encode(&mut frame);
        let payload_len = u32::try_from(frame.len() - 8).expect("payload fits u32");
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Reads one frame from `r` and decodes its record: the one length
    /// and CRC check for segment scans and replication streams alike. The
    /// declared length is bounded before the payload is allocated, and the
    /// CRC is checked before the payload is decoded.
    pub fn read_frame(r: &mut impl Read) -> Result<WalRecord, FrameError> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header).map_err(FrameError::Io)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Length(len));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload).map_err(FrameError::Io)?;
        if crc32(&payload) != crc {
            return Err(FrameError::Crc);
        }
        WalRecord::decode(&payload).map_err(|e| FrameError::Record(e.to_string()))
    }

    /// Decodes a frame payload: the bytes after a frame's 8-byte header.
    /// The caller is expected to have verified the frame CRC already; this
    /// rejects structurally invalid payloads.
    pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
        WalRecord::decode(payload).map_err(|e| e.to_string())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Op {
                kind,
                text,
                tcs_epoch,
                data_epoch,
            } => {
                out.push(TAG_OP);
                out.push(kind.tag());
                put_varint(out, *tcs_epoch);
                put_varint(out, *data_epoch);
                put_str(out, text);
            }
            WalRecord::Mark {
                tcs_epoch,
                data_epoch,
            } => {
                out.push(TAG_MARK);
                put_varint(out, *tcs_epoch);
                put_varint(out, *data_epoch);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_OP => {
                let kind =
                    OpKind::from_tag(r.u8()?).ok_or(CodecError::Malformed("unknown op kind"))?;
                let tcs_epoch = r.varint()?;
                let data_epoch = r.varint()?;
                let text = r.str()?.to_owned();
                WalRecord::Op {
                    kind,
                    text,
                    tcs_epoch,
                    data_epoch,
                }
            }
            TAG_MARK => WalRecord::Mark {
                tcs_epoch: r.varint()?,
                data_epoch: r.varint()?,
            },
            _ => return Err(CodecError::Malformed("unknown record tag")),
        };
        if !r.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in record"));
        }
        Ok(rec)
    }
}

/// The path of segment `seq` under `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// All WAL segments under `dir`, sorted by sequence number.
pub(crate) fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Fsyncs a directory so renames/creations/removals inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// What scanning one segment found.
#[derive(Debug, Default)]
pub(crate) struct SegmentScan {
    /// The CRC-valid, decodable records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (0 when the segment ends cleanly).
    pub torn_bytes: u64,
}

/// Scans a segment file. `allow_torn` is `true` only for the final
/// segment of a log: there an incomplete or CRC-mismatching frame at the
/// end is a torn tail (discarded and counted), anywhere else it is hard
/// corruption. A frame whose CRC matches but whose payload does not
/// decode is always corruption — the writer never produced such bytes.
pub(crate) fn scan_segment(path: &Path, allow_torn: bool) -> Result<SegmentScan, StorageError> {
    let corrupt = |detail: String| StorageError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < SEGMENT_MAGIC.len() || &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // A header shorter than the magic can only be a torn first write.
        if allow_torn && data.len() < SEGMENT_MAGIC.len() {
            return Ok(SegmentScan {
                records: Vec::new(),
                torn_bytes: data.len() as u64,
            });
        }
        return Err(corrupt("bad segment magic".to_string()));
    }
    let mut scan = SegmentScan::default();
    let mut rest = &data[SEGMENT_MAGIC.len()..];
    while !rest.is_empty() {
        let pos = data.len() - rest.len();
        match WalRecord::read_frame(&mut rest) {
            Ok(rec) => scan.records.push(rec),
            Err(FrameError::Record(e)) => {
                return Err(corrupt(format!("undecodable record at byte {pos}: {e}")));
            }
            // At the tail of the final segment an invalid frame is torn.
            Err(why) => {
                if allow_torn {
                    scan.torn_bytes = (data.len() - pos) as u64;
                    return Ok(scan);
                }
                return Err(corrupt(format!("{why} at byte {pos} of a sealed segment")));
            }
        }
    }
    Ok(scan)
}

/// The result of one append.
#[derive(Debug, Clone, Copy)]
pub struct Append {
    /// Bytes written for the frame.
    pub bytes: u64,
    /// Whether the append triggered an fsync.
    pub synced: bool,
}

/// The writable end of the log: the current segment plus rotation and
/// fsync policy.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    seq: u64,
    file: File,
    written: u64,
    last_sync: Instant,
    dirty: bool,
}

impl Wal {
    /// Creates segment `seq` under `dir` and returns a writer positioned
    /// on it. Fails if the segment already exists (sequence numbers are
    /// never reused).
    pub fn create(
        dir: &Path,
        seq: u64,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> std::io::Result<Wal> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        // The segment must exist durably before anything in it is relied
        // on; sync data + directory once at creation.
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes,
            seq,
            file,
            written: SEGMENT_MAGIC.len() as u64,
            last_sync: Instant::now(),
            dirty: false,
        })
    }

    /// The sequence number of the segment currently being written.
    pub fn current_seq(&self) -> u64 {
        self.seq
    }

    /// Appends one record, rotating first if the current segment is full,
    /// and syncing according to the fsync policy.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<Append> {
        if self.written >= self.segment_bytes {
            self.rotate()?;
        }
        let frame = rec.encode_frame();
        self.file.write_all(&frame)?;
        self.written += frame.len() as u64;
        self.dirty = true;
        let synced = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if synced {
            self.sync()?;
        }
        Ok(Append {
            bytes: frame.len() as u64,
            synced,
        })
    }

    /// Flushes the current segment to stable storage (regardless of
    /// policy). No-op when nothing unsynced is pending.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Seals the current segment (sync data + directory — so only the
    /// *final* segment of a log can ever be torn) and starts the next one.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        let next = Wal::create(&self.dir, self.seq + 1, self.policy, self.segment_bytes)?;
        *self = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn op(kind: OpKind, text: &str, te: u64, de: u64) -> WalRecord {
        WalRecord::Op {
            kind,
            text: text.to_string(),
            tcs_epoch: te,
            data_epoch: de,
        }
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("interval:abc"), None);
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let dir = test_dir("wal-roundtrip");
        let records = vec![
            op(OpKind::Assert, "edge(a, b).", 0, 1),
            op(OpKind::Compl, "edge(X, Y) ; true.", 1, 1),
            op(OpKind::Retract, "edge(a, b).", 1, 2),
            WalRecord::Mark {
                tcs_epoch: 1,
                data_epoch: 2,
            },
        ];
        let mut wal = Wal::create(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        wal.sync().unwrap();
        let scan = scan_segment(&segment_path(&dir, 0), true).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.torn_bytes, 0);
        // A replication stream carries the writer's frames unchanged, and
        // its reader checks them as the segment scan does.
        let data = std::fs::read(segment_path(&dir, 0)).unwrap();
        let mut stream = &data[SEGMENT_MAGIC.len()..];
        let streamed: Vec<WalRecord> = records
            .iter()
            .map(|_| WalRecord::read_frame(&mut stream).unwrap())
            .collect();
        assert_eq!(streamed, records);
        assert!(stream.is_empty());
        let mut flipped = records[0].encode_frame();
        flipped[4] ^= 0x01;
        assert!(matches!(
            WalRecord::read_frame(&mut flipped.as_slice()),
            Err(FrameError::Crc)
        ));
    }

    #[test]
    fn torn_tail_is_discarded_only_in_final_segment() {
        let dir = test_dir("wal-torn");
        let mut wal = Wal::create(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        wal.append(&op(OpKind::Assert, "edge(a, b).", 0, 1))
            .unwrap();
        wal.append(&op(OpKind::Assert, "edge(b, c).", 0, 2))
            .unwrap();
        wal.sync().unwrap();
        let path = segment_path(&dir, 0);
        // Tear the last frame: chop 3 bytes off the end.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let scan = scan_segment(&path, true).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
        // The same bytes in a sealed (non-final) segment are corruption.
        let err = scan_segment(&path, false).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn crc_flip_mid_log_is_corruption_even_when_torn_allowed_elsewhere() {
        let dir = test_dir("wal-crcflip");
        let mut wal = Wal::create(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        wal.append(&op(OpKind::Assert, "edge(a, b).", 0, 1))
            .unwrap();
        wal.append(&op(OpKind::Assert, "edge(b, c).", 0, 2))
            .unwrap();
        wal.sync().unwrap();
        let path = segment_path(&dir, 0);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the FIRST frame: the scanner stops there.
        data[SEGMENT_MAGIC.len() + 9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        // With torn allowed the whole remainder is "tail" — both records
        // discarded, which recovery later cross-checks against epochs.
        let scan = scan_segment(&path, true).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert!(scan.torn_bytes > 0);
        assert!(scan_segment(&path, false).is_err());
    }

    #[test]
    fn rotation_seals_segments() {
        let dir = test_dir("wal-rotate");
        // Tiny cap: every append after the first rotates.
        let mut wal = Wal::create(&dir, 0, FsyncPolicy::Never, 16).unwrap();
        for i in 0..4u64 {
            wal.append(&op(OpKind::Assert, &format!("edge(a{i}, b)."), 0, i + 1))
                .unwrap();
        }
        wal.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 4, "{segments:?}");
        let mut all = Vec::new();
        let last = segments.len() - 1;
        for (i, (_, path)) in segments.iter().enumerate() {
            all.extend(scan_segment(path, i == last).unwrap().records);
        }
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].epochs(), (0, 4));
    }

    #[test]
    fn bad_magic_is_corruption() {
        let dir = test_dir("wal-magic");
        let path = segment_path(&dir, 0);
        std::fs::write(&path, b"NOTMAGIK????????").unwrap();
        assert!(scan_segment(&path, true).is_err());
    }

    #[test]
    fn undecodable_payload_is_corruption_even_at_tail() {
        let dir = test_dir("wal-baddec");
        let path = segment_path(&dir, 0);
        let payload = [99u8, 1, 2, 3]; // unknown record tag
        let mut data = SEGMENT_MAGIC.to_vec();
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&crc32(&payload).to_le_bytes());
        data.extend_from_slice(&payload);
        std::fs::write(&path, &data).unwrap();
        let err = scan_segment(&path, true).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }
}
