//! The storage tier's one binary codec: CRC-framed append logs (the WAL and
//! the event log), CRC-tailed whole files (sealed segments and base files), and
//! the little-endian [`Enc`]/[`Dec`] cursors every payload is encoded with.
//!
//! Every frame on disk is `[len: u32 LE][crc32: u32 LE][payload: len bytes]`.
//! The CRC covers the payload only. Readers stop at the first frame that is
//! short or fails its checksum — everything before that point is intact (frames
//! are appended and fsynced in order), everything after is a torn tail from a
//! crash mid-write and is discarded by truncating the file back to the last
//! good frame. The reader slices a buffer it has already read whole, so a
//! garbage length field costs no allocation.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built once at first use.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32 (IEEE) of `bytes` — the checksum in every frame header and at the
/// tail of every checked file.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Atomically replace the file at `path` with `bytes` (write `<path>.tmp`, fsync,
/// rename): a crash leaves the old file or the new one, never a torn one. The
/// manifest, sealed segments and base files are all written this way.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Atomically replace the file at `path` with `body` followed by its CRC-32
/// (see [`write_atomic`]). Sealed segments and base files are written this way.
pub fn write_checked(path: &Path, mut body: Vec<u8>) -> io::Result<()> {
    let checksum = crc32(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &body)
}

/// Read a file written by [`write_checked`] and return its body, or
/// `InvalidData` when it is too short for its CRC tail or fails it.
pub fn read_checked(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    let corrupt = |what: &str| {
        let msg = format!("{}: {what}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, msg)
    };
    let Some(split) = bytes.len().checked_sub(4) else {
        return Err(corrupt("too short for its checksum"));
    };
    let mut tail = Dec::new(&bytes[split..]);
    if tail.u32()? != crc32(&bytes[..split]) {
        return Err(corrupt("checksum mismatch"));
    }
    bytes.truncate(split);
    Ok(bytes)
}

/// An append-only log of CRC-framed payloads backed by one file.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
    /// Bytes of fully written frames (append position).
    len: u64,
    /// Set when frames were appended since the last [`FrameLog::sync`].
    dirty: bool,
}

impl FrameLog {
    /// Open (or create) the log at `path`, replay every intact frame into
    /// `on_frame`, and truncate away any torn tail so the next append starts at
    /// a clean boundary. Frames are delivered in append order.
    pub fn open(path: &Path, mut on_frame: impl FnMut(&[u8])) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let good = scan_frames(&bytes, |payload| on_frame(payload));
        if good < bytes.len() as u64 {
            // Torn tail from a crash mid-append: drop it.
            file.set_len(good)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good))?;
        Ok(FrameLog {
            file,
            len: good,
            dirty: false,
        })
    }

    /// Append one frame. Durability is deferred to [`FrameLog::sync`] — appends
    /// are batched per ingest call, not fsynced one by one. A payload whose
    /// length does not fit the header's `u32` is refused with `InvalidInput`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            let msg = format!("frame payload of {} bytes exceeds u32", payload.len());
            io::Error::new(io::ErrorKind::InvalidInput, msg)
        })?;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Flush appended frames to stable storage (one fsync per batch).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Drop every frame: the log restarts empty (used when an epoch checkpoint
    /// rewrites the WAL/event history into baseline segments).
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.len = 0;
        self.dirty = false;
        Ok(())
    }

    /// Bytes of intact frames currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }
}

/// Walk `bytes` frame by frame, calling `on_frame` for each intact payload.
/// Returns the byte offset of the first torn/corrupt frame (== `bytes.len()`
/// when the whole file is clean).
fn scan_frames(bytes: &[u8], mut on_frame: impl FnMut(&[u8])) -> u64 {
    let mut pos = 0usize;
    loop {
        let Some(header) = bytes.get(pos..pos + 8) else {
            return pos as u64;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..).and_then(|rest| rest.get(..len)) else {
            return pos as u64;
        };
        if crc32(payload) != crc {
            return pos as u64;
        }
        on_frame(payload);
        pos += 8 + len;
    }
}

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers (the storage tier's binary idiom)
// ---------------------------------------------------------------------------

/// Append-side cursor over a payload being encoded.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (little-endian bit pattern — exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Read-side cursor over a decoded payload. Every accessor returns
/// `io::Result` so truncated payloads surface as corruption errors instead of
/// panics.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated payload"))?;
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8 in payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_torn_tail_is_dropped() {
        let dir = std::env::temp_dir().join(format!("bb-framing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        {
            let mut log = FrameLog::open(&path, |_| panic!("fresh log has no frames")).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta").unwrap();
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: a partial header at the tail.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&[9, 0, 0]).unwrap();
        }
        let mut seen = Vec::new();
        let log = FrameLog::open(&path, |p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // The torn tail was truncated away.
        assert_eq!(log.len_bytes(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let dir = std::env::temp_dir().join(format!("bb-framing-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        {
            let mut log = FrameLog::open(&path, |_| {}).unwrap();
            log.append(b"good").unwrap();
            log.append(b"casualty").unwrap();
            log.sync().unwrap();
        }
        // Flip a payload byte in the second frame.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
        let mut seen = Vec::new();
        FrameLog::open(&path, |p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![b"good".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_over_64_mib_round_trips_with_its_neighbours() {
        let dir = std::env::temp_dir().join(format!("bb-framing-big-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let big = vec![0xA5u8; 64 * 1024 * 1024 + 1];
        {
            let mut log = FrameLog::open(&path, |_| {}).unwrap();
            log.append(b"before").unwrap();
            log.append(&big).unwrap();
            log.append(b"after").unwrap();
            log.sync().unwrap();
        }
        let mut seen = Vec::new();
        let log = FrameLog::open(&path, |p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen.len(), 3, "every frame survives the reopen");
        assert_eq!(seen[0], b"before");
        assert!(seen[1] == big, "the large frame comes back whole");
        assert_eq!(seen[2], b"after");
        assert_eq!(log.len_bytes(), 3 * 8 + 6 + big.len() as u64 + 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enc_dec_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(u32::MAX - 1);
        enc.u64(1 << 40);
        enc.f64(2.0 / 3.0);
        enc.bytes(b"payload");
        let buf = enc.finish();
        let mut dec = Dec::new(&buf);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), u32::MAX - 1);
        assert_eq!(dec.u64().unwrap(), 1 << 40);
        assert_eq!(dec.f64().unwrap(), 2.0 / 3.0);
        assert_eq!(dec.bytes().unwrap(), b"payload");
        assert!(dec.u8().is_err(), "reading past the end must error");
    }
}
