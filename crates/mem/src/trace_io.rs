//! On-disk trace serialization.
//!
//! Recorded traces can be saved and replayed later (or shared between
//! machines) so that an experiment's exact access stream outlives the
//! process. The format is a small, versioned, fixed-width binary layout —
//! endianness-explicit and independent of any serialization crate.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  b"LDT1"                      4 bytes
//! name_len u32, name bytes            UTF-8
//! count  u64                          number of accesses
//! per access: addr u64, pc u64, insts u32, size u8, kind u8
//! ```

use crate::{Access, AccessKind, Addr, Trace};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"LDT1";

fn kind_code(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::InstrFetch => 2,
    }
}

fn kind_from(code: u8) -> io::Result<AccessKind> {
    match code {
        0 => Ok(AccessKind::Load),
        1 => Ok(AccessKind::Store),
        2 => Ok(AccessKind::InstrFetch),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid access kind code {other}"),
        )),
    }
}

impl Trace {
    /// Serializes the trace to a writer and flushes it, so a buffered
    /// writer's last error is returned here rather than lost when it drops.
    ///
    /// Pass `&mut writer` to keep using the writer afterwards.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer, the flush included.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        let name = self.name().as_bytes();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "trace names are short human-readable identifiers, far below u32::MAX bytes"
        )]
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        for a in self.accesses() {
            w.write_all(&a.addr.raw().to_le_bytes())?;
            w.write_all(&a.pc.raw().to_le_bytes())?;
            w.write_all(&a.insts.to_le_bytes())?;
            w.write_all(&[a.size, kind_code(a.kind)])?;
        }
        w.flush()
    }

    /// Deserializes a trace from a reader.
    ///
    /// Pass `&mut reader` to keep using the reader afterwards.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic number, malformed name or
    /// unknown access kind, and propagates reader I/O errors.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Trace> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an LDT1 trace file",
            ));
        }
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u32buf)?;
        let name_len = u32::from_le_bytes(u32buf) as usize;
        if name_len > 1 << 20 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unreasonable trace name length",
            ));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut u64buf = [0u8; 8];
        r.read_exact(&mut u64buf)?;
        let count = u64::from_le_bytes(u64buf);

        let mut trace = Trace::new(name);
        for _ in 0..count {
            r.read_exact(&mut u64buf)?;
            let addr = u64::from_le_bytes(u64buf);
            r.read_exact(&mut u64buf)?;
            let pc = u64::from_le_bytes(u64buf);
            r.read_exact(&mut u32buf)?;
            let insts = u32::from_le_bytes(u32buf);
            let mut tail = [0u8; 2];
            r.read_exact(&mut tail)?;
            let [size, kind_byte] = tail;
            trace.push(Access {
                addr: Addr::new(addr),
                pc: Addr::new(pc),
                insts,
                size,
                kind: kind_from(kind_byte)?,
            });
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let accesses = vec![
            Access::load(Addr::new(0x1000), 8)
                .with_insts(3)
                .with_pc(Addr::new(0x400000)),
            Access::store(Addr::new(0x2008), 4).with_insts(1),
            Access::ifetch(Addr::new(0x400004)),
        ];
        Trace::from_accesses("sample", accesses)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.name(), "sample");
        assert_eq!(back.accesses(), t.accesses());
        assert_eq!(back.instructions(), t.instructions());
    }

    /// A device with no room left: every write fails.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "no space left"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_returns_the_error_a_buffer_meets_on_flush() {
        // The whole trace fits in the buffer, so only the flush writes.
        let err = sample()
            .write_to(io::BufWriter::new(Full))
            .expect_err("the device is full");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty");
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOPE........"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_is_an_error() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn bad_kind_code_is_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 9; // invalid kind
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
