//! Checksummed checkpoint journal for crash-safe sweeps.
//!
//! The journal is an append-only JSON-lines file. Line 1 is a header
//! naming the matrix (a [`matrix id`](crate::sweep) derived from the run
//! seed and shape); every further line records one completed cell:
//!
//! ```text
//! {"journal": "ldis-sweep", "version": 2, "matrix_id": ..., "cells": ..., "checksum": ...}
//! {"matrix_id": ..., "cell": 3, "seed": ..., "result": {...}, "checksum": ...}
//! ```
//!
//! Every line carries an FNV-1a checksum over its own canonical rendering
//! *minus* the checksum field, so a record is self-validating: a process
//! killed mid-append leaves a truncated or garbled final line that fails
//! either the JSON parse (the canonical parser rejects every strict
//! prefix of a record) or the checksum compare. On resume the journal
//! keeps every valid leading record, truncates the file back to the last
//! valid byte, and re-executes the discarded cells — so `--resume` after
//! a `SIGKILL` converges to the same bytes as an uninterrupted run.
//!
//! Floats round-trip exactly: results store `f64` values as raw bit
//! patterns (`to_bits`), never as decimal floats, so the resumed matrix
//! is bit-identical, not just close.

use crate::report::Json;
use crate::RunResult;
use ldis_cache::{HierarchyStats, L2Stats};
use ldis_mem::fnv1a;
use ldis_mem::stats::Histogram;
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Journal format marker and version (line-1 fields). Version 1 cells ran
/// on label-seeded traces, so they never resume into today's matrix.
const MAGIC: &str = "ldis-sweep";
const VERSION: u64 = 2;

/// Converts a value to and from the canonical [`Json`] tree, exactly:
/// `decode(encode(x)) == x` bit for bit, including float payloads.
pub trait CellCodec: Sized {
    /// Encodes the value.
    fn encode(&self) -> Json;
    /// Decodes a value; the message names the missing or mistyped field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on any shape or type
    /// mismatch.
    fn decode(json: &Json) -> Result<Self, String>;
}

/// Looks up a field of a JSON object.
fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{name}'")),
        _ => Err(format!("expected object while reading '{name}'")),
    }
}

/// A `u64` field.
fn uint_field(json: &Json, name: &str) -> Result<u64, String> {
    match field(json, name)? {
        Json::Uint(v) => Ok(*v),
        other => Err(format!(
            "field '{name}': expected unsigned integer, got {other:?}"
        )),
    }
}

/// A string field.
fn str_field<'a>(json: &'a Json, name: &str) -> Result<&'a str, String> {
    match field(json, name)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("field '{name}': expected string, got {other:?}")),
    }
}

/// An `f64` field stored as its raw bit pattern.
fn float_bits_field(json: &Json, name: &str) -> Result<f64, String> {
    Ok(f64::from_bits(uint_field(json, name)?))
}

/// Encodes a histogram as its per-bin counts (`bins` entries).
fn encode_histogram(h: &Histogram) -> Json {
    Json::arr((0..h.len()).map(|bin| Json::uint(h.count(bin))))
}

/// Decodes a histogram from its per-bin counts.
fn decode_histogram(json: &Json, name: &str) -> Result<Histogram, String> {
    let Json::Arr(bins) = field(json, name)? else {
        return Err(format!("field '{name}': expected array of counts"));
    };
    let mut h = Histogram::new(bins.len());
    for (bin, count) in bins.iter().enumerate() {
        match count {
            Json::Uint(c) => h.set_count(bin, *c),
            other => {
                return Err(format!(
                    "field '{name}' bin {bin}: expected count, got {other:?}"
                ))
            }
        }
    }
    Ok(h)
}

impl CellCodec for RunResult {
    fn encode(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str(self.benchmark.clone())),
            ("config", Json::str(self.config.clone())),
            ("mpki_bits", Json::uint(self.mpki.to_bits())),
            (
                "l2",
                Json::obj([
                    ("accesses", Json::uint(self.l2.accesses)),
                    ("loc_hits", Json::uint(self.l2.loc_hits)),
                    ("woc_hits", Json::uint(self.l2.woc_hits)),
                    ("hole_misses", Json::uint(self.l2.hole_misses)),
                    ("line_misses", Json::uint(self.l2.line_misses)),
                    ("compulsory_misses", Json::uint(self.l2.compulsory_misses)),
                    ("evictions", Json::uint(self.l2.evictions)),
                    ("writebacks", Json::uint(self.l2.writebacks)),
                    ("woc_installs", Json::uint(self.l2.woc_installs)),
                    ("distill_filtered", Json::uint(self.l2.distill_filtered)),
                    (
                        "words_used_at_evict",
                        encode_histogram(&self.l2.words_used_at_evict),
                    ),
                    (
                        "recency_before_change",
                        encode_histogram(&self.l2.recency_before_change),
                    ),
                ]),
            ),
            (
                "hierarchy",
                Json::obj([
                    ("instructions", Json::uint(self.hierarchy.instructions)),
                    ("l1d_accesses", Json::uint(self.hierarchy.l1d_accesses)),
                    ("l1d_hits", Json::uint(self.hierarchy.l1d_hits)),
                    (
                        "l1d_sector_misses",
                        Json::uint(self.hierarchy.l1d_sector_misses),
                    ),
                    ("l1d_misses", Json::uint(self.hierarchy.l1d_misses)),
                    ("l1i_accesses", Json::uint(self.hierarchy.l1i_accesses)),
                    ("l1i_hits", Json::uint(self.hierarchy.l1i_hits)),
                ]),
            ),
        ])
    }

    fn decode(json: &Json) -> Result<Self, String> {
        let l2_json = field(json, "l2")?;
        let hier_json = field(json, "hierarchy")?;
        let l2 = L2Stats {
            accesses: uint_field(l2_json, "accesses")?,
            loc_hits: uint_field(l2_json, "loc_hits")?,
            woc_hits: uint_field(l2_json, "woc_hits")?,
            hole_misses: uint_field(l2_json, "hole_misses")?,
            line_misses: uint_field(l2_json, "line_misses")?,
            compulsory_misses: uint_field(l2_json, "compulsory_misses")?,
            evictions: uint_field(l2_json, "evictions")?,
            writebacks: uint_field(l2_json, "writebacks")?,
            woc_installs: uint_field(l2_json, "woc_installs")?,
            distill_filtered: uint_field(l2_json, "distill_filtered")?,
            words_used_at_evict: decode_histogram(l2_json, "words_used_at_evict")?,
            recency_before_change: decode_histogram(l2_json, "recency_before_change")?,
        };
        let hierarchy = HierarchyStats {
            instructions: uint_field(hier_json, "instructions")?,
            l1d_accesses: uint_field(hier_json, "l1d_accesses")?,
            l1d_hits: uint_field(hier_json, "l1d_hits")?,
            l1d_sector_misses: uint_field(hier_json, "l1d_sector_misses")?,
            l1d_misses: uint_field(hier_json, "l1d_misses")?,
            l1i_accesses: uint_field(hier_json, "l1i_accesses")?,
            l1i_hits: uint_field(hier_json, "l1i_hits")?,
        };
        Ok(RunResult {
            benchmark: str_field(json, "benchmark")?.to_owned(),
            config: str_field(json, "config")?.to_owned(),
            mpki: float_bits_field(json, "mpki_bits")?,
            l2,
            hierarchy,
        })
    }
}

/// Identity of the matrix a journal belongs to. Resume refuses a journal
/// whose header disagrees — a checkpoint of a different seed, access
/// budget or matrix shape must never be spliced into a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Derived id of (seed, accesses, warmup, benchmarks, configs).
    pub matrix_id: u64,
    /// Total cell count of the matrix.
    pub cells: u64,
}

/// Seals `record` with its checksum field: the FNV-1a hash of the
/// record's canonical compact rendering without the checksum.
fn seal(record: Json) -> Result<Json, String> {
    let Json::Obj(mut fields) = record else {
        return Err("journal records must be objects".to_owned());
    };
    let unsealed = Json::Obj(fields.clone());
    fields.push((
        "checksum".to_owned(),
        Json::uint(fnv1a(unsealed.render().as_bytes())),
    ));
    Ok(Json::Obj(fields))
}

/// Verifies and strips a record's checksum field (which must be last,
/// where [`seal`] puts it).
fn unseal(record: Json) -> Result<Json, String> {
    let Json::Obj(mut fields) = record else {
        return Err("journal records must be objects".to_owned());
    };
    let Some(("checksum", &Json::Uint(stored))) = fields.last().map(|(k, v)| (k.as_str(), v))
    else {
        return Err("record has no trailing checksum field".to_owned());
    };
    fields.pop();
    let unsealed = Json::Obj(fields);
    let computed = fnv1a(unsealed.render().as_bytes());
    if computed != stored {
        return Err(format!(
            "checksum mismatch: stored {stored}, computed {computed}"
        ));
    }
    Ok(unsealed)
}

/// What [`Journal::resume`] recovered.
#[derive(Debug)]
pub struct Resumed<T> {
    /// The reopened journal, positioned for appending.
    pub journal: Journal,
    /// Valid completed cells, by cell index.
    pub completed: BTreeMap<usize, T>,
    /// Trailing bytes discarded as corrupt or truncated (0 for a clean
    /// journal).
    pub discarded_bytes: u64,
    /// Why the tail was discarded, when it was.
    pub discard_reason: Option<String>,
}

/// An append-only checkpoint journal (one JSON record per line).
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    header: JournalHeader,
}

impl Journal {
    /// Creates (truncating) a journal for `header` and writes the header
    /// line.
    ///
    /// # Errors
    ///
    /// Returns a message on any IO failure.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, String> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("journal {}: cannot create: {e}", path.display()))?;
        let sealed = seal(Json::obj([
            ("journal", Json::str(MAGIC)),
            ("version", Json::uint(VERSION)),
            ("matrix_id", Json::uint(header.matrix_id)),
            ("cells", Json::uint(header.cells)),
        ]))?;
        write_line(&mut file, &sealed, path)?;
        Ok(Journal {
            file,
            path: path.to_owned(),
            header,
        })
    }

    /// Opens an existing journal, validates the header against `header`,
    /// verifies every record's checksum, truncates any corrupt or
    /// incomplete tail, and returns the completed cells.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read, the header is
    /// unreadable or names a different matrix, or a record decodes to an
    /// out-of-range cell. (A corrupt *tail* is not an error: it is
    /// discarded and reported in [`Resumed::discarded_bytes`].)
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index a journal held in memory and cells are checked against the matrix length, so both fit usize"
    )]
    pub fn resume<T: CellCodec>(path: &Path, header: JournalHeader) -> Result<Resumed<T>, String> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("journal {}: cannot open: {e}", path.display()))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| format!("journal {}: cannot read: {e}", path.display()))?;

        // Header line: any defect here fails the resume outright — with
        // no trustworthy identity, no record can be trusted either.
        let header_line = text.lines().next().unwrap_or("");
        if text.as_bytes().get(header_line.len()) != Some(&b'\n') {
            return Err(format!(
                "journal {}: bad header: header line is not newline-terminated \
                 (interrupted while being created)",
                path.display()
            ));
        }
        let stored = Json::parse(header_line)
            .and_then(unseal)
            .map_err(|e| format!("journal {}: bad header: {e}", path.display()))?;
        if str_field(&stored, "journal")? != MAGIC {
            return Err(format!("journal {}: not a sweep journal", path.display()));
        }
        if uint_field(&stored, "version")? != VERSION {
            return Err(format!("journal {}: unsupported version", path.display()));
        }
        let stored_header = JournalHeader {
            matrix_id: uint_field(&stored, "matrix_id")?,
            cells: uint_field(&stored, "cells")?,
        };
        if stored_header != header {
            return Err(format!(
                "journal {}: matrix mismatch (journal {:#x}/{} cells, run {:#x}/{} cells); \
                 it checkpoints a different seed, budget or matrix shape",
                path.display(),
                stored_header.matrix_id,
                stored_header.cells,
                header.matrix_id,
                header.cells,
            ));
        }

        // Records: keep the longest valid prefix, drop the rest.
        let mut completed = BTreeMap::new();
        let mut valid_bytes = header_line.len() as u64 + 1; // header + newline
        let mut discard_reason = None;
        let mut offset = valid_bytes as usize;
        while offset < text.len() {
            let line = text
                .get(offset..)
                .unwrap_or("")
                .lines()
                .next()
                .unwrap_or("");
            let line_end = offset + line.len();
            let terminated = text.as_bytes().get(line_end) == Some(&b'\n');
            let parsed = if terminated {
                Json::parse(line).and_then(unseal)
            } else {
                // An unterminated final line is an interrupted append even
                // if its content happens to parse.
                Err("record line is not newline-terminated".to_owned())
            };
            let record = match parsed {
                Ok(r) => r,
                Err(e) => {
                    discard_reason = Some(e);
                    break;
                }
            };
            if uint_field(&record, "matrix_id")? != header.matrix_id {
                discard_reason = Some("record names a different matrix".to_owned());
                break;
            }
            let cell = uint_field(&record, "cell")?;
            if cell >= header.cells {
                return Err(format!(
                    "journal {}: cell {cell} out of range for a {}-cell matrix",
                    path.display(),
                    header.cells
                ));
            }
            let value = T::decode(field(&record, "result")?)
                .map_err(|e| format!("journal {}: cell {cell}: {e}", path.display()))?;
            // Every record carries its cell's seed; one without is malformed.
            uint_field(&record, "seed")?;
            completed.insert(cell as usize, value);
            offset = line_end + 1;
            valid_bytes = offset as u64;
        }
        let discarded_bytes = text.len() as u64 - valid_bytes;
        if discarded_bytes > 0 {
            file.set_len(valid_bytes)
                .map_err(|e| format!("journal {}: cannot truncate tail: {e}", path.display()))?;
        }
        file.seek(std::io::SeekFrom::Start(valid_bytes))
            .map_err(|e| format!("journal {}: cannot seek: {e}", path.display()))?;
        Ok(Resumed {
            journal: Journal {
                file,
                path: path.to_owned(),
                header,
            },
            completed,
            discarded_bytes,
            discard_reason,
        })
    }

    /// Appends one completed cell and flushes, so a `SIGKILL` directly
    /// after the call cannot lose the record.
    ///
    /// # Errors
    ///
    /// Returns a message on any IO failure.
    pub fn append<T: CellCodec>(
        &mut self,
        cell: usize,
        seed: u64,
        result: &T,
    ) -> Result<(), String> {
        let sealed = seal(Json::obj([
            ("matrix_id", Json::uint(self.header.matrix_id)),
            ("cell", Json::uint(cell as u64)),
            ("seed", Json::uint(seed)),
            ("result", result.encode()),
        ]))?;
        write_line(&mut self.file, &sealed, &self.path)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes one compact record line and flushes.
fn write_line(file: &mut std::fs::File, record: &Json, path: &Path) -> Result<(), String> {
    let mut line = record.render();
    line.push('\n');
    file.write_all(line.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("journal {}: write failed: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_baseline, RunConfig};
    use ldis_workloads::spec2000;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ldis-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{name}.jsonl", std::process::id()))
    }

    fn sample_result() -> RunResult {
        let b = spec2000::by_name("art").expect("art exists");
        run_baseline(&b, &RunConfig::quick().with_accesses(20_000), 1 << 20)
    }

    const HDR: JournalHeader = JournalHeader {
        matrix_id: 0xfeed_beef_dead_cafe,
        cells: 81,
    };

    #[test]
    fn run_result_codec_round_trips_bit_for_bit() {
        let r = sample_result();
        let decoded = RunResult::decode(&r.encode()).expect("decode");
        assert_eq!(decoded, r);
        assert_eq!(decoded.mpki.to_bits(), r.mpki.to_bits());
        // And through the actual textual form, as the journal stores it.
        let reparsed = Json::parse(&r.encode().render()).expect("parse");
        assert_eq!(RunResult::decode(&reparsed).expect("decode"), r);
    }

    #[test]
    fn codec_names_missing_and_mistyped_fields() {
        let r = sample_result();
        let Json::Obj(fields) = r.encode() else {
            panic!("encode must produce an object")
        };
        let without_l2: Vec<_> = fields.iter().filter(|(k, _)| k != "l2").cloned().collect();
        let err = RunResult::decode(&Json::Obj(without_l2)).expect_err("must fail");
        assert!(err.contains("'l2'"), "{err}");
        let err = RunResult::decode(&Json::str("nope")).expect_err("must fail");
        assert!(err.contains("expected object"), "{err}");
    }

    #[test]
    fn create_append_resume_round_trips() {
        let path = tmp("roundtrip");
        let r = sample_result();
        {
            let mut j = Journal::create(&path, HDR).expect("create");
            j.append(7usize, 1234, &r).expect("append");
            j.append(3usize, 5678, &r).expect("append");
        }
        let resumed = Journal::resume::<RunResult>(&path, HDR).expect("resume");
        assert_eq!(resumed.discarded_bytes, 0);
        assert_eq!(resumed.discard_reason, None);
        assert_eq!(resumed.completed.len(), 2);
        assert_eq!(resumed.completed.get(&7), Some(&r));
        assert!(resumed.completed.contains_key(&3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_foreign_matrices() {
        let path = tmp("foreign");
        Journal::create(&path, HDR).expect("create");
        let other = JournalHeader {
            matrix_id: 1,
            cells: 81,
        };
        let err = Journal::resume::<RunResult>(&path, other).expect_err("must refuse");
        assert!(err.contains("matrix mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_version_1_journal() {
        let path = tmp("version-1");
        let header = seal(Json::obj([
            ("journal", Json::str(MAGIC)),
            ("version", Json::uint(1)),
            ("matrix_id", Json::uint(HDR.matrix_id)),
            ("cells", Json::uint(HDR.cells)),
        ]))
        .expect("seal");
        std::fs::write(&path, format!("{}\n", header.render())).expect("write");
        let err = Journal::resume::<RunResult>(&path, HDR).expect_err("must refuse");
        assert!(err.contains("unsupported version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_checksum_byte_discards_the_tail() {
        let path = tmp("corrupt");
        let r = sample_result();
        {
            let mut j = Journal::create(&path, HDR).expect("create");
            j.append(0usize, 1, &r).expect("append");
            j.append(1usize, 2, &r).expect("append");
        }
        let clean = std::fs::read_to_string(&path).expect("read");
        // Flip one digit inside the *second* record's checksum field.
        let second_start = clean
            .match_indices('\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .expect("three lines");
        let tail = &clean[second_start..];
        let at = second_start
            + tail.rfind("\"checksum\": ").expect("checksum field")
            + "\"checksum\": ".len();
        let mut bytes = clean.clone().into_bytes();
        bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
        std::fs::write(&path, &bytes).expect("write corrupted");

        let resumed = Journal::resume::<RunResult>(&path, HDR).expect("resume");
        assert_eq!(
            resumed.completed.len(),
            1,
            "only the intact record survives"
        );
        assert!(resumed.completed.contains_key(&0));
        let reason = resumed.discard_reason.expect("tail was discarded");
        // Depending on the flipped digit the record either fails the
        // checksum compare or stops being a well-formed checksummed
        // record at all; both are detection.
        assert!(reason.contains("checksum"), "{reason}");
        assert!(resumed.discarded_bytes > 0);
        // The corrupt tail is gone from disk: appending now yields a
        // journal whose records are all valid again.
        let on_disk = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(on_disk.lines().count(), 2, "header + first record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_detected_at_every_cut_point() {
        let path = tmp("truncated");
        let r = sample_result();
        {
            let mut j = Journal::create(&path, HDR).expect("create");
            j.append(0usize, 1, &r).expect("append");
            j.append(1usize, 2, &r).expect("append");
        }
        let clean = std::fs::read(&path).expect("read");
        let second_start = clean
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .expect("three lines");
        // Cut the file anywhere inside the second record (including just
        // missing the final newline): record 1 must survive, the stump
        // must be discarded and truncated away.
        for cut in [second_start + 1, second_start + 50, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).expect("write cut");
            let resumed = Journal::resume::<RunResult>(&path, HDR).expect("resume");
            assert_eq!(resumed.completed.len(), 1, "cut at {cut}");
            assert!(resumed.discard_reason.is_some(), "cut at {cut}");
            let len = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(len, second_start as u64, "cut at {cut}: stump truncated");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_then_append_produces_a_clean_journal() {
        let path = tmp("resume-append");
        let r = sample_result();
        {
            let mut j = Journal::create(&path, HDR).expect("create");
            j.append(0usize, 1, &r).expect("append");
        }
        // Interrupted append: half a record.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"matrix_id\": 1834");
        std::fs::write(&path, &bytes).expect("write stump");
        {
            let mut resumed = Journal::resume::<RunResult>(&path, HDR).expect("resume");
            assert_eq!(resumed.completed.len(), 1);
            resumed
                .journal
                .append(1usize, 2, &r)
                .expect("append after resume");
        }
        let resumed = Journal::resume::<RunResult>(&path, HDR).expect("second resume");
        assert_eq!(resumed.discarded_bytes, 0);
        assert_eq!(resumed.completed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_fails_the_resume() {
        let path = tmp("bad-header");
        Journal::create(&path, HDR).expect("create");
        let clean = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, clean.replacen(MAGIC, "ldis-sweeq", 1)).expect("write");
        let err = Journal::resume::<RunResult>(&path, HDR).expect_err("must fail");
        assert!(
            err.contains("bad header") || err.contains("checksum"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
