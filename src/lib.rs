//! # line-distillation
//!
//! A full reproduction of *"Line Distillation: Increasing Cache Capacity by
//! Filtering Unused Words in Cache Lines"* (Qureshi, Suleman & Patt,
//! HPCA 2007) as a Rust workspace.
//!
//! This facade crate re-exports every member crate under one roof so
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`mem`] — addresses, geometry, accesses, footprints, RNG, statistics;
//! * [`cache`] — set-associative substrate, sectored L1D, baseline L2,
//!   hierarchy driver;
//! * [`distill`] — the paper's contribution: the distill cache (LOC + WOC),
//!   median-threshold filtering, the reverter circuit, the storage model;
//! * [`compress`] — the Table-4 encoder, compressed cache (CMPR) and
//!   footprint-aware compression (FAC);
//! * [`sfp`] — the spatial-footprint-predictor comparator of Figure 13;
//! * [`mrc`] — the single-pass Mattson miss-ratio-curve profiler used by
//!   the capacity sweeps and the differential-oracle tests;
//! * [`workloads`] — the 16 + 11 synthetic benchmark models;
//! * [`timing`] — the IPC model (Figure 9);
//! * [`experiments`] — one entry point per table/figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use line_distillation::distill::{DistillCache, DistillConfig};
//! use line_distillation::cache::{Hierarchy, SecondLevel};
//! use line_distillation::workloads::{spec2000, TraceLength};
//!
//! let mut workload = spec2000::health(1);
//! let l2 = DistillCache::new(DistillConfig::hpca2007_default());
//! let mut hier = Hierarchy::hpca2007(l2);
//! workload.drive(&mut hier, TraceLength::accesses(300_000));
//! // Distilled words of evicted lines are served from the WOC.
//! assert!(hier.l2().stats().woc_hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ldis_cache as cache;
pub use ldis_compress as compress;
pub use ldis_distill as distill;
pub use ldis_experiments as experiments;
pub use ldis_mem as mem;
pub use ldis_mrc as mrc;
pub use ldis_sfp as sfp;
pub use ldis_timing as timing;
pub use ldis_workloads as workloads;

#[cfg(test)]
mod lexer;

#[cfg(test)]
mod tests {
    //! Unit safety at the source level. The simulator crates pass
    //! addresses as `Addr`, `LineAddr`, `WordIndex` and `SetIndex`, so the
    //! compiler rejects a byte address where a set index belongs; these
    //! tests keep a raw integer from taking one of those names again.

    use crate::lexer::{in_regions, lex, test_regions, TokKind};
    use std::fs;
    use std::path::{Path, PathBuf};

    /// The simulator crates, by directory under `crates/`: every member
    /// but the `experiments` harness (DESIGN.md §3).
    const SIM_CRATES: [&str; 8] = [
        "cache",
        "compress",
        "core",
        "mem",
        "mrc",
        "sfp",
        "timing",
        "workloads",
    ];

    /// Names that denote a byte address, line address, word index or set
    /// index.
    const UNIT_NAMES: [&str; 7] = [
        "addr",
        "line",
        "line_addr",
        "word",
        "word_idx",
        "set",
        "set_idx",
    ];

    const RAW_INTEGERS: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];

    /// `line: name: type` for every binding in `src` outside `let`
    /// statements and `#[cfg(test)]` items (parameters and fields) that
    /// gives a unit name a raw integer type.
    fn raw_unit_bindings(src: &str) -> Vec<String> {
        let toks = lex(src).tokens;
        let tests = test_regions(&toks);
        let mut found = Vec::new();
        for (i, window) in toks.windows(4).enumerate() {
            let [name, colon, ty, after] = window else {
                continue;
            };
            let is_let = || {
                toks[..i]
                    .iter()
                    .rev()
                    .find(|t| !t.is_ident("mut"))
                    .is_some_and(|t| t.is_ident("let"))
            };
            if name.kind == TokKind::Ident
                && UNIT_NAMES.contains(&name.text.as_str())
                && colon.is_punct(':')
                && RAW_INTEGERS.contains(&ty.text.as_str())
                && !after.is_punct(':')
                && !in_regions(&tests, name.line)
                && !is_let()
            {
                found.push(format!("{}: {}: {}", name.line, name.text, ty.text));
            }
        }
        found
    }

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("source directory is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn sim_crates_take_and_store_units_as_types() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut found = Vec::new();
        for krate in SIM_CRATES {
            let mut files = Vec::new();
            rust_files(&root.join("crates").join(krate).join("src"), &mut files);
            for path in files {
                let src = fs::read_to_string(&path).expect("source is readable");
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                found.extend(
                    raw_unit_bindings(&src)
                        .into_iter()
                        .map(|b| format!("{rel}:{b}")),
                );
            }
        }
        assert!(
            found.is_empty(),
            "raw integers named as address units; use Addr, LineAddr, WordIndex or SetIndex:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn raw_unit_bindings_skip_lets_tests_comments_and_strings() {
        let src = "pub fn find(&self, set: usize, tag: u64) {}\n\
                   pub struct Hit { pub word: u8, line_addr: u64 }\n\
                   fn f() { let set: usize = 0; let mut addr: u64 = 1; }\n\
                   // fn g(set: usize)\n\
                   const S: &str = \"fn g(set: usize)\";\n\
                   fn h(set: SetIndex, offset: usize) -> Hit { Hit { word: u8::MAX } }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(set: usize) {} }\n";
        assert_eq!(
            raw_unit_bindings(src),
            ["1: set: usize", "2: word: u8", "2: line_addr: u64"]
        );
    }

    #[test]
    fn scope_map_matches_the_design() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut members: Vec<String> = fs::read_dir(root.join("crates"))
            .expect("crates directory is readable")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name != "experiments")
            .collect();
        members.sort();
        assert_eq!(
            members, SIM_CRATES,
            "a new simulator crate joins SIM_CRATES"
        );
    }
}
