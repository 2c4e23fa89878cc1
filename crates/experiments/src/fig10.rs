//! Figure 10: compressibility of cache lines — all words vs. used words
//! only.

use crate::report::{fmt_f, Json, Table};
use crate::runner::drive;
use crate::{baseline_config, for_each_benchmark, RunConfig};
use ldis_cache::{BaselineL2, SecondLevel};
use ldis_compress::SizeCategory;
use ldis_workloads::memory_intensive;

/// Compressibility class fractions for one benchmark: `[1/8, 1/4, 1/2,
/// full]`, once over all words and once over used words only.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Resident data lines classified.
    pub lines: u64,
    /// Class fractions compressing every word of each resident line.
    pub all_words: [f64; 4],
    /// Class fractions compressing only each line's used words (sizes
    /// still relative to the full 64 B line).
    pub used_words: [f64; 4],
}

impl Fig10Row {
    /// Fraction of lines compressible (anything better than full size).
    pub fn compressible_all(&self) -> f64 {
        let [.., full] = self.all_words;
        1.0 - full
    }

    /// Fraction compressible when only used words are stored.
    pub fn compressible_used(&self) -> f64 {
        let [.., full] = self.used_words;
        1.0 - full
    }
}

/// Runs the baseline per benchmark and classifies the resident lines at
/// the end of the run (the paper samples periodically; a settled snapshot
/// measures the same steady-state distribution).
pub fn data(cfg: &RunConfig) -> Vec<Fig10Row> {
    data_for(&memory_intensive(), cfg)
}

/// The Figure 10 analysis over an explicit benchmark subset.
pub fn data_for(benches: &[ldis_workloads::Benchmark], cfg: &RunConfig) -> Vec<Fig10Row> {
    for_each_benchmark(benches, |b| {
        let hier = drive(b, cfg, BaselineL2::new(baseline_config(1 << 20)));
        let model = cfg.value_model(b);
        let mut all = [0u64; 4];
        let mut used = [0u64; 4];
        let mut lines = 0u64;
        for (line, entry) in hier.l2().cache().iter_lines() {
            if entry.is_instr || entry.footprint.is_empty() {
                continue;
            }
            lines += 1;
            if let Some(slot) = all.get_mut(model.category(line, None).index()) {
                *slot += 1;
            }
            // Used-words size, still relative to the full line.
            let bytes = model.compressed_bytes(line, Some(entry.footprint));
            let cat = SizeCategory::of(bytes, hier.l2().geometry().line_bytes());
            if let Some(slot) = used.get_mut(cat.index()) {
                *slot += 1;
            }
        }
        let frac = |c: [u64; 4]| {
            let mut f = [0.0; 4];
            if lines > 0 {
                for (slot, count) in f.iter_mut().zip(c) {
                    *slot = count as f64 / lines as f64;
                }
            }
            f
        };
        Fig10Row {
            benchmark: b.name.to_owned(),
            lines,
            all_words: frac(all),
            used_words: frac(used),
        }
    })
}

/// The golden snapshot (compared against `tests/golden/fig10.json`). The
/// class fractions are kept at full precision, so with the line count
/// they pin every class count, and through them the compressed size of
/// every resident line.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg)
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::str(&r.benchmark)),
                ("lines", Json::uint(r.lines)),
                ("all_words", Json::arr(r.all_words.map(Json::num))),
                ("used_words", Json::arr(r.used_words.map(Json::num))),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("experiment", Json::str("fig10")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Renders the Figure 10 report.
pub fn report(rows: &[Fig10Row]) -> String {
    let mut t = Table::new(
        "Figure 10: compressibility classes (fractions) — (a) all words (b) used words only",
        &[
            "bench", "a:1/8", "a:1/4", "a:1/2", "a:full", "b:1/8", "b:1/4", "b:1/2", "b:full",
        ],
    );
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        for v in r.all_words.iter().chain(r.used_words.iter()) {
            cells.push(fmt_f(*v, 2));
        }
        t.row(cells);
    }
    t.note("paper: with all words most benchmarks are <50% compressible; with used words only, a majority of lines compress");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    fn row_for(name: &str) -> Fig10Row {
        let b = spec2000::by_name(name).unwrap();
        let cfg = RunConfig::quick();
        data_for(&[b], &cfg).remove(0)
    }

    #[test]
    fn used_words_compress_better_than_all_words() {
        let r = row_for("mcf");
        assert!(
            r.compressible_used() >= r.compressible_all(),
            "used {} < all {}",
            r.compressible_used(),
            r.compressible_all()
        );
        // mcf's sparse, pointer-heavy lines should land mostly in 1/4-1/8.
        assert!(
            r.used_words[0] + r.used_words[1] > 0.5,
            "mcf used-word classes: {:?}",
            r.used_words
        );
    }

    #[test]
    fn float_heavy_benchmarks_resist_whole_line_compression() {
        let r = row_for("swim");
        assert!(
            r.compressible_all() < 0.5,
            "swim should be mostly incompressible over all words, got {}",
            r.compressible_all()
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = row_for("twolf");
        let sa: f64 = r.all_words.iter().sum();
        let su: f64 = r.used_words.iter().sum();
        assert!((sa - 1.0).abs() < 1e-9 && (su - 1.0).abs() < 1e-9);
        assert!(report(&[r]).contains("b:1/8"));
    }
}
