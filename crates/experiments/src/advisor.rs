//! Online per-tenant cache advisor over rolling sampled MRCs.
//!
//! The reverter (Section 6 of the paper) answers one binary question with
//! set dueling: *should this cache distill at all?* The advisor
//! generalizes it along two axes using the constant-memory SHARDS
//! profiler (`ldis-mrc`):
//!
//! * **capacity** — a rolling windowed sampled MRC per tenant answers
//!   "what is the smallest candidate size holding tenant X's miss ratio
//!   under the target?";
//! * **LOC:WOC split** — the sampled mean words-used per data line
//!   generalizes the reverter's decision: tenants touching at most half
//!   a line distill (half the ways' capacity re-provisioned as a WOC),
//!   dense tenants keep a traditional layout.
//!
//! Unlike the sweep runners, the advisor ingests the **raw, L1-unfiltered
//! reference stream** — the fleet-profiler deployment model, where no L1
//! simulation runs in front of the profiler. Its miss ratios therefore
//! describe the raw stream and are *not* comparable to L2-side MPKI.
//!
//! Each tenant keeps one live [`ShardsProfiler`] plus the last completed
//! window; memory stays `O(tenants × S_max)` regardless of stream
//! length. Recommendations prefer the last *completed* window (a full
//! measurement) and fall back to the live window before the first
//! rotation.
//!
//! The `advisor` experiment drives a deterministic four-tenant
//! [`TenantMix`] through the advisor and snapshots the recommendations
//! (`tests/golden/advisor.json`).

use crate::golden;
use crate::report::{fmt_f, Json, Table};
use crate::{mrc, RunConfig};
use ldis_mem::{stable_id, Access, AccessKind, LineGeometry, SimRng};
use ldis_mrc::{SampledMrc, ShardsConfig, ShardsProfiler};
use ldis_workloads::TenantMix;
use std::collections::BTreeMap;

/// Knobs of an [`Advisor`].
#[derive(Clone, Debug)]
pub struct AdvisorConfig {
    /// References per tenant between window rotations.
    pub window_accesses: u64,
    /// SHARDS configuration of every per-tenant profiler.
    pub shards: ShardsConfig,
    /// Candidate cache sizes (bytes) a tenant can be assigned. Must be
    /// bucket-aligned for the shards histogram (multiples of
    /// `bucket_lines × line_bytes`).
    pub candidate_sizes: Vec<u64>,
    /// A tenant gets the smallest candidate size whose estimated miss
    /// ratio is at or below this target (the largest candidate if none
    /// qualifies).
    pub target_miss_ratio: f64,
    /// Line/word geometry of the ingested addresses.
    pub geometry: LineGeometry,
}

impl AdvisorConfig {
    /// The default advisor: 10% sampling, rotation every
    /// `window_accesses` references, the MRC experiment's six candidate
    /// sizes and a 15% miss-ratio target.
    pub fn with_window(window_accesses: u64) -> Self {
        AdvisorConfig {
            window_accesses: window_accesses.max(1),
            shards: ShardsConfig::at_rate(0.1),
            candidate_sizes: mrc::MRC_SIZES.to_vec(),
            target_miss_ratio: 0.15,
            geometry: LineGeometry::default(),
        }
    }
}

/// A finished profiling window.
#[derive(Clone, Debug)]
struct FinishedWindow {
    mrc: SampledMrc,
    mean_words_used: f64,
    sample_len: usize,
    final_rate: f64,
    refs: u64,
}

/// Per-tenant advisor state: the live profiler plus the last completed
/// window.
#[derive(Debug)]
struct TenantState {
    profiler: ShardsProfiler,
    window_refs: u64,
    total_refs: u64,
    windows_completed: u64,
    last: Option<FinishedWindow>,
}

impl TenantState {
    fn new(shards: ShardsConfig) -> Self {
        TenantState {
            profiler: ShardsProfiler::new(shards),
            window_refs: 0,
            total_refs: 0,
            windows_completed: 0,
            last: None,
        }
    }

    fn window(&self) -> FinishedWindow {
        match &self.last {
            Some(w) => w.clone(),
            None => FinishedWindow {
                mrc: self.profiler.mrc(),
                mean_words_used: self.profiler.mean_words_used(),
                sample_len: self.profiler.sample_len(),
                final_rate: self.profiler.current_rate(),
                refs: self.window_refs,
            },
        }
    }
}

/// What the advisor tells the resource manager about one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// Tenant name.
    pub tenant: String,
    /// Completed windows so far (0 = based on the live partial window).
    pub windows_completed: u64,
    /// References in the window the recommendation is based on.
    pub window_refs: u64,
    /// Recommended capacity in bytes.
    pub size_bytes: u64,
    /// Estimated miss ratio at the recommended capacity.
    pub miss_ratio: f64,
    /// Estimated miss ratio at every candidate size, in candidate order.
    pub miss_ratios: Vec<(u64, f64)>,
    /// Sampled mean words used per data line.
    pub mean_words_used: f64,
    /// Whether the tenant should distill (LOC:WOC split) or stay
    /// traditional.
    pub distill: bool,
    /// Line-organized ways of the recommended 8-way-budget split.
    pub loc_ways: u32,
    /// Ways' worth of capacity re-provisioned as word-organized storage.
    pub woc_ways: u32,
    /// The profiler's realized sampling rate for the window.
    pub final_rate: f64,
    /// Tracked lines when the window closed.
    pub sample_len: usize,
}

/// The rolling multi-tenant advisor. See the module docs.
#[derive(Debug)]
pub struct Advisor {
    config: AdvisorConfig,
    tenants: BTreeMap<String, TenantState>,
}

impl Advisor {
    /// Creates an advisor with no tenants; tenants appear on first
    /// ingest.
    pub fn new(config: AdvisorConfig) -> Self {
        Advisor {
            config,
            tenants: BTreeMap::new(),
        }
    }

    /// The advisor's configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// Feeds one raw reference of `tenant` into its rolling profiler,
    /// rotating the tenant's window when it fills.
    pub fn ingest(&mut self, tenant: &str, access: &Access) {
        let geometry = self.config.geometry;
        let shards = self.config.shards;
        let window = self.config.window_accesses;
        let state = self
            .tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantState::new(shards));
        let is_instr = matches!(access.kind, AccessKind::InstrFetch);
        let word = if is_instr {
            None
        } else {
            Some(geometry.word_index(access.addr))
        };
        state
            .profiler
            .record(geometry.line_addr(access.addr), word, is_instr);
        state.window_refs += 1;
        state.total_refs += 1;
        if state.window_refs >= window {
            state.last = Some(FinishedWindow {
                mrc: state.profiler.mrc(),
                mean_words_used: state.profiler.mean_words_used(),
                sample_len: state.profiler.sample_len(),
                final_rate: state.profiler.current_rate(),
                refs: state.window_refs,
            });
            state.profiler = ShardsProfiler::new(shards);
            state.window_refs = 0;
            state.windows_completed += 1;
        }
    }

    /// Total references ingested for `tenant` (0 if unseen).
    pub fn refs_of(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |s| s.total_refs)
    }

    /// Answers "what size / LOC:WOC split for tenant X": the smallest
    /// candidate size whose estimated miss ratio meets the target (else
    /// the largest candidate), plus the distill decision from the
    /// sampled words-used mean. `None` for an unseen tenant.
    pub fn recommendation(&self, tenant: &str) -> Option<Recommendation> {
        let state = self.tenants.get(tenant)?;
        let window = state.window();
        let line_bytes = self.config.geometry.line_bytes() as u64;
        let miss_ratios: Vec<(u64, f64)> = self
            .config
            .candidate_sizes
            .iter()
            .map(|&size| (size, window.mrc.miss_ratio(size / line_bytes)))
            .collect();
        let chosen = miss_ratios
            .iter()
            .find(|(_, m)| *m <= self.config.target_miss_ratio)
            .or_else(|| miss_ratios.last())
            .copied()?;
        // The reverter's rule, generalized: lines using at most half
        // their words distill; the paper's distill cache re-provisions
        // half an 8-way budget as word-organized storage.
        let words_per_line = f64::from(self.config.geometry.words_per_line());
        let distill = window.mean_words_used <= words_per_line / 2.0;
        let (loc_ways, woc_ways) = if distill { (4, 4) } else { (8, 0) };
        Some(Recommendation {
            tenant: tenant.to_owned(),
            windows_completed: state.windows_completed,
            window_refs: window.refs,
            size_bytes: chosen.0,
            miss_ratio: chosen.1,
            miss_ratios,
            mean_words_used: window.mean_words_used,
            distill,
            loc_ways,
            woc_ways,
            final_rate: window.final_rate,
            sample_len: window.sample_len,
        })
    }

    /// Recommendations for every known tenant, in name order.
    pub fn recommendations(&self) -> Vec<Recommendation> {
        self.tenants
            .keys()
            .filter_map(|t| self.recommendation(t))
            .collect()
    }
}

/// The advisor experiment's tenant mix: four tenants with distinct
/// footprints and densities — `art` (large sparse scans, weight 4),
/// `mcf` (pointer chasing, weight 2), `facerec` (dense words, weight 1)
/// and `twolf` (moderate set, weight 1) — interleaved deterministically
/// from the run seed.
pub fn experiment_mix(cfg: &RunConfig) -> TenantMix {
    let benches = mrc::all_benchmarks();
    let seed = SimRng::derive_seed(cfg.seed, stable_id("advisor"), stable_id("mix"));
    let mut builder = TenantMix::builder(seed);
    for (name, weight) in [("art", 4.0), ("mcf", 2.0), ("facerec", 1.0), ("twolf", 1.0)] {
        if let Some(b) = benches.iter().find(|b| b.name == name) {
            builder = builder.benchmark(weight, b);
        }
    }
    builder.build()
}

/// The outcome of the `advisor` experiment.
#[derive(Clone, Debug)]
pub struct AdvisorRun {
    /// The advisor configuration the run used.
    pub window_accesses: u64,
    /// Configured sampling rate.
    pub rate: f64,
    /// Miss-ratio target.
    pub target_miss_ratio: f64,
    /// Candidate sizes in bytes.
    pub candidate_sizes: Vec<u64>,
    /// Total references ingested across tenants.
    pub total_refs: u64,
    /// One recommendation per tenant, in name order.
    pub recommendations: Vec<Recommendation>,
}

/// Runs the advisor experiment: drives the four-tenant mix for
/// `cfg.accesses` tagged references through a rolling advisor (window =
/// a quarter of the budget, so heavy tenants complete windows and light
/// tenants exercise the live-window path), then collects every tenant's
/// recommendation.
pub fn data(cfg: &RunConfig) -> AdvisorRun {
    let mut mix = experiment_mix(cfg);
    let advisor_cfg = AdvisorConfig::with_window((cfg.accesses / 4).max(1));
    let mut advisor = Advisor::new(advisor_cfg);
    for _ in 0..cfg.accesses {
        let tagged = mix.next_tenant_access();
        let name = mix.tenant_name(tagged.tenant).unwrap_or("?").to_owned();
        advisor.ingest(&name, &tagged.access);
    }
    AdvisorRun {
        window_accesses: advisor.config().window_accesses,
        rate: advisor.config().shards.rate,
        target_miss_ratio: advisor.config().target_miss_ratio,
        candidate_sizes: advisor.config().candidate_sizes.clone(),
        total_refs: cfg.accesses,
        recommendations: advisor.recommendations(),
    }
}

/// Renders the advisor table.
pub fn report(run: &AdvisorRun) -> String {
    let mut t = Table::new(
        "Advisor: per-tenant capacity + LOC:WOC recommendations (sampled MRCs)",
        &[
            "tenant",
            "refs",
            "windows",
            "rate",
            "samples",
            "avg words",
            "mode",
            "loc:woc",
            "size",
            "miss",
        ],
    );
    for r in &run.recommendations {
        t.row(vec![
            r.tenant.clone(),
            r.window_refs.to_string(),
            r.windows_completed.to_string(),
            fmt_f(r.final_rate, 3),
            r.sample_len.to_string(),
            fmt_f(r.mean_words_used, 2),
            if r.distill { "distill" } else { "trad" }.to_owned(),
            format!("{}:{}", r.loc_ways, r.woc_ways),
            format!("{}KB", r.size_bytes >> 10),
            format!("{}%", fmt_f(r.miss_ratio * 100.0, 1)),
        ]);
    }
    t.note(format!(
        "window {} refs, target miss ratio {}%, raw (L1-unfiltered) stream",
        run.window_accesses,
        fmt_f(run.target_miss_ratio * 100.0, 0)
    ));
    t.render()
}

/// The golden snapshot: every tenant's recommendation with the full
/// candidate curve. Byte-stable for a given seed; compared against
/// `tests/golden/advisor.json`.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let run = data(cfg);
    let rows = run.recommendations.iter().map(|r| {
        let curve = r.miss_ratios.iter().map(|&(size, m)| {
            Json::obj([
                ("size_kb", Json::uint(size >> 10)),
                ("miss_ratio", Json::num(m)),
            ])
        });
        Json::obj([
            ("key", Json::str(&r.tenant)),
            ("refs", Json::uint(r.window_refs)),
            ("windows", Json::uint(r.windows_completed)),
            ("final_rate", Json::num(r.final_rate)),
            ("sample_len", Json::uint(r.sample_len as u64)),
            ("mean_words_used", Json::num(r.mean_words_used)),
            ("distill", Json::uint(u64::from(r.distill))),
            ("loc_ways", Json::uint(u64::from(r.loc_ways))),
            ("woc_ways", Json::uint(u64::from(r.woc_ways))),
            ("size_kb", Json::uint(r.size_bytes >> 10)),
            ("miss_ratio", Json::num(r.miss_ratio)),
            ("curve", Json::arr(curve)),
        ])
    });
    golden::snapshot(
        "advisor",
        cfg,
        [
            ("window_accesses", Json::uint(run.window_accesses)),
            ("rate", Json::num(run.rate)),
            ("target_miss_ratio", Json::num(run.target_miss_ratio)),
            (
                "sizes_kb",
                Json::arr(run.candidate_sizes.iter().map(|&s| Json::uint(s >> 10))),
            ),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::Addr;

    #[test]
    fn unseen_tenant_has_no_recommendation() {
        let advisor = Advisor::new(AdvisorConfig::with_window(100));
        assert!(advisor.recommendation("ghost").is_none());
        assert_eq!(advisor.refs_of("ghost"), 0);
    }

    #[test]
    fn windows_rotate_and_recommendations_prefer_completed_windows() {
        let mut advisor = Advisor::new(AdvisorConfig::with_window(1_000));
        // A tiny hot loop: everything fits the smallest candidate.
        for i in 0..2_500u64 {
            let a = Access::load(Addr::new((i % 64) * 8), 8);
            advisor.ingest("hot", &a);
        }
        assert_eq!(advisor.refs_of("hot"), 2_500);
        let r = advisor.recommendation("hot").expect("seen tenant");
        assert_eq!(r.windows_completed, 2);
        assert_eq!(r.window_refs, 1_000, "based on a completed window");
        // 64 distinct 8 B words = 8 lines: the smallest size suffices.
        assert_eq!(r.size_bytes, *mrc::MRC_SIZES.first().expect("sizes"));
        assert!(r.miss_ratio <= 0.15, "{}", r.miss_ratio);
    }

    #[test]
    fn dense_lines_stay_traditional_sparse_lines_distill() {
        let mut advisor = Advisor::new(AdvisorConfig::with_window(10_000));
        for i in 0..4_000u64 {
            // Dense tenant: walks every word of each line.
            let dense = Access::load(Addr::new((i % 512) * 8), 8);
            advisor.ingest("dense", &dense);
            // Sparse tenant: only word 0 of each line.
            let sparse = Access::load(Addr::new((i % 64) * 64), 8);
            advisor.ingest("sparse", &sparse);
        }
        let dense = advisor.recommendation("dense").expect("dense");
        let sparse = advisor.recommendation("sparse").expect("sparse");
        assert!(!dense.distill, "avg words {}", dense.mean_words_used);
        assert_eq!((dense.loc_ways, dense.woc_ways), (8, 0));
        assert!(sparse.distill, "avg words {}", sparse.mean_words_used);
        assert_eq!((sparse.loc_ways, sparse.woc_ways), (4, 4));
    }

    #[test]
    fn experiment_is_deterministic_and_covers_every_tenant() {
        let cfg = RunConfig::quick().with_accesses(20_000);
        let a = snapshot(&cfg).render_pretty();
        let b = snapshot(&cfg).render_pretty();
        assert_eq!(a, b, "advisor snapshot must be byte-stable");
        for tenant in ["art", "mcf", "facerec", "twolf"] {
            assert!(a.contains(tenant), "missing {tenant}");
        }
        assert!(a.contains("\"experiment\": \"advisor\""));
    }

    #[test]
    fn report_renders_every_tenant_row() {
        let cfg = RunConfig::quick().with_accesses(10_000);
        let run = data(&cfg);
        assert_eq!(run.recommendations.len(), 4);
        let text = report(&run);
        for tenant in ["art", "mcf", "facerec", "twolf"] {
            assert!(text.contains(tenant), "missing {tenant}");
        }
        assert!(text.contains("raw (L1-unfiltered)"));
    }
}
