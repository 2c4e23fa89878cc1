//! The traced run's in-memory span log, and the self-time arithmetic the
//! per-layer figures come from.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call: one clock for all threads.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole cell: set-up and every block (replays excluded).
    Cell,
    /// Construction of the cell's workload, L2 and hierarchy or timing model.
    Setup,
    /// One block's `Workload::fill_block`.
    Gen,
    /// One block driven through `Hierarchy::access`.
    Drive,
    /// One block driven through `TimingSim::step`.
    Step,
    /// The cell's recorded L2 call log replayed into a fresh L2.
    ReplayL2,
    /// The cell's accesses replayed through a fresh hierarchy (timed cells).
    ReplayHier,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Setup => "setup",
            Kind::Gen => "gen",
            Kind::Drive => "drive",
            Kind::Step => "step",
            Kind::ReplayL2 => "replay_l2",
            Kind::ReplayHier => "replay_hier",
        }
    }
}

/// One timed interval; `parent` indexes the same cell's span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one cell, in opening order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellTrace {
    pub spans: Vec<Span>,
}

impl CellTrace {
    /// Opens a span and returns its id.
    pub fn open(&mut self, kind: Kind, parent: Option<usize>) -> usize {
        let start = now_ns();
        self.spans.push(Span {
            kind,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end = now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, kind: Kind, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(kind, parent);
        let r = f();
        self.close(id);
        r
    }
}

/// `span`'s duration minus the part of it its `children` cover. Children
/// are clipped to the span and overlaps count once.
pub fn self_ns<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .into_iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in iv {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    span.ns() - covered
}

/// Where one traced cell's host time went, by layer, in nanoseconds.
///
/// The L2's self time is its replay; the hierarchy's own work is its
/// replay for timed cells and its block spans otherwise. The driver is
/// the hierarchy's work minus the L2's, and the timing model is its step
/// spans minus the hierarchy's work. So the layers add up to set-up +
/// generation + drive, and the cell's own self time is what no layer
/// explains.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellLayers {
    pub cell: f64,
    pub setup: f64,
    pub gen: f64,
    pub driver: f64,
    pub l2: f64,
    pub timing: f64,
    pub unaccounted: f64,
}

impl CellLayers {
    pub fn of(trace: &CellTrace) -> Option<CellLayers> {
        let root = trace.spans.iter().position(|s| s.kind == Kind::Cell)?;
        let cell = trace.spans.get(root)?;
        let children: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .collect();
        let total = |kinds: &[Kind]| -> f64 {
            trace
                .spans
                .iter()
                .filter(|s| kinds.contains(&s.kind))
                .map(|s| s.ns() as f64)
                .sum()
        };
        let drive = total(&[Kind::Drive, Kind::Step]);
        let l2 = total(&[Kind::ReplayL2]);
        let timed = trace.spans.iter().any(|s| s.kind == Kind::ReplayHier);
        let hier = if timed {
            total(&[Kind::ReplayHier])
        } else {
            drive
        };
        Some(CellLayers {
            cell: cell.ns() as f64,
            setup: total(&[Kind::Setup]),
            gen: total(&[Kind::Gen]),
            driver: hier - l2,
            l2,
            timing: drive - hier,
            unaccounted: self_ns(cell, children) as f64,
        })
    }

    /// The layer self times' sum.
    pub fn sum(&self) -> f64 {
        self.setup + self.gen + self.driver + self.l2 + self.timing
    }
}

/// The share (%) of the traced cell time that the layer self times leave
/// unexplained, over `cells`.
pub fn unaccounted_pct(cells: &[CellLayers]) -> f64 {
    let cell: f64 = cells.iter().map(|c| c.cell).sum();
    let sum: f64 = cells.iter().map(CellLayers::sum).sum();
    if cell > 0.0 {
        (cell - sum) / cell * 100.0
    } else {
        0.0
    }
}

/// What no layer explains is the gaps between a cell's child spans, each
/// up to one span record. Those timer reads follow heavy work, with
/// colder caches than the tight loop that measures a span's cost, so the
/// gaps may take up to this multiple of the measured cost.
pub const GAP_ALLOWANCE: f64 = 2.0;

/// Checks that the layer self times of `cells` account for their traced
/// time. The driver and timing self times are differences of measured
/// spans, so each must sum to at least 0 (a replay that ran slower than
/// the calls it replays would drive them negative); and the share no
/// layer explains may not exceed [`GAP_ALLOWANCE`] × `span_cost_pct`, the
/// measured cost of recording the cells' spans.
pub fn check_accounting(cells: &[CellLayers], span_cost_pct: f64) -> Result<(), String> {
    let driver: f64 = cells.iter().map(|c| c.driver).sum();
    let timing: f64 = cells.iter().map(|c| c.timing).sum();
    let unaccounted = unaccounted_pct(cells);
    let allowed = GAP_ALLOWANCE * span_cost_pct;
    if driver < 0.0 {
        Err(format!("driver self time is negative ({driver:.0} ns)"))
    } else if timing < 0.0 {
        Err(format!("timing self time is negative ({timing:.0} ns)"))
    } else if unaccounted > allowed {
        Err(format!(
            "{unaccounted:.3}% of the cell time is unaccounted, above the {allowed:.3}% allowed for the spans"
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            kind,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let parent = span(Kind::Cell, 100, 200, None);
        // Overlapping children count once; parts outside the parent are
        // clipped; an empty or outside child covers nothing.
        let children = [
            span(Kind::Gen, 110, 130, Some(0)),
            span(Kind::Drive, 120, 150, Some(0)),
            span(Kind::Gen, 190, 250, Some(0)),
            span(Kind::Drive, 50, 105, Some(0)),
            span(Kind::Gen, 300, 400, Some(0)),
            span(Kind::Gen, 160, 160, Some(0)),
        ];
        // Covered: [100,105) + [110,150) + [190,200) = 5 + 40 + 10.
        assert_eq!(self_ns(&parent, &children), 100 - 55);
        assert_eq!(self_ns(&parent, &[]), 100);
        assert_eq!(self_ns(&parent, &[span(Kind::Gen, 0, 1000, None)]), 0);
    }

    fn cell_trace(timed: bool) -> CellTrace {
        let mut spans = vec![
            span(Kind::Cell, 0, 1000, None),
            span(Kind::Setup, 0, 100, Some(0)),
            span(Kind::Gen, 100, 200, Some(0)),
            span(Kind::Drive, 200, 600, Some(0)),
            span(Kind::Gen, 600, 700, Some(0)),
            span(Kind::Drive, 700, 990, Some(0)),
            span(Kind::ReplayL2, 2000, 2300, None),
        ];
        if timed {
            for s in &mut spans {
                if s.kind == Kind::Drive {
                    s.kind = Kind::Step;
                }
            }
            spans.push(span(Kind::ReplayHier, 3000, 3500, None));
        }
        CellTrace { spans }
    }

    #[test]
    fn layer_self_times_sum_to_the_cell_minus_its_gaps() {
        let c = CellLayers::of(&cell_trace(false)).expect("cell span");
        assert_eq!(c.cell, 1000.0);
        assert_eq!((c.setup, c.gen, c.l2, c.timing), (100.0, 200.0, 300.0, 0.0));
        assert_eq!(c.driver, 690.0 - 300.0);
        assert_eq!(c.unaccounted, 10.0);
        assert_eq!(c.sum() + c.unaccounted, c.cell);
        assert!((unaccounted_pct(&[c]) - 1.0).abs() < 1e-12);

        let t = CellLayers::of(&cell_trace(true)).expect("cell span");
        assert_eq!((t.l2, t.driver, t.timing), (300.0, 200.0, 190.0));
        assert_eq!(t.sum() + t.unaccounted, t.cell);
        assert!(CellLayers::of(&CellTrace::default()).is_none());
    }

    #[test]
    fn accounting_fails_on_negative_layers_or_unexplained_time() {
        let c = CellLayers::of(&cell_trace(false)).expect("cell span");
        // 1% of the cell is unexplained.
        assert!(check_accounting(&[c], 1.0 / GAP_ALLOWANCE).is_ok());
        assert!(check_accounting(&[c], 0.9 / GAP_ALLOWANCE).is_err());
        let slow_replay = CellLayers { driver: -1.0, ..c };
        assert!(check_accounting(&[slow_replay], 100.0).is_err());
        // Sums per workload: one cell's negative timing may be offset.
        let t = CellLayers::of(&cell_trace(true)).expect("cell span");
        let neg = CellLayers {
            timing: -100.0,
            ..t
        };
        assert!(check_accounting(&[t, neg], 100.0).is_ok());
        assert!(check_accounting(&[neg], 100.0).is_err());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = CellTrace::default();
        let root = t.open(Kind::Cell, None);
        let x = t.time(Kind::Gen, Some(root), || 7);
        t.close(root);
        assert_eq!(x, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
        let c = CellLayers::of(&t).expect("cell span");
        assert!(c.sum() + c.unaccounted - c.cell < 1e-9);
    }
}
