//! D3 fail fixture: float accumulation that merges parallel-sweep cell
//! results in completion order. Scanned as
//! `crates/experiments/src/fixture.rs`.
//!
//! Expected findings: 4 — a shared `Mutex<f64>` accumulator, a float
//! `+=` inside a worker closure, a float `.sum()` reduction inside a
//! worker closure, and a float `+=` inside a `for_each_benchmark`
//! closure.

pub fn merge(cells: &[u64]) -> f64 {
    let total = Mutex::new(0.0f64);
    sweep(cells, |c| {
        let mpki = *c as f64;
        *total.lock().unwrap() += mpki;
    });
    let t = *total.lock().unwrap();
    t
}

pub fn reduce(cells: &[u64]) -> f64 {
    sweep(cells, |c| (0..*c).map(|x| x as f64).sum::<f64>())
}

pub fn weigh(benchmarks: &[Benchmark], total: &Accumulator) {
    for_each_benchmark(benchmarks, |b| {
        *total.lock().unwrap() += b.weight;
    });
}
