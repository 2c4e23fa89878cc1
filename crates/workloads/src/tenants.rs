//! Multi-tenant interleaved access streams.
//!
//! The online cache advisor (`ldis-experiments::advisor`) consumes a
//! *tagged* stream: every access carries the tenant that issued it, so
//! per-tenant sampled MRC profilers can be maintained over one shared
//! arrival order. [`TenantMix`] produces that stream by weighted
//! interleaving of per-tenant [`Workload`]s, with each tenant relocated
//! into a disjoint address region so tenants never alias lines.
//!
//! All randomness — the tenant picked per step and each tenant's own
//! stream — derives from the mix seed, so equal seeds give identical
//! tagged traces (the advisor golden depends on this).

use crate::{Benchmark, Workload};
use ldis_mem::{rng, Access, Addr, SimRng, TraceSource};

/// Address-space stride separating tenants: 16 TiB per tenant keeps every
/// workload's regions disjoint across tenants without nearing u64 wrap.
const TENANT_STRIDE: u64 = 1 << 44;

/// One access of the interleaved stream, tagged with its issuing tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantAccess {
    /// Index of the issuing tenant (see [`TenantMix::tenant_name`]).
    pub tenant: usize,
    /// The access, relocated into the tenant's private address region.
    pub access: Access,
}

struct Tenant {
    name: String,
    weight: f64,
    workload: Workload,
}

/// Builder for [`TenantMix`]; created by [`TenantMix::builder`].
pub struct TenantMixBuilder {
    seed: u64,
    tenants: Vec<Tenant>,
}

impl TenantMixBuilder {
    /// Adds a tenant running `workload` with the given scheduling
    /// `weight` (relative share of the interleaved stream).
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not positive.
    #[must_use]
    pub fn tenant(mut self, name: impl Into<String>, weight: f64, workload: Workload) -> Self {
        assert!(weight > 0.0, "tenant weight must be positive");
        self.tenants.push(Tenant {
            name: name.into(),
            weight,
            workload,
        });
        self
    }

    /// Adds a tenant running `benchmark`, seeded deterministically from
    /// the mix seed, the benchmark's stable id and the tenant's position
    /// in the mix — so reordering tenants or changing the mix seed
    /// re-rolls the stream, but rebuilding the same mix replays it.
    #[must_use]
    pub fn benchmark(self, weight: f64, benchmark: &Benchmark) -> Self {
        let slot = self.tenants.len() as u64;
        let seed = SimRng::derive_seed_chain(self.seed, &[u64::from(benchmark.id), slot]);
        self.tenant(benchmark.name, weight, (benchmark.make)(seed))
    }

    /// Finishes the mix.
    ///
    /// # Panics
    ///
    /// Panics when no tenant was added.
    pub fn build(self) -> TenantMix {
        assert!(!self.tenants.is_empty(), "a tenant mix needs tenants");
        let weights = self.tenants.iter().map(|t| t.weight).collect();
        TenantMix {
            tenants: self.tenants,
            weights,
            rng: SimRng::new(SimRng::derive_seed_chain(self.seed, &[rng::TENANT_MIX])),
        }
    }
}

/// A deterministic weighted interleaving of named tenant workloads. See
/// the module docs.
pub struct TenantMix {
    tenants: Vec<Tenant>,
    weights: Vec<f64>,
    rng: SimRng,
}

impl TenantMix {
    /// Starts building a mix; all randomness derives from `seed`.
    pub fn builder(seed: u64) -> TenantMixBuilder {
        TenantMixBuilder {
            seed,
            tenants: Vec::new(),
        }
    }

    /// Number of tenants in the mix.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The name of tenant `index`, if it exists.
    pub fn tenant_name(&self, index: usize) -> Option<&str> {
        self.tenants.get(index).map(|t| t.name.as_str())
    }

    /// Produces the next tagged access: a weighted pick of the issuing
    /// tenant, that tenant's next access, relocated into its private
    /// region.
    pub fn next_tenant_access(&mut self) -> TenantAccess {
        let tenant = self.rng.weighted_index(&self.weights);
        let base = tenant as u64 * TENANT_STRIDE;
        let access = match self.tenants.get_mut(tenant) {
            Some(t) => t.workload.next_access(),
            None => None,
        };
        // Workloads are endless; the fallback keeps the stream total
        // (and this function panic-free) if that ever changes.
        let mut access = access.unwrap_or_else(|| Access::load(Addr::new(0), 8));
        access.addr = Addr::new(base.wrapping_add(access.addr.raw()));
        access.pc = Addr::new(base.wrapping_add(access.pc.raw()));
        TenantAccess { tenant, access }
    }
}

impl std::fmt::Debug for TenantMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantMix")
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec2000;

    fn two_tenant_mix(seed: u64) -> TenantMix {
        let benches = spec2000::memory_intensive();
        let art = benches.iter().find(|b| b.name == "art").expect("art");
        let mcf = benches.iter().find(|b| b.name == "mcf").expect("mcf");
        TenantMix::builder(seed)
            .benchmark(3.0, art)
            .benchmark(1.0, mcf)
            .build()
    }

    #[test]
    fn equal_seeds_replay_identical_tagged_streams() {
        let mut a = two_tenant_mix(42);
        let mut b = two_tenant_mix(42);
        for _ in 0..5_000 {
            assert_eq!(a.next_tenant_access(), b.next_tenant_access());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = two_tenant_mix(42);
        let mut b = two_tenant_mix(43);
        let differs = (0..1_000).any(|_| a.next_tenant_access() != b.next_tenant_access());
        assert!(differs);
    }

    #[test]
    fn weights_bias_the_schedule() {
        let mut m = two_tenant_mix(7);
        let mut counts = [0u64; 2];
        for _ in 0..10_000 {
            let t = m.next_tenant_access();
            if let Some(c) = counts.get_mut(t.tenant) {
                *c += 1;
            }
        }
        // 3:1 weights: tenant 0 should clearly dominate.
        assert!(counts[0] > counts[1] * 2, "{counts:?}");
    }

    #[test]
    fn tenants_occupy_disjoint_address_regions() {
        let mut m = two_tenant_mix(11);
        for _ in 0..5_000 {
            let t = m.next_tenant_access();
            assert_eq!(
                t.access.addr.raw() / TENANT_STRIDE,
                t.tenant as u64,
                "access escaped its tenant region"
            );
        }
    }

    #[test]
    fn names_are_exposed_in_order() {
        let m = two_tenant_mix(1);
        assert_eq!(m.tenant_count(), 2);
        assert_eq!(m.tenant_name(0), Some("art"));
        assert_eq!(m.tenant_name(1), Some("mcf"));
        assert_eq!(m.tenant_name(2), None);
    }
}
