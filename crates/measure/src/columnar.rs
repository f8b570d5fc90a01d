//! Columnar measurement arenas.
//!
//! [`MeasurementDataset`] is a struct-of-rows: every site owns its own
//! `Vec`s of pairs, groups, and heap-allocated provider-key strings. At
//! the paper's 100K scale that is tolerable; at 1M sites the rows cost
//! gigabytes and defeat the cache on every analysis pass.
//! [`ColumnarDataset`] is the dense mirror the analysis layer actually
//! needs: provider identities interned once into a [`NameId`] arena,
//! per-site service states packed into one byte per service, and
//! per-site third-party provider lists flattened into CSR-style
//! `u32` columns. Everything an analysis stage streams over is a
//! contiguous array.
//!
//! Two producers exist and must agree byte-for-byte:
//!
//! * [`ColumnarDataset::from_rows`] — serial conversion of a row
//!   dataset, the cross-check reference;
//! * [`crate::pipeline::measure_world_columnar`] — the streaming
//!   pipeline that never materializes rows at all.
//!
//! `tests/parallel_determinism.rs` pins both equal at any worker count.

use crate::dataset::{
    MeasurementDataset, SiteCaMeasurement, SiteCdnMeasurement, SiteDnsMeasurement,
};
use crate::interservice::ProviderMeasurement;
use webdeps_model::{Interner, NameId, ServiceKind, SiteId};
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// Sentinel for "no provider" in the `ca_provider` column.
const NO_NAME: u32 = u32::MAX;

/// Packed `Option<DepState>` (0 = uncharacterized).
fn enc_dns(state: Option<DepState>) -> u8 {
    match state {
        None => 0,
        Some(DepState::Private) => 1,
        Some(DepState::SingleThird) => 2,
        Some(DepState::MultiThird) => 3,
        Some(DepState::PrivatePlusThird) => 4,
    }
}

fn dec_dns(byte: u8) -> Option<DepState> {
    match byte {
        0 => None,
        1 => Some(DepState::Private),
        2 => Some(DepState::SingleThird),
        3 => Some(DepState::MultiThird),
        4 => Some(DepState::PrivatePlusThird),
        other => unreachable!("invalid packed DepState {other}"),
    }
}

/// Packed `Option<CdnProfile>` (0 = unclassified).
fn enc_cdn(state: Option<CdnProfile>) -> u8 {
    match state {
        None => 0,
        Some(CdnProfile::None) => 1,
        Some(CdnProfile::Private) => 2,
        Some(CdnProfile::SingleThird) => 3,
        Some(CdnProfile::Multi) => 4,
    }
}

fn dec_cdn(byte: u8) -> Option<CdnProfile> {
    match byte {
        0 => None,
        1 => Some(CdnProfile::None),
        2 => Some(CdnProfile::Private),
        3 => Some(CdnProfile::SingleThird),
        4 => Some(CdnProfile::Multi),
        other => unreachable!("invalid packed CdnProfile {other}"),
    }
}

/// Packed `Option<CaProfile>` (0 = unclassified).
fn enc_ca(state: Option<CaProfile>) -> u8 {
    match state {
        None => 0,
        Some(CaProfile::NoHttps) => 1,
        Some(CaProfile::PrivateCa) => 2,
        Some(CaProfile::ThirdStapled) => 3,
        Some(CaProfile::ThirdNoStaple) => 4,
    }
}

fn dec_ca(byte: u8) -> Option<CaProfile> {
    match byte {
        0 => None,
        1 => Some(CaProfile::NoHttps),
        2 => Some(CaProfile::PrivateCa),
        3 => Some(CaProfile::ThirdStapled),
        4 => Some(CaProfile::ThirdNoStaple),
        other => unreachable!("invalid packed CaProfile {other}"),
    }
}

/// A provider's inter-service dependency in interned form (the columnar
/// counterpart of [`crate::interservice::InterServiceDep`], reduced to
/// what graph construction consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarDep {
    /// Third-party provider identities, interned.
    pub providers: Vec<NameId>,
    /// Whether the dependency is critical.
    pub critical: bool,
}

/// One observed provider in interned form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarProvider {
    /// Wire-inferred identity, interned.
    pub key: NameId,
    /// The service this provider offers.
    pub kind: ServiceKind,
    /// Number of sites observed using this provider directly.
    pub direct_sites: usize,
    /// DNS dependency (CDNs and CAs).
    pub dns_dep: Option<ColumnarDep>,
    /// CDN dependency (CAs only).
    pub cdn_dep: Option<ColumnarDep>,
}

/// The columnar mirror of a [`MeasurementDataset`].
///
/// Per-site storage is a handful of bytes: one `u8` per service state,
/// CSR ranges into flat third-party provider columns, and one `u32` CA
/// slot. Provider-key strings live once in the interner, shared by
/// every column. Site order (and therefore every column's order) is
/// the dataset's rank order, so the same measurement always yields the
/// same arenas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnarDataset {
    /// Interned provider identities (registrable domains).
    names: Interner,
    /// Concentration threshold used by the combined heuristic.
    threshold: usize,
    /// Site ids, in dataset (rank) order.
    site_ids: Vec<SiteId>,
    /// Packed `Option<DepState>` per site.
    dns_state: Vec<u8>,
    /// Packed `Option<CdnProfile>` per site.
    cdn_state: Vec<u8>,
    /// Packed `Option<CaProfile>` per site.
    ca_state: Vec<u8>,
    /// CSR offsets into `dns_providers` (`len + 1` entries).
    dns_start: Vec<u32>,
    /// Flattened third-party DNS providers of every site.
    dns_providers: Vec<NameId>,
    /// CSR offsets into `cdn_providers` (`len + 1` entries).
    cdn_start: Vec<u32>,
    /// Flattened third-party CDN providers of every site.
    cdn_providers: Vec<NameId>,
    /// Third-party CA per site (`NameId(NO_NAME)` = none).
    ca_provider: Vec<NameId>,
    /// Provider-level inter-service measurements (§3.4).
    providers: Vec<ColumnarProvider>,
}

impl ColumnarDataset {
    /// Converts a row dataset. Interning order is site order (DNS, then
    /// CDN, then CA keys per site), then the provider table — the same
    /// order the streaming pipeline produces, so the two are equal.
    pub fn from_rows(ds: &MeasurementDataset) -> ColumnarDataset {
        let mut out = ColumnarDataset::with_capacity(ds.sites.len(), ds.threshold);
        for site in &ds.sites {
            out.push_measured(site.id, &site.dns, &site.cdn, &site.ca);
        }
        for pm in &ds.providers {
            out.push_provider(pm);
        }
        out
    }

    /// An empty dataset pre-sized for `n` sites.
    pub(crate) fn with_capacity(n: usize, threshold: usize) -> ColumnarDataset {
        ColumnarDataset {
            names: Interner::with_capacity(256),
            threshold,
            site_ids: Vec::with_capacity(n),
            dns_state: Vec::with_capacity(n),
            cdn_state: Vec::with_capacity(n),
            ca_state: Vec::with_capacity(n),
            dns_start: {
                let mut v = Vec::with_capacity(n + 1);
                v.push(0);
                v
            },
            dns_providers: Vec::new(),
            cdn_start: {
                let mut v = Vec::with_capacity(n + 1);
                v.push(0);
                v
            },
            cdn_providers: Vec::new(),
            ca_provider: Vec::with_capacity(n),
            providers: Vec::new(),
        }
    }

    /// Appends one measured site, interning its third-party provider
    /// keys (rank order is the caller's responsibility).
    pub(crate) fn push_measured(
        &mut self,
        id: SiteId,
        dns: &SiteDnsMeasurement,
        cdn: &SiteCdnMeasurement,
        ca: &SiteCaMeasurement,
    ) {
        self.site_ids.push(id);
        self.dns_state.push(enc_dns(dns.state));
        self.cdn_state.push(enc_cdn(cdn.state));
        self.ca_state.push(enc_ca(ca.state));
        self.dns_providers
            .extend(dns.third_parties().map(|k| self.names.intern(k.as_str())));
        self.dns_start
            .push(checked_offset(self.dns_providers.len()));
        self.cdn_providers
            .extend(cdn.third_parties().map(|k| self.names.intern(k.as_str())));
        self.cdn_start
            .push(checked_offset(self.cdn_providers.len()));
        self.ca_provider.push(
            ca.third_party()
                .map_or(NameId(NO_NAME), |k| self.names.intern(k.as_str())),
        );
    }

    /// Joins measurement shards, in shard (= site) order, into one
    /// dataset without a provider table. The output is pre-sized from
    /// the shard totals: `heap_bytes` charges *capacity*, so exact
    /// reservation keeps doubling slack out of the per-site budget.
    pub(crate) fn from_shards(shards: Vec<ColumnarDataset>, threshold: usize) -> ColumnarDataset {
        let mut out =
            ColumnarDataset::with_capacity(shards.iter().map(|s| s.len()).sum(), threshold);
        out.dns_providers
            .reserve_exact(shards.iter().map(|s| s.dns_providers.len()).sum());
        out.cdn_providers
            .reserve_exact(shards.iter().map(|s| s.cdn_providers.len()).sum());
        for shard in shards {
            out.append(shard);
        }
        out
    }

    /// Appends a later shard's sites (not its provider table). Each
    /// shard interned its names in first-seen site order, so remapping
    /// the shard's name table *in id order* into this arena reproduces
    /// exactly the interning order a serial site walk would — one hash
    /// probe per distinct shard name instead of one per site key.
    fn append(&mut self, shard: ColumnarDataset) {
        let remap: Vec<NameId> = shard.names.names().map(|n| self.names.intern(n)).collect();
        let global = |n: &NameId| remap[n.index()];
        self.site_ids.extend_from_slice(&shard.site_ids);
        self.dns_state.extend_from_slice(&shard.dns_state);
        self.cdn_state.extend_from_slice(&shard.cdn_state);
        self.ca_state.extend_from_slice(&shard.ca_state);
        let base = self.dns_providers.len();
        self.dns_providers
            .extend(shard.dns_providers.iter().map(global));
        self.dns_start.extend(
            shard.dns_start[1..]
                .iter()
                .map(|&end| checked_offset(base + end as usize)),
        );
        let base = self.cdn_providers.len();
        self.cdn_providers
            .extend(shard.cdn_providers.iter().map(global));
        self.cdn_start.extend(
            shard.cdn_start[1..]
                .iter()
                .map(|&end| checked_offset(base + end as usize)),
        );
        // The "no CA" sentinel is not a name and stays as it is.
        self.ca_provider.extend(shard.ca_provider.iter().map(|n| {
            if n.0 == NO_NAME {
                *n
            } else {
                global(n)
            }
        }));
    }

    /// Appends one provider measurement (interning its keys).
    pub(crate) fn push_provider(&mut self, pm: &ProviderMeasurement) {
        let key = self.names.intern(pm.key.as_str());
        let mut dep = |d: &Option<crate::interservice::InterServiceDep>| {
            d.as_ref().map(|d| ColumnarDep {
                providers: d
                    .providers
                    .iter()
                    .map(|k| self.names.intern(k.as_str()))
                    .collect(),
                critical: d.critical,
            })
        };
        let dns_dep = dep(&pm.dns_dep);
        let cdn_dep = dep(&pm.cdn_dep);
        self.providers.push(ColumnarProvider {
            key,
            kind: pm.kind,
            direct_sites: pm.direct_sites,
            dns_dep,
            cdn_dep,
        });
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.site_ids.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.site_ids.is_empty()
    }

    /// Concentration threshold used by the combined heuristic.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The site id of row `i`.
    pub fn site_id(&self, i: usize) -> SiteId {
        self.site_ids[i]
    }

    /// Exclusive upper bound on raw [`SiteId`] indexes present.
    pub fn site_id_bound(&self) -> usize {
        self.site_ids
            .iter()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The string behind an interned provider identity.
    pub fn name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// Number of distinct interned provider identities.
    pub fn names_len(&self) -> usize {
        self.names.len()
    }

    /// Packed DNS state of row `i`.
    pub fn dns_state(&self, i: usize) -> Option<DepState> {
        dec_dns(self.dns_state[i])
    }

    /// Packed CDN state of row `i`.
    pub fn cdn_state(&self, i: usize) -> Option<CdnProfile> {
        dec_cdn(self.cdn_state[i])
    }

    /// Packed CA state of row `i`.
    pub fn ca_state(&self, i: usize) -> Option<CaProfile> {
        dec_ca(self.ca_state[i])
    }

    /// Third-party DNS providers of row `i`.
    pub fn dns_providers_of(&self, i: usize) -> &[NameId] {
        &self.dns_providers[self.dns_start[i] as usize..self.dns_start[i + 1] as usize]
    }

    /// Third-party CDN providers of row `i`.
    pub fn cdn_providers_of(&self, i: usize) -> &[NameId] {
        &self.cdn_providers[self.cdn_start[i] as usize..self.cdn_start[i + 1] as usize]
    }

    /// Third-party CA of row `i`, if any.
    pub fn ca_provider_of(&self, i: usize) -> Option<NameId> {
        let id = self.ca_provider[i];
        (id.0 != NO_NAME).then_some(id)
    }

    /// Row `i`'s dependency edges as `(provider, service, critical)`,
    /// in DNS → CDN → CA order — the one per-site edge rule the graph
    /// layer builds from. Edges only exist for *characterized* services
    /// (state present); a service is critical when its sole provider is
    /// a single third party (DNS, CDN) or an unstapled third-party CA.
    pub fn site_edges(&self, i: usize) -> (SiteId, Vec<(NameId, ServiceKind, bool)>) {
        let mut edges: Vec<(NameId, ServiceKind, bool)> = Vec::new();
        if let Some(state) = self.dns_state(i) {
            let critical = state == DepState::SingleThird;
            for &name in self.dns_providers_of(i) {
                edges.push((name, ServiceKind::Dns, critical));
            }
        }
        if let Some(state) = self.cdn_state(i) {
            let critical = state == CdnProfile::SingleThird;
            for &name in self.cdn_providers_of(i) {
                edges.push((name, ServiceKind::Cdn, critical));
            }
        }
        if let Some(state) = self.ca_state(i) {
            if let Some(name) = self.ca_provider_of(i) {
                let critical = state == CaProfile::ThirdNoStaple;
                edges.push((name, ServiceKind::Ca, critical));
            }
        }
        (self.site_ids[i], edges)
    }

    /// Third-party providers of row `i` for one service kind — the
    /// columnar counterpart of the coverage layer's per-site provider
    /// extraction (*not* gated on characterization, like the row path).
    pub fn site_providers(&self, i: usize, kind: ServiceKind) -> &[NameId] {
        match kind {
            ServiceKind::Dns => self.dns_providers_of(i),
            ServiceKind::Cdn => self.cdn_providers_of(i),
            ServiceKind::Ca => {
                let slot = &self.ca_provider[i];
                if slot.0 == NO_NAME {
                    &[]
                } else {
                    std::slice::from_ref(slot)
                }
            }
            ServiceKind::Cloud => &[],
        }
    }

    /// The provider table (§3.4 measurements), in observation order.
    pub fn providers(&self) -> &[ColumnarProvider] {
        &self.providers
    }

    /// Bytes of heap owned by the arenas — the number the bytes-per-site
    /// budget in README.md is asserted against.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let provider_table: usize = self
            .providers
            .iter()
            .map(|p| {
                let dep = |d: &Option<ColumnarDep>| {
                    d.as_ref()
                        .map_or(0, |d| d.providers.capacity() * size_of::<NameId>())
                };
                size_of::<ColumnarProvider>() + dep(&p.dns_dep) + dep(&p.cdn_dep)
            })
            .sum();
        self.names.heap_bytes()
            + self.site_ids.capacity() * size_of::<SiteId>()
            + self.dns_state.capacity()
            + self.cdn_state.capacity()
            + self.ca_state.capacity()
            + self.dns_start.capacity() * size_of::<u32>()
            + self.dns_providers.capacity() * size_of::<NameId>()
            + self.cdn_start.capacity() * size_of::<u32>()
            + self.cdn_providers.capacity() * size_of::<NameId>()
            + self.ca_provider.capacity() * size_of::<NameId>()
            + provider_table
    }
}

/// Checked CSR offset: a flat provider column longer than `u32::MAX`
/// would silently wrap the ranges.
fn checked_offset(len: usize) -> u32 {
    assert!(
        u32::try_from(len).is_ok(),
        "columnar overflow: {len} flattened providers exceed the u32 offset space"
    );
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn round_trip_matches_rows() {
        let world = World::generate(WorldConfig::small(21));
        let ds = measure_world(&world);
        let cds = ColumnarDataset::from_rows(&ds);
        assert_eq!(cds.len(), ds.sites.len());
        assert_eq!(cds.threshold(), ds.threshold);
        assert_eq!(cds.providers().len(), ds.providers.len());
        for (i, site) in ds.sites.iter().enumerate() {
            assert_eq!(cds.site_id(i), site.id);
            assert_eq!(cds.dns_state(i), site.dns.state);
            assert_eq!(cds.cdn_state(i), site.cdn.state);
            assert_eq!(cds.ca_state(i), site.ca.state);
            let dns: Vec<&str> = cds
                .dns_providers_of(i)
                .iter()
                .map(|&n| cds.name(n))
                .collect();
            let want: Vec<&str> = site.dns.third_parties().map(|k| k.as_str()).collect();
            assert_eq!(dns, want, "site {i} dns providers");
            let cdn: Vec<&str> = cds
                .cdn_providers_of(i)
                .iter()
                .map(|&n| cds.name(n))
                .collect();
            let want: Vec<&str> = site.cdn.third_parties().map(|k| k.as_str()).collect();
            assert_eq!(cdn, want, "site {i} cdn providers");
        }
        // Provider table keys resolve to the row keys in order.
        for (cp, pm) in cds.providers().iter().zip(&ds.providers) {
            assert_eq!(cds.name(cp.key), pm.key.as_str());
            assert_eq!(cp.kind, pm.kind);
            assert_eq!(
                cp.dns_dep.as_ref().map(|d| d.critical),
                pm.dns_dep.as_ref().map(|d| d.critical)
            );
        }
    }

    #[test]
    fn heap_bytes_is_small_per_site() {
        let world = World::generate(WorldConfig::small(21));
        let ds = measure_world(&world);
        let cds = ColumnarDataset::from_rows(&ds);
        let per_site = cds.heap_bytes() / cds.len().max(1);
        // Small worlds amortize the interner poorly; the real budget is
        // asserted at bench scale. This is a smoke ceiling.
        assert!(per_site < 2_000, "{per_site} B/site");
    }
}
