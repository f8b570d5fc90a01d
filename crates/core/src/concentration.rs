//! Provider coverage CDFs (Figure 6).
//!
//! "How many providers serve 80% of the websites?" — computed the
//! honest way: providers sorted by direct consumer count, coverage as
//! the *union* of their consumer sets over the population of sites that
//! use the service at all.

use crate::reach::SiteSet;
use std::collections::HashMap;
use webdeps_measure::{ColumnarDataset, MeasurementDataset, ProviderKey, SiteMeasurement};
use webdeps_model::{NameId, ServiceKind, SiteId};

/// One point of the coverage curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveragePoint {
    /// Number of (top) providers included.
    pub providers: usize,
    /// Fraction (0–1) of service-using sites covered.
    pub coverage: f64,
    /// The provider added at this point.
    pub key: ProviderKey,
}

/// Per-site third-party providers of one service kind.
fn site_providers(site: &SiteMeasurement, kind: ServiceKind) -> Vec<&ProviderKey> {
    match kind {
        ServiceKind::Dns => site.dns.third_parties().collect(),
        ServiceKind::Cdn => site.cdn.third_parties().collect(),
        ServiceKind::Ca => site.ca.third_party().into_iter().collect(),
        ServiceKind::Cloud => Vec::new(),
    }
}

/// The one coverage kernel, in O(edges): takes each provider's consumer
/// sites (listed in site order), orders providers by a total sort —
/// distinct consumers descending, then key ascending — and sweeps them
/// once into a single covered-site bitmap. Point `i` is the union
/// coverage of the top `i+1` providers.
fn curve_from_consumers(mut consumers: Vec<(ProviderKey, Vec<SiteId>)>) -> Vec<CoveragePoint> {
    for (_, sites) in &mut consumers {
        // A site's repeats of one provider are adjacent in its list.
        sites.dedup();
    }
    consumers.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
    let mut covered = SiteSet::default();
    let mut total = 0usize;
    let mut running = Vec::with_capacity(consumers.len());
    for (_, sites) in &consumers {
        for &site in sites {
            if !covered.contains(site) {
                covered.insert(site);
                total += 1;
            }
        }
        running.push(total);
    }
    consumers
        .into_iter()
        .zip(running)
        .enumerate()
        .map(|(i, ((key, _), n))| CoveragePoint {
            providers: i + 1,
            coverage: n as f64 / total as f64,
            key,
        })
        .collect()
}

/// The full coverage curve for a service over row measurements.
pub fn coverage_curve(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
    let mut slots: HashMap<&ProviderKey, usize> = HashMap::new();
    let mut consumers: Vec<(ProviderKey, Vec<SiteId>)> = Vec::new();
    for site in &ds.sites {
        for key in site_providers(site, kind) {
            let slot = *slots.entry(key).or_insert_with(|| {
                consumers.push((key.clone(), Vec::new()));
                consumers.len() - 1
            });
            consumers[slot].1.push(site.id);
        }
    }
    curve_from_consumers(consumers)
}

/// [`coverage_curve`] over columnar arenas: the consumer lists are
/// indexed by interned provider name. Produces byte-identical points to
/// the row path.
pub fn coverage_curve_columnar(cds: &ColumnarDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
    let mut lists: Vec<Vec<SiteId>> = vec![Vec::new(); cds.names_len()];
    for i in 0..cds.len() {
        for &name in cds.site_providers(i, kind) {
            lists[name.index()].push(cds.site_id(i));
        }
    }
    let consumers = lists
        .into_iter()
        .enumerate()
        .filter(|(_, sites)| !sites.is_empty())
        .map(|(i, sites)| (ProviderKey::new(cds.name(NameId::from_index(i))), sites))
        .collect();
    curve_from_consumers(consumers)
}

/// The number of top providers on `curve` needed to cover `fraction` of
/// the service-using sites (0 when no point reaches it) — the paper's
/// "54 providers serve 80% in 2020 vs 2 705 in 2016" statistic.
pub fn providers_for_coverage(curve: &[CoveragePoint], fraction: f64) -> usize {
    curve
        .iter()
        .find(|p| p.coverage >= fraction)
        .map_or(0, |p| p.providers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    /// The naive oracle: a `HashSet` of consumers per provider, in the
    /// kernel's order, with coverage as the size of their running union.
    fn naive_coverage_curve(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
        let mut map: HashMap<&ProviderKey, HashSet<SiteId>> = HashMap::new();
        for site in &ds.sites {
            for key in site_providers(site, kind) {
                map.entry(key).or_default().insert(site.id);
            }
        }
        let mut sets: Vec<_> = map.into_iter().map(|(k, s)| (k.clone(), s)).collect();
        sets.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let total: HashSet<SiteId> = sets.iter().flat_map(|(_, s)| s.iter().copied()).collect();
        let mut covered: HashSet<SiteId> = HashSet::new();
        let mut out = Vec::with_capacity(sets.len());
        for (i, (key, consumers)) in sets.into_iter().enumerate() {
            covered.extend(consumers);
            out.push(CoveragePoint {
                providers: i + 1,
                coverage: covered.len() as f64 / total.len() as f64,
                key,
            });
        }
        out
    }

    #[test]
    fn kernel_matches_naive_oracle() {
        for seed in [37, 99] {
            let ds = measure_world(&World::generate(WorldConfig::small(seed)));
            for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
                let curve = coverage_curve(&ds, kind);
                assert!(!curve.is_empty(), "seed {seed} {kind}: no providers");
                assert_eq!(
                    curve,
                    naive_coverage_curve(&ds, kind),
                    "seed {seed} {kind}: kernel diverges from the naive union"
                );
            }
        }
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
            let curve = coverage_curve(&ds, kind);
            assert!(!curve.is_empty(), "{kind}: no providers observed");
            for w in curve.windows(2) {
                assert!(w[1].coverage >= w[0].coverage, "{kind}: not monotone");
            }
            let last = curve.last().unwrap();
            assert!(
                (last.coverage - 1.0).abs() < 1e-9,
                "{kind}: last point covers all"
            );
        }
    }

    #[test]
    fn concentration_few_providers_cover_most() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        // 2020: concentrated markets everywhere.
        let dns = coverage_curve(&ds, ServiceKind::Dns);
        let dns80 = providers_for_coverage(&dns, 0.8);
        let cdn80 = providers_for_coverage(&coverage_curve(&ds, ServiceKind::Cdn), 0.8);
        let ca80 = providers_for_coverage(&coverage_curve(&ds, ServiceKind::Ca), 0.8);
        assert!(dns80 > 0 && cdn80 > 0 && ca80 > 0);
        assert!(ca80 <= 8, "CA market is the most concentrated: {ca80}");
        assert!(cdn80 <= 12, "CDN market: {cdn80}");
        let dns_total = dns.len();
        assert!(
            dns80 < dns_total / 2,
            "DNS: top providers dominate ({dns80}/{dns_total})"
        );
    }

    #[test]
    fn cloud_kind_is_empty() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        let curve = coverage_curve(&ds, ServiceKind::Cloud);
        assert!(curve.is_empty());
        assert_eq!(providers_for_coverage(&curve, 0.8), 0);
    }

    #[test]
    fn columnar_curve_matches_row_curve() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        let cds = ColumnarDataset::from_rows(&ds);
        for kind in [
            ServiceKind::Dns,
            ServiceKind::Cdn,
            ServiceKind::Ca,
            ServiceKind::Cloud,
        ] {
            assert_eq!(
                coverage_curve_columnar(&cds, kind),
                coverage_curve(&ds, kind),
                "{kind}: columnar curve diverges from rows"
            );
        }
    }
}
