//! The end-to-end measurement pipeline.
//!
//! Drives the full §3 methodology over a generated world: crawl → DNS →
//! CA → CDN → inter-service. Both producers — the row
//! [`MeasurementDataset`] of [`measure_world`] and the columnar
//! [`ColumnarDataset`] of [`measure_world_columnar`] — run one sharded
//! kernel and differ only in how a shard stores a classified site.
//! The pipeline reads only the world's *wire surfaces* (DNS network,
//! web plane, PKI, CNAME-to-CDN map, public-suffix list, site list);
//! ground truth never flows in.

use crate::classify::ClassifyCache;
use crate::columnar::ColumnarDataset;
use crate::dataset::{
    MeasurementDataset, ProviderKey, SiteCaMeasurement, SiteCdnMeasurement, SiteDnsMeasurement,
    SiteMeasurement,
};
use crate::interservice::{self, ProviderMeasurement};
use crate::{ca, cdn, dns};
use std::collections::HashMap;
use webdeps_model::{fan_out_chunked, timing, DomainName, PublicSuffixList};
use webdeps_web::{CrawlReport, Crawler, WebClient};
use webdeps_worldgen::{SiteListing, World};

/// Distinct-name bound on every crawl-path resolver cache.
///
/// Site-specific names (the site apex, its `www`/asset hosts, its
/// nameservers) are each queried while that one site is measured and
/// never again, so an unbounded cache grows by a handful of names per
/// site — at a million sites, gigabytes of dead entries whose probes
/// all miss DRAM and whose table rehashes copy the lot. Clearing at
/// the bound keeps the table cache-sized; the shared provider names
/// that actually repeat re-warm within a few sites of each epoch.
/// Results are unchanged: the world, fault plan, and clock are static
/// for the duration of a measurement pass, so re-resolving an evicted
/// name reproduces the evicted answer exactly (pinned by the
/// determinism digests and the row-vs-columnar equality test).
const RESOLVER_CACHE_BOUND: usize = 1 << 16;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Concentration threshold for the combined heuristic (50 at the
    /// paper's 100K scale; scaled for smaller worlds).
    pub threshold: usize,
    /// Optional cap on the number of sites measured (test runs).
    pub max_sites: Option<usize>,
    /// Worker threads for the observe and crawl/classify passes,
    /// resolved through the workspace-wide knob
    /// ([`webdeps_model::par::resolve_jobs`]): `0` = auto
    /// (`WEBDEPS_JOBS` env override, else detected parallelism capped
    /// at [`webdeps_model::par::MAX_AUTO_JOBS`]). Each worker runs its
    /// own client (own DNS + OCSP caches), so results are identical at
    /// any thread count.
    pub threads: usize,
}

impl MeasureConfig {
    /// The configuration matching a world's scale: threshold scaled to
    /// the population, crawl parallelism left on the shared auto knob.
    pub fn for_world(world: &World) -> Self {
        MeasureConfig {
            threshold: world.config.concentration_threshold(),
            max_sites: None,
            threads: 0,
        }
    }
}

/// Runs the complete pipeline with the world-default configuration.
pub fn measure_world(world: &World) -> MeasurementDataset {
    measure_world_with(world, MeasureConfig::for_world(world))
}

/// Runs the complete pipeline into row [`SiteMeasurement`]s — every
/// site's NS pairs, entity groups, CDN and CA observations.
///
/// Two passes over the site list, both sharded on the deterministic
/// fan-out with one client per worker:
///
/// 1. **Observe pass** — DNS observation only; per-shard nameserver
///    tallies merge by summation (order-independent).
/// 2. **Crawl/classify pass** — crawl + classify each site *inside its
///    shard* against the global concentration map.
///
/// Shards then merge in shard (= site) order and the §3.4
/// inter-service stage runs over the observed providers, so the
/// dataset is identical at any worker count.
pub fn measure_world_with(world: &World, config: MeasureConfig) -> MeasurementDataset {
    let (sites, providers) = measure_sharded(world, config, |shards: Vec<Vec<SiteMeasurement>>| {
        // Later shards append to the first, whose buffer can grow in place.
        let mut shards = shards.into_iter();
        let mut sites = shards.next().unwrap_or_default();
        for shard in shards {
            sites.extend(shard);
        }
        sites
    });
    MeasurementDataset {
        sites,
        providers,
        threshold: config.threshold,
    }
}

/// Runs the streaming columnar pipeline with the world-default
/// configuration. See [`measure_world_columnar_with`].
pub fn measure_world_columnar(world: &World) -> ColumnarDataset {
    measure_world_columnar_with(world, MeasureConfig::for_world(world))
}

/// Runs the complete pipeline straight into columnar arenas, never
/// materializing a row [`MeasurementDataset`] — the 1M-site entry
/// point.
///
/// The passes are [`measure_world_with`]'s, run by the same kernel;
/// only the storage differs. Each shard stores its sites in a
/// [`ColumnarDataset`] of its own, and serial assembly appends the
/// shards in shard (= site) order, remapping each shard's names into
/// the global arena. The result equals
/// `ColumnarDataset::from_rows(&measure_world_with(world, config))` —
/// pinned by `tests/parallel_determinism.rs` — at any worker count.
pub fn measure_world_columnar_with(world: &World, config: MeasureConfig) -> ColumnarDataset {
    let (mut out, providers) = measure_sharded(world, config, |shards| {
        ColumnarDataset::from_shards(shards, config.threshold)
    });
    for pm in &providers {
        out.push_provider(pm);
    }
    out
}

/// How a producer stores one classified site inside its shard — the
/// only step in which the row and columnar producers differ.
trait SiteSink: Send {
    /// An empty store for a shard of `n` sites.
    fn for_shard(n: usize) -> Self;

    /// Appends one site's classification, in site order.
    fn push_site(
        &mut self,
        listing: &SiteListing,
        reachable: bool,
        dns: SiteDnsMeasurement,
        cdn: SiteCdnMeasurement,
        ca: SiteCaMeasurement,
    );
}

impl SiteSink for Vec<SiteMeasurement> {
    fn for_shard(n: usize) -> Self {
        Vec::with_capacity(n)
    }

    fn push_site(
        &mut self,
        listing: &SiteListing,
        reachable: bool,
        dns: SiteDnsMeasurement,
        cdn: SiteCdnMeasurement,
        ca: SiteCaMeasurement,
    ) {
        self.push(SiteMeasurement {
            id: listing.id,
            rank: listing.rank,
            domain: listing.domain.clone(),
            reachable,
            dns,
            cdn,
            ca,
        });
    }
}

/// A columnar shard keys its sites by a shard-local name arena; only
/// the third-party provider identities and the three states survive,
/// no [`SiteMeasurement`] is ever kept.
impl SiteSink for ColumnarDataset {
    fn for_shard(n: usize) -> Self {
        ColumnarDataset::with_capacity(n, 0)
    }

    fn push_site(
        &mut self,
        listing: &SiteListing,
        _reachable: bool,
        dns: SiteDnsMeasurement,
        cdn: SiteCdnMeasurement,
        ca: SiteCaMeasurement,
    ) {
        self.push_measured(listing.id, &dns, &cdn, &ca);
    }
}

/// The per-provider bookkeeping the §3.4 inter-service stage needs: a
/// witness per observed CDN and CA, and every provider's site count.
#[derive(Default)]
struct Witnesses {
    /// CDN → (first chain host under it, sites using it).
    cdn_reps: HashMap<ProviderKey, (DomainName, usize)>,
    /// CA → (OCSP hosts of its first site, sites using it).
    ca_reps: HashMap<ProviderKey, (Vec<DomainName>, usize)>,
    /// Third-party DNS provider → sites using it.
    dns_direct: HashMap<ProviderKey, usize>,
}

impl Witnesses {
    /// Records one classified site; the first site to show a provider
    /// supplies its witness.
    fn record(
        &mut self,
        report: &CrawlReport,
        dns_m: &SiteDnsMeasurement,
        cdn_m: &SiteCdnMeasurement,
        ca_m: &SiteCaMeasurement,
        cache: &mut ClassifyCache,
        psl: &PublicSuffixList,
    ) {
        for key in dns_m.third_parties() {
            *self.dns_direct.entry(key.clone()).or_default() += 1;
        }
        // Witness host: the first chain host under each detected CDN
        // (the hostname list is built once per site, not once per CDN).
        let hosts = if cdn_m.cdns.is_empty() {
            Vec::new()
        } else {
            report.hostnames()
        };
        for (key, _) in &cdn_m.cdns {
            let witness = hosts
                .iter()
                .filter_map(|h| report.chain_of(h))
                .flat_map(|chain| chain.iter())
                .find(|c| cache.registrable_str(c, psl) == Some(key.as_str()));
            if let Some(w) = witness {
                let entry = self
                    .cdn_reps
                    .entry(key.clone())
                    .or_insert_with(|| (w.clone(), 0));
                entry.1 += 1;
            }
        }
        if let Some((key, _)) = &ca_m.ca {
            let entry = self
                .ca_reps
                .entry(key.clone())
                .or_insert_with(|| (ca_m.ocsp_hosts.clone(), 0));
            entry.1 += 1;
        }
    }

    /// Folds in the witnesses of a *later* shard: witnesses already
    /// recorded win, counts sum — what one serial walk would record.
    fn merge(&mut self, later: Witnesses) {
        // lint:allow(hash-iter) — a key occurs once per shard and shards
        // merge in shard order, so neither the surviving witness nor any
        // summed count depends on the map's iteration order.
        for (key, (witness, n)) in later.cdn_reps {
            self.cdn_reps.entry(key).or_insert((witness, 0)).1 += n;
        }
        // lint:allow(hash-iter) — one entry per key per shard, merged in
        // shard order (see above).
        for (key, (hosts, n)) in later.ca_reps {
            self.ca_reps.entry(key).or_insert((hosts, 0)).1 += n;
        }
        // lint:allow(hash-iter) — counts merge by summation, which is
        // order-independent.
        for (key, n) in later.dns_direct {
            *self.dns_direct.entry(key).or_default() += n;
        }
    }
}

/// A crawl-path client whose resolver cache is bounded.
fn bounded_client(world: &World) -> WebClient<'_> {
    let mut client = world.client();
    client.resolver_mut().bound_cache(RESOLVER_CACHE_BOUND);
    client
}

/// The one measurement kernel behind both producers.
///
/// 1. **Observe** every site's NS set and SOAs; nameserver concentration
///    is tallied per shard and summed.
/// 2. **Crawl and classify** every site inside its shard against the
///    global concentration map, storing it through `S` and recording
///    provider witnesses.
/// 3. **Assemble** in shard (= site) order: `assemble` joins the
///    shards' sites; witnesses merge first-wins, counts sum.
/// 4. Measure the observed providers' inter-service dependencies.
///
/// Every pass shards on the deterministic fan-out with one client per
/// worker, so the output is identical at any worker count.
fn measure_sharded<S: SiteSink, D>(
    world: &World,
    config: MeasureConfig,
    assemble: impl FnOnce(Vec<S>) -> D,
) -> (D, Vec<ProviderMeasurement>) {
    let psl = &world.psl;
    let mut listings = world.listings();
    if let Some(cap) = config.max_sites {
        listings.truncate(cap);
    }

    // Pass 1. Observations are kept: pass 2 classifies against them
    // instead of re-digging every site.
    let observe_scope = timing::scope("measure/observe");
    let partials = fan_out_chunked(&listings, config.threads, |shard| {
        let mut client = bounded_client(world);
        let observations: Vec<Option<dns::DnsObservation>> = shard
            .iter()
            .map(|l| dns::observe_site(client.resolver_mut(), &l.domain))
            .collect();
        let counts = dns::ns_concentration(&observations, psl, &mut ClassifyCache::new());
        vec![(observations, counts)]
    });
    let mut concentration: HashMap<DomainName, usize> = HashMap::new();
    let mut observations: Vec<Option<dns::DnsObservation>> = Vec::with_capacity(listings.len());
    for (obs, partial) in partials {
        observations.extend(obs);
        for (host, n) in partial {
            *concentration.entry(host).or_default() += n;
        }
    }
    drop(observe_scope);

    // Pass 2. Listings and their pass-1 observations shard together, so
    // chunk boundaries stay aligned with pass 1 at any worker count.
    let classify_scope = timing::scope("measure/classify");
    let items: Vec<(SiteListing, Option<dns::DnsObservation>)> =
        listings.into_iter().zip(observations).collect();
    let shards = fan_out_chunked(&items, config.threads, |shard| {
        let mut client = bounded_client(world);
        let mut cache = ClassifyCache::new();
        let mut sites = S::for_shard(shard.len());
        let mut witnesses = Witnesses::default();
        for (listing, obs) in shard {
            let report = Crawler::crawl(
                &mut client,
                &listing.domain,
                &listing.document_hosts,
                listing.https,
            );
            let san = report.certificate.as_ref().map(|c| c.san.as_slice());
            let dns_m = match obs {
                Some(obs) => dns::classify_site(
                    obs,
                    san,
                    &concentration,
                    config.threshold,
                    psl,
                    dns::GroupingStrategy::TldAndSoa,
                    &mut cache,
                ),
                None => SiteDnsMeasurement {
                    pairs: Vec::new(),
                    groups: Vec::new(),
                    state: None,
                },
            };
            let resolver = client.resolver_mut();
            let ca_m = ca::classify_site(&report, resolver, psl, &mut cache);
            let cdn_m = cdn::classify_site(&report, &world.cname_map, resolver, psl, &mut cache);
            witnesses.record(&report, &dns_m, &cdn_m, &ca_m, &mut cache, psl);
            sites.push_site(listing, report.reachable(), dns_m, cdn_m, ca_m);
        }
        vec![(sites, witnesses)]
    });
    drop(classify_scope);
    drop(items);

    let assemble_scope = timing::scope("measure/assemble");
    let mut witnesses = Witnesses::default();
    let mut site_shards = Vec::with_capacity(shards.len());
    for (sites, shard_witnesses) in shards {
        witnesses.merge(shard_witnesses);
        site_shards.push(sites);
    }
    let dataset = assemble(site_shards);
    drop(assemble_scope);

    let _interservice_scope = timing::scope("measure/interservice");
    let providers = interservice::measure_providers(
        bounded_client(world).resolver_mut(),
        &witnesses.cdn_reps,
        &witnesses.ca_reps,
        &witnesses.dns_direct,
        &concentration,
        config.threshold,
        &world.cname_map,
        psl,
    );
    (dataset, providers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classification;
    use webdeps_model::ServiceKind;
    use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};
    use webdeps_worldgen::WorldConfig;

    fn dataset() -> (World, MeasurementDataset) {
        let world = World::generate(WorldConfig::small(77));
        let ds = measure_world(&world);
        (world, ds)
    }

    #[test]
    fn pipeline_measures_every_site() {
        let (world, ds) = dataset();
        assert_eq!(ds.sites.len(), world.truth.len());
        assert!(
            ds.sites.iter().all(|s| s.reachable),
            "healthy world: all reachable"
        );
    }

    #[test]
    fn dns_states_match_ground_truth_when_characterized() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut wrong = Vec::new();
        let mut characterized = 0usize;
        for s in &ds.sites {
            let truth = world.site(s.id);
            if let Some(state) = s.dns.state {
                characterized += 1;
                if state == truth.dns.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain.clone(), state, truth.dns.state));
                }
            }
        }
        let accuracy = correct as f64 / characterized as f64;
        assert!(accuracy > 0.995, "accuracy {accuracy}, examples: {wrong:?}");
        // Micro-tail providers leave some sites uncharacterized. At the
        // paper's 100K scale this is ~15-18%; a 2K world is dominated by
        // the top bands where the micro tail is thin.
        let unchar = ds.sites.len() - characterized;
        let rate = unchar as f64 / ds.sites.len() as f64;
        assert!((0.01..=0.30).contains(&rate), "uncharacterized {rate}");
    }

    #[test]
    fn cdn_states_match_ground_truth() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut wrong = Vec::new();
        for s in &ds.sites {
            let truth = world.site(s.id);
            // CDN detection needs CNAME visibility; compare whenever the
            // pipeline produced a state.
            if let Some(state) = s.cdn.state {
                total += 1;
                if state == truth.cdn.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain.clone(), state, truth.cdn.state));
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.97, "accuracy {accuracy}, examples: {wrong:?}");
    }

    #[test]
    fn ca_states_match_ground_truth() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut wrong = Vec::new();
        for s in &ds.sites {
            let truth = world.site(s.id);
            if let Some(state) = s.ca.state {
                total += 1;
                if state == truth.ca.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain.clone(), state, truth.ca.state));
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.99, "accuracy {accuracy}, examples: {wrong:?}");
        assert_eq!(
            ds.https_sites().count(),
            world.truth.sites.iter().filter(|s| s.https()).count()
        );
    }

    #[test]
    fn provider_measurements_cover_observed_cdns_and_cas() {
        let (_, ds) = dataset();
        let cdns: Vec<_> = ds
            .providers
            .iter()
            .filter(|p| p.kind == ServiceKind::Cdn)
            .collect();
        let cas: Vec<_> = ds
            .providers
            .iter()
            .filter(|p| p.kind == ServiceKind::Ca)
            .collect();
        assert!(cdns.len() >= 10, "observed CDNs: {}", cdns.len());
        assert!(cas.len() >= 8, "observed CAs: {}", cas.len());
        // The DigiCert→DNSMadeEasy and →Incapsula wiring must surface.
        let digicert = ds
            .provider(&ProviderKey::new("digicert.com"), ServiceKind::Ca)
            .expect("DigiCert observed");
        let dns_dep = digicert.dns_dep.as_ref().expect("characterized");
        assert!(dns_dep.critical);
        assert_eq!(dns_dep.providers[0].as_str(), "dnsmadeeasy.com");
        let cdn_dep = digicert.cdn_dep.as_ref().expect("rides a CDN");
        assert_eq!(cdn_dep.providers[0].as_str(), "incapdns.net");
    }

    #[test]
    fn stapling_rate_is_in_the_calibrated_band() {
        let (_, ds) = dataset();
        let https: Vec<_> = ds.https_sites().collect();
        let stapled = https.iter().filter(|s| s.ca.stapled).count();
        let rate = stapled as f64 / https.len() as f64;
        assert!((0.10..=0.28).contains(&rate), "stapling {rate}");
    }

    #[test]
    fn third_party_dns_rate_matches_figure2_band() {
        use webdeps_worldgen::profiles::{cumulative_to_density, density_to_cumulative, DNS_2020};
        let (world, ds) = dataset();
        let n = world.config.n_sites;
        // Scale-aware expectations from the calibrated marginals.
        let want_third = density_to_cumulative(cumulative_to_density(DNS_2020.third), n, n);
        let want_critical = density_to_cumulative(cumulative_to_density(DNS_2020.critical), n, n);
        // Measured rates are over *characterized* sites; uncharacterized
        // sites are all third-party micro-tail users, so compare against
        // the whole population including them as third.
        let characterized = ds.dns_characterized().count();
        let third_measured = ds
            .sites
            .iter()
            .filter(|s| s.dns.state.is_some_and(|st| st.uses_third_party()))
            .count();
        let unchar = ds.sites.len() - characterized;
        let rate = 100.0 * (third_measured + unchar) as f64 / ds.sites.len() as f64;
        assert!(
            (rate - want_third).abs() < 4.0,
            "third {rate} vs calibrated {want_third}"
        );
        let critical = ds
            .sites
            .iter()
            .filter(|s| s.dns.state.is_some_and(|st| st == DepState::SingleThird))
            .count();
        let crate_ = 100.0 * (critical + unchar) as f64 / ds.sites.len() as f64;
        assert!(
            (crate_ - want_critical).abs() < 4.0,
            "critical {crate_} vs calibrated {want_critical}"
        );
    }

    #[test]
    fn measured_cdn_usage_matches_figure3_band() {
        use webdeps_worldgen::profiles::{cumulative_to_density, density_to_cumulative, CDN_2020};
        let (world, ds) = dataset();
        let n = world.config.n_sites;
        let want_adoption = density_to_cumulative(cumulative_to_density(CDN_2020.adoption), n, n);
        let users = ds.cdn_users().count();
        let rate = 100.0 * users as f64 / ds.sites.len() as f64;
        assert!(
            (rate - want_adoption).abs() < 4.0,
            "adoption {rate} vs {want_adoption}"
        );
        let critical = ds
            .sites
            .iter()
            .filter(|s| s.cdn.state == Some(CdnProfile::SingleThird))
            .count();
        let crate_ = critical as f64 / users as f64;
        // Small worlds skew toward the top bands where redundancy is
        // common; accept a broad band around the calibrated shape.
        assert!(
            (0.40..=0.95).contains(&crate_),
            "critical of users {crate_}"
        );
    }

    #[test]
    fn max_sites_cap_limits_work() {
        let world = World::generate(WorldConfig::small(78));
        let ds = measure_world_with(
            &world,
            MeasureConfig {
                threshold: 3,
                max_sites: Some(50),
                threads: 1,
            },
        );
        assert_eq!(ds.sites.len(), 50);
    }

    #[test]
    fn streamed_columnar_equals_rows_at_any_thread_count() {
        let world = World::generate(WorldConfig::small(79));
        let config = |threads: usize| MeasureConfig {
            threshold: 3,
            max_sites: Some(300),
            threads,
        };
        let rows = ColumnarDataset::from_rows(&measure_world_with(&world, config(1)));
        for threads in [1usize, 2, 8] {
            let streamed = measure_world_columnar_with(&world, config(threads));
            assert_eq!(
                streamed, rows,
                "streamed columnar dataset diverged from rows at threads={threads}"
            );
        }
    }

    #[test]
    fn unknown_classifications_exist_but_are_excluded() {
        let (_, ds) = dataset();
        let unknown_pairs = ds
            .sites
            .iter()
            .flat_map(|s| s.dns.pairs.iter())
            .filter(|p| p.class == Classification::Unknown)
            .count();
        assert!(unknown_pairs > 0, "micro-tail providers must stay unknown");
        for s in &ds.sites {
            if s.dns
                .pairs
                .iter()
                .any(|p| p.class == Classification::Unknown)
            {
                assert!(
                    s.dns
                        .groups
                        .iter()
                        .any(|g| g.class == Classification::Unknown)
                        || s.dns.state.is_none()
                        || s.dns
                            .groups
                            .iter()
                            .all(|g| g.class != Classification::Unknown),
                    "unknown pairs either merge into known groups or exclude the site"
                );
            }
        }
        // And CA states reflect HTTPS-ness.
        for s in &ds.sites {
            if !s.ca.https {
                assert_eq!(s.ca.state, Some(CaProfile::NoHttps));
            }
        }
    }
}
