//! Measurement result types.
//!
//! Everything in here is *inferred from the wire* — provider identities
//! are registrable domains of observed infrastructure (`dnsmadeeasy.com`,
//! `akamaiedge.net`), never catalog names, because the pipeline has no
//! access to ground truth.

use crate::classify::Classification;
use webdeps_model::{DomainName, Rank, SiteId};
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// Wire-inferred provider identity: the registrable domain of the
/// provider's observed infrastructure.
///
/// Backed by a shared string, so cloning a key (the per-site hot path
/// tallies keys into several maps) bumps a refcount instead of copying
/// the domain. The derived comparisons and hash all delegate to the
/// string content, so equal keys behave identically whether or not they
/// share an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderKey(std::sync::Arc<str>);

impl ProviderKey {
    /// Builds a key from a registrable domain.
    pub fn new(domain: impl Into<std::sync::Arc<str>>) -> Self {
        ProviderKey(domain.into())
    }

    /// The key as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ProviderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One nameserver pair observation.
#[derive(Debug, Clone)]
pub struct NsPair {
    /// The nameserver host.
    pub host: DomainName,
    /// Classification of the (site, nameserver) pair.
    pub class: Classification,
    /// Entity group the host was merged into (index into
    /// [`SiteDnsMeasurement::groups`]).
    pub group: usize,
}

/// One grouped nameserver entity for a site.
#[derive(Debug, Clone)]
pub struct NsGroup {
    /// Inferred identity (min registrable domain of members).
    pub key: ProviderKey,
    /// Combined classification of the group.
    pub class: Classification,
}

/// DNS measurement of one site (§3.1).
#[derive(Debug, Clone)]
pub struct SiteDnsMeasurement {
    /// Raw (site, nameserver) observations.
    pub pairs: Vec<NsPair>,
    /// Entity groups after TLD/SOA-MNAME/SOA-RNAME merging.
    pub groups: Vec<NsGroup>,
    /// Inferred dependency state; `None` when any pair stayed
    /// unclassified (the site is excluded, §3.1's 18%).
    pub state: Option<DepState>,
}

impl SiteDnsMeasurement {
    /// Third-party provider keys (distinct groups classified third).
    pub fn third_parties(&self) -> impl Iterator<Item = &ProviderKey> {
        self.groups
            .iter()
            .filter(|g| g.class == Classification::ThirdParty)
            .map(|g| &g.key)
    }

    /// Whether the site was successfully characterized.
    pub fn characterized(&self) -> bool {
        self.state.is_some()
    }
}

/// CDN measurement of one site (§3.3).
#[derive(Debug, Clone, Default)]
pub struct SiteCdnMeasurement {
    /// Distinct CDNs detected on internal resources, with per-CDN
    /// classification.
    pub cdns: Vec<(ProviderKey, Classification)>,
    /// Inferred dependency state; `None` when the site uses a CDN that
    /// could not be classified.
    pub state: Option<CdnProfile>,
}

impl SiteCdnMeasurement {
    /// Whether any CDN was detected.
    pub fn uses_cdn(&self) -> bool {
        !self.cdns.is_empty()
    }

    /// Third-party CDN keys.
    pub fn third_parties(&self) -> impl Iterator<Item = &ProviderKey> {
        self.cdns
            .iter()
            .filter(|(_, c)| *c == Classification::ThirdParty)
            .map(|(k, _)| k)
    }
}

/// CA measurement of one site (§3.2).
#[derive(Debug, Clone, Default)]
pub struct SiteCaMeasurement {
    /// Whether the site answered on HTTPS.
    pub https: bool,
    /// OCSP responder hosts from the certificate.
    pub ocsp_hosts: Vec<DomainName>,
    /// CRL distribution hosts from the certificate.
    pub crl_hosts: Vec<DomainName>,
    /// Inferred CA identity + classification.
    pub ca: Option<(ProviderKey, Classification)>,
    /// Whether a stapled OCSP response was presented.
    pub stapled: bool,
    /// Inferred dependency state.
    pub state: Option<CaProfile>,
}

impl SiteCaMeasurement {
    /// The CA's key, if it was classified third-party.
    pub fn third_party(&self) -> Option<&ProviderKey> {
        match &self.ca {
            Some((key, Classification::ThirdParty)) => Some(key),
            _ => None,
        }
    }
}

/// Everything measured about one site.
#[derive(Debug, Clone)]
pub struct SiteMeasurement {
    /// Site identifier (position in the input list).
    pub id: SiteId,
    /// Popularity rank from the input list.
    pub rank: Rank,
    /// Registrable domain.
    pub domain: DomainName,
    /// Whether the landing page was reachable at crawl time.
    pub reachable: bool,
    /// DNS results.
    pub dns: SiteDnsMeasurement,
    /// CDN results.
    pub cdn: SiteCdnMeasurement,
    /// CA results.
    pub ca: SiteCaMeasurement,
}

/// The complete output of a pipeline run over one snapshot.
#[derive(Debug, Clone)]
pub struct MeasurementDataset {
    /// Per-site measurements, ordered by rank.
    pub sites: Vec<SiteMeasurement>,
    /// Provider-level inter-service measurements (§3.4).
    pub providers: Vec<crate::interservice::ProviderMeasurement>,
    /// Concentration threshold used by the combined heuristic.
    pub threshold: usize,
}

impl MeasurementDataset {
    /// Sites characterized for DNS analysis (Table 1 row 1).
    pub fn dns_characterized(&self) -> impl Iterator<Item = &SiteMeasurement> {
        self.sites.iter().filter(|s| s.dns.characterized())
    }

    /// Sites using CDNs (Table 1 row 2).
    pub fn cdn_users(&self) -> impl Iterator<Item = &SiteMeasurement> {
        self.sites.iter().filter(|s| s.cdn.uses_cdn())
    }

    /// Sites supporting HTTPS (Table 1 row 4).
    pub fn https_sites(&self) -> impl Iterator<Item = &SiteMeasurement> {
        self.sites.iter().filter(|s| s.ca.https)
    }

    /// Provider-level measurement lookup.
    pub fn provider(
        &self,
        key: &ProviderKey,
        kind: webdeps_model::ServiceKind,
    ) -> Option<&crate::interservice::ProviderMeasurement> {
        self.providers
            .iter()
            .find(|p| &p.key == key && p.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_key_display() {
        let k = ProviderKey::new("dnsmadeeasy.com");
        assert_eq!(k.to_string(), "dnsmadeeasy.com");
        assert_eq!(k.as_str(), "dnsmadeeasy.com");
    }

    #[test]
    fn dns_measurement_helpers() {
        let m = SiteDnsMeasurement {
            pairs: vec![],
            groups: vec![
                NsGroup {
                    key: ProviderKey::new("dyn.com"),
                    class: Classification::ThirdParty,
                },
                NsGroup {
                    key: ProviderKey::new("self.com"),
                    class: Classification::Private,
                },
            ],
            state: Some(DepState::PrivatePlusThird),
        };
        assert!(m.characterized());
        assert_eq!(m.third_parties().count(), 1);
    }

    #[test]
    fn cdn_measurement_helpers() {
        let mut m = SiteCdnMeasurement::default();
        assert!(!m.uses_cdn());
        m.cdns.push((
            ProviderKey::new("akamaiedge.net"),
            Classification::ThirdParty,
        ));
        m.cdns
            .push((ProviderKey::new("own-cdn.net"), Classification::Private));
        assert!(m.uses_cdn());
        assert_eq!(m.third_parties().count(), 1);
    }
}
