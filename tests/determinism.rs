//! Determinism regression tests.
//!
//! The paired 2016/2020 snapshots, every experiment table, and the
//! `RESULTS_100K.txt` trajectory all assume that a given `(seed, scale)`
//! reproduces the identical world on every machine and in every future
//! PR. These tests pin the raw generator output and a checksum of a
//! small generated world so any change to the vendored PRNG, the
//! fork-derivation scheme, or the worldgen draw order fails loudly here
//! instead of silently perturbing published numbers.
//!
//! If a PR *intentionally* changes generation (new subsystem draws must
//! use fresh fork labels precisely so that this does not happen), the
//! constants below may be updated — but that is a results-breaking
//! change and must be called out in the PR description.

use webdeps::measure::classify::ClassifyCache;
use webdeps::measure::dns;
use webdeps::measure::pipeline::measure_world;
use webdeps::model::rng::stable_hash;
use webdeps::model::DetRng;
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};

/// First raw draws of the root stream for seed 42 (xoshiro256++ seeded
/// via SplitMix64). Pinned against the vendored implementation.
const ROOT_DRAWS_SEED_42: [u64; 4] = [
    0xd076_4d4f_4476_689f,
    0x519e_4174_576f_3791,
    0xfbe0_7cfb_0c24_ed8c,
    0xb37d_9f60_0cd8_35b8,
];

#[test]
fn pinned_root_draws() {
    let mut r = DetRng::new(42);
    let draws: [u64; 4] = std::array::from_fn(|_| r.next_u64());
    assert_eq!(draws, ROOT_DRAWS_SEED_42, "raw PRNG stream changed");
}

#[test]
fn pinned_fork_derivation() {
    // Labelled forks derive independent streams; these pins lock the
    // label-hashing scheme in addition to the raw generator.
    let mut f = DetRng::new(42).fork("dns");
    assert_eq!(
        f.next_u64(),
        0xb861_3673_bda1_2131,
        "fork(\"dns\") stream changed"
    );
    let mut fi = DetRng::new(42).fork_indexed("site", 7);
    assert_eq!(
        fi.next_u64(),
        0x94fb_3a24_fac7_cddb,
        "fork_indexed(\"site\", 7) stream changed"
    );
}

#[test]
fn pinned_unit_draw() {
    // `unit` maps the top 53 bits into [0, 1); pin it exactly — the
    // mapping is bit-deterministic, not approximate.
    assert_eq!(DetRng::new(42).unit(), 0.814_305_145_122_909_9_f64);
}

#[test]
fn pinned_world_checksums() {
    // A small world per snapshot year. Any perturbation of the worldgen
    // draw order, the dependency wiring, or the PRNG itself shows up as
    // a checksum mismatch on the paired 2016/2020 snapshots.
    let w2020 = World::generate(WorldConfig {
        seed: 42,
        n_sites: 200,
        year: SnapshotYear::Y2020,
    });
    assert_eq!(
        world_checksum(&w2020),
        0x1248_0360_c8ff_6243,
        "2020 snapshot world changed"
    );
    let w2016 = World::generate(WorldConfig {
        seed: 42,
        n_sites: 200,
        year: SnapshotYear::Y2016,
    });
    assert_eq!(
        world_checksum(&w2016),
        0x5693_ec3b_577c_d9b2,
        "2016 snapshot world changed"
    );
}

#[test]
fn pinned_row_measurement_digest() {
    // The full row dataset of a small world — every site's NS pairs,
    // entity groups, CDN and CA observations, plus the inter-service
    // provider measurements. Any change to the crawl, the classifiers,
    // the witness bookkeeping, or the order rows and providers come out
    // in shows up here, not only in the thread-count comparison of
    // `tests/parallel_determinism.rs`.
    let world = World::generate(WorldConfig::small(77));
    let digest = stable_hash(&format!("{:?}", measure_world(&world)));
    assert_eq!(
        digest, 0x10ff_c593_8360_501d,
        "row measurement dataset changed"
    );
}

#[test]
fn dataset_concentration_matches_fresh_observe_pass() {
    // The §3 validation reads nameserver concentration back from the
    // measured rows instead of re-digging every site, so the rows' NS
    // pairs must carry exactly what the observe pass counts.
    let world = World::generate(WorldConfig::small(99));
    let mut client = world.client();
    let observations: Vec<_> = world
        .listings()
        .iter()
        .map(|l| dns::observe_site(client.resolver_mut(), &l.domain))
        .collect();
    let fresh = dns::ns_concentration(&observations, &world.psl, &mut ClassifyCache::new());
    assert!(!fresh.is_empty(), "the world has nameservers to count");
    assert_eq!(
        dns::dataset_ns_concentration(&measure_world(&world), &world.psl),
        fresh,
        "concentration derived from the dataset diverges from the observe pass"
    );
}

/// Order-sensitive FNV-fold over the public listing of a world.
fn world_checksum(world: &World) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for l in world.listings() {
        let hosts: Vec<String> = l.document_hosts.iter().map(|h| h.to_string()).collect();
        let line = format!(
            "{}|{:?}|{}|{}|{}",
            l.id.index(),
            l.rank,
            l.domain,
            hosts.join(","),
            l.https
        );
        acc = acc.rotate_left(13) ^ stable_hash(&line);
    }
    acc
}
