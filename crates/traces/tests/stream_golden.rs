//! Golden stream digests: the first 50,000 requests of every kernel family,
//! at two seeds, hashed to one 64-bit value that is pinned below.
//!
//! `stream_equivalence.rs` compares each source with its own
//! `materialize()`, so a sampler change that alters *every* draw the same
//! way passes it. These digests do not move with the code: they were
//! recorded once, and any change to a seeded stream — a different word
//! consumed, a different rejection, a different table slot — changes them.
//! Each stream is drawn twice, through `next_request` and through `fill` in
//! chunks of 1,000, and both must reproduce the pinned value.

use dcn_topology::Pair;
use dcn_traces::{
    facebook_cluster_source, hotspot_source, matrix_source, microsoft_source, permutation_source,
    sequence_source, star_round_robin_source, star_uniform_source, uniform_source,
    zipf_pair_source, DemandMatrix, FacebookCluster, Genome, MatrixSequence, MicrosoftParams,
    RequestSource, Segment,
};

/// Requests hashed per stream.
const PREFIX: usize = 50_000;
/// Chunk size of the `fill` pass.
const CHUNK: usize = 1_000;
/// The two seeds every family is pinned at.
const SEEDS: [u64; 2] = [11, 0xC0FF_EE00_D15E_A5E5];

/// FNV-1a over each request's endpoints as little-endian `u32`s.
fn absorb(hash: &mut u64, p: Pair) {
    for word in [p.lo(), p.hi()] {
        for byte in word.to_le_bytes() {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn digest_next_request(source: &mut dyn RequestSource) -> u64 {
    let mut hash = FNV_OFFSET;
    for i in 0..PREFIX {
        let p = source
            .next_request()
            .unwrap_or_else(|| panic!("stream ended at {i}"));
        absorb(&mut hash, p);
    }
    hash
}

fn digest_fill(source: &mut dyn RequestSource) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut buf = vec![Pair::new(0, 1); CHUNK];
    for chunk in 0..PREFIX / CHUNK {
        assert_eq!(source.fill(&mut buf), CHUNK, "short fill at chunk {chunk}");
        for &p in &buf {
            absorb(&mut hash, p);
        }
    }
    hash
}

/// Checks `build(seed)`'s digest against `golden[k]` for `SEEDS[k]`, once
/// per draw path. A failure lists every digest the family produced.
fn check(family: &str, build: impl Fn(u64) -> Box<dyn RequestSource>, golden: [u64; 2]) {
    let by_request = SEEDS.map(|seed| digest_next_request(&mut *build(seed)));
    let by_fill = SEEDS.map(|seed| digest_fill(&mut *build(seed)));
    let shown = |d: [u64; 2]| format!("[{:#018x}, {:#018x}]", d[0], d[1]);
    assert_eq!(
        by_request,
        golden,
        "{family}: next_request digests {}",
        shown(by_request)
    );
    assert_eq!(by_fill, golden, "{family}: fill digests {}", shown(by_fill));
}

fn genome(segment: Segment) -> Box<dyn RequestSource> {
    Box::new(Genome::new(24, vec![segment]).source())
}

#[test]
fn uniform() {
    check(
        "uniform",
        |seed| Box::new(uniform_source(37, PREFIX, seed)),
        [0xa7a1_1c18_7ddf_d217, 0x76e8_6af0_8c5d_6afe],
    );
}

#[test]
fn permutation() {
    check(
        "permutation",
        |seed| Box::new(permutation_source(64, PREFIX, seed)),
        [0x2f43_38ee_beb9_4c43, 0x91b4_3524_46a3_6893],
    );
}

#[test]
fn hotspot() {
    check(
        "hotspot",
        |seed| Box::new(hotspot_source(50, PREFIX, 5, 0.8, seed)),
        [0x3963_602c_4bb1_2f56, 0x51dc_22b2_6a2f_c072],
    );
}

#[test]
fn zipf() {
    check(
        "zipf",
        |seed| Box::new(zipf_pair_source(100, PREFIX, 1.2, seed)),
        [0x294c_be2c_8323_e157, 0xb77f_b573_f7d3_c892],
    );
}

#[test]
fn facebook_database() {
    check(
        "facebook-database",
        |seed| {
            Box::new(facebook_cluster_source(
                FacebookCluster::Database,
                100,
                PREFIX,
                seed,
            ))
        },
        [0x20d1_afe6_da9f_7b2f, 0x7cb8_925d_d061_2b65],
    );
}

#[test]
fn facebook_web_service() {
    check(
        "facebook-webservice",
        |seed| {
            Box::new(facebook_cluster_source(
                FacebookCluster::WebService,
                100,
                PREFIX,
                seed,
            ))
        },
        [0x1f61_d52f_c365_b7e1, 0x2604_810d_c52b_e9f1],
    );
}

#[test]
fn facebook_hadoop() {
    // 50,000 requests span five 12,000-request shuffle phases.
    check(
        "facebook-hadoop",
        |seed| {
            Box::new(facebook_cluster_source(
                FacebookCluster::Hadoop,
                100,
                PREFIX,
                seed,
            ))
        },
        [0xe317_2cfd_934b_7d01, 0xce20_9cd1_174b_97c7],
    );
}

#[test]
fn microsoft() {
    check(
        "microsoft",
        |seed| {
            Box::new(microsoft_source(
                40,
                PREFIX,
                MicrosoftParams::default(),
                seed,
            ))
        },
        [0x7542_f2df_5b88_51f0, 0x52eb_d4b3_15cf_3d11],
    );
}

#[test]
fn matrix() {
    check(
        "matrix",
        |seed| {
            Box::new(matrix_source(
                &DemandMatrix::zipf_pairs(30, 1.2, seed ^ 3),
                PREFIX,
                seed,
            ))
        },
        [0xb66c_60cd_d9d5_6df0, 0x11bd_3d04_3c38_3883],
    );
}

#[test]
fn sequence() {
    check(
        "sequence",
        |seed| {
            Box::new(sequence_source(
                &MatrixSequence::zipf_switching(20, 5, PREFIX / 5, 1.1, seed ^ 4),
                seed,
            ))
        },
        [0xb9e4_6d32_d75c_82c3, 0x747a_bc35_36ab_425a],
    );
}

#[test]
fn star_uniform() {
    check(
        "star-uniform",
        |seed| Box::new(star_uniform_source(13, 10, PREFIX / 10, seed)),
        [0x4d2e_d525_d8e9_1c05, 0x23ce_4b0d_3030_25c5],
    );
}

#[test]
fn star_round_robin() {
    // Seedless: both seeds pin the same stream.
    check(
        "star-round-robin",
        |_| Box::new(star_round_robin_source(13, 10, PREFIX / 10)),
        [0x1988_cd76_21a0_52a5, 0x1988_cd76_21a0_52a5],
    );
}

#[test]
fn genome_uniform() {
    check(
        "genome-uniform",
        |seed| genome(Segment::Uniform { len: PREFIX, seed }),
        [0x0d89_e547_9a44_6db3, 0x1da8_de82_07c4_9064],
    );
}

#[test]
fn genome_hotspot() {
    check(
        "genome-hotspot",
        |seed| {
            genome(Segment::Hotspot {
                len: PREFIX,
                num_hot: 5,
                p_hot: 0.85,
                offset: 21,
                seed,
            })
        },
        [0xf70d_554a_ae4e_e47a, 0x3d76_0fde_f59f_c5bb],
    );
}

#[test]
fn genome_permutation() {
    check(
        "genome-permutation",
        |seed| genome(Segment::Permutation { len: PREFIX, seed }),
        [0x3df1_0c99_c8b5_460e, 0x2560_4b9c_1743_b8f0],
    );
}

#[test]
fn genome_star_blocks() {
    check(
        "genome-star-blocks",
        |seed| {
            genome(Segment::StarBlocks {
                spokes: 9,
                block_len: 25,
                blocks: PREFIX / 25,
                seed,
            })
        },
        [0x9485_57ea_8cac_d72d, 0x9df4_f681_69bd_f601],
    );
}

#[test]
fn genome_zipf_ramp() {
    check(
        "genome-zipf-ramp",
        |seed| {
            genome(Segment::ZipfRamp {
                len: PREFIX,
                s_start: 0.3,
                s_end: 2.0,
                seed,
            })
        },
        [0xf7ca_de11_dec7_c4dc, 0x40be_82d7_7286_94b3],
    );
}
