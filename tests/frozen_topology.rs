//! Frozen topologies: every counter's id, parent, children, processors,
//! fan-in, path length and ring, and every processor's home, for each
//! constructor over a fixed grid, for `prune`/`prune_shape` under one
//! live mask, and one Graphviz rendering before and after a migration.
//! Small trees are pinned as text; the p = 4096 trees at all twelve
//! degrees of `default_degree_sweep` are pinned by a 64-bit FNV-1a
//! digest of the same text. A change to any id, or to the order of any
//! child or processor list, shows here before any golden does.

use combar_topo::{default_degree_sweep, Placement, Topology};
use std::fmt::Write as _;

/// One line per counter, then the homes.
fn describe(topo: &Topology) -> String {
    let mut s = format!(
        "{:?} degree {} procs {} root {} depth {}\n",
        topo.kind(),
        topo.degree(),
        topo.num_procs(),
        topo.root(),
        topo.depth()
    );
    for n in topo.nodes() {
        let _ = writeln!(
            s,
            "c{} parent {:?} children {:?} procs {:?} fan-in {} path {} ring {:?}",
            n.id,
            n.parent,
            n.children,
            n.procs,
            n.fan_in(),
            n.path_len,
            n.ring
        );
    }
    let _ = writeln!(s, "homes {:?}", topo.homes());
    s
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(topo: &Topology) -> u64 {
    fnv1a(&describe(topo))
}

#[test]
fn p1_and_unfull_p5_trees_are_frozen() {
    let got: String = [
        Topology::flat(1),
        Topology::combining(1, 2),
        Topology::mcs(1, 2),
        Topology::ring_mcs(1, 2, 32),
        Topology::flat(5),
        Topology::combining(5, 2),
        Topology::mcs(5, 2),
        Topology::ring_mcs(5, 2, 2),
    ]
    .iter()
    .map(describe)
    .collect();
    assert_eq!(got, SMALL);
}

#[test]
fn ksr1_trees_are_frozen() {
    let got: Vec<u64> = [
        Topology::flat(56),
        Topology::combining(56, 16),
        Topology::mcs(56, 16),
        Topology::ring_mcs(56, 16, 32),
    ]
    .iter()
    .map(digest)
    .collect();
    assert_eq!(got, KSR1);
}

#[test]
fn degree_sweep_trees_at_4096_are_frozen() {
    let degrees = default_degree_sweep(4096);
    assert_eq!(degrees.len(), 12);
    let got: Vec<[u64; 3]> = degrees
        .iter()
        .map(|&d| {
            [
                digest(&Topology::combining(4096, d)),
                digest(&Topology::mcs(4096, d)),
                digest(&Topology::ring_mcs(4096, d, 32)),
            ]
        })
        .collect();
    assert_eq!(got, SWEEP_4096);
    assert_eq!(digest(&Topology::flat(4096)), FLAT_4096);
}

/// The live mask: processors 3, 10, 17, … (every seventh from 3), the
/// block 20..=27 and processor 0 are dead.
fn live_mask(p: usize) -> Vec<bool> {
    (0..p)
        .map(|q| !(q % 7 == 3 || (20..=27).contains(&q) || q == 0))
        .collect()
}

#[test]
fn pruned_shapes_and_topologies_are_frozen() {
    let live = live_mask(56);
    let mut got = String::new();
    for base in [
        Topology::combining(56, 4),
        Topology::mcs(56, 4),
        Topology::ring_mcs(56, 4, 32),
    ] {
        let _ = writeln!(got, "{:?}", base.prune_shape(&live));
        let (pruned, procs) = base.prune(&live).expect("some processor is live");
        got.push_str(&describe(&pruned));
        let _ = writeln!(got, "procs {procs:?}");
    }
    assert_eq!(fnv1a(&got), PRUNED);
}

#[test]
fn dot_before_and_after_a_migration_is_frozen() {
    let topo = Topology::mcs(16, 2);
    let mut placement = Placement::initial(&topo);
    let before = topo.to_dot(Some(&placement));
    assert_eq!(before, topo.to_dot(None));
    // Processor 15 climbs to the root, then processor 4 to the counter
    // processor 1 owns.
    placement
        .try_swap(&topo, 15, topo.root())
        .expect("the root owns one processor");
    placement
        .try_swap(&topo, 4, topo.home_of(1))
        .expect("counter of processor 1 owns one processor");
    let after = topo.to_dot(Some(&placement));
    assert_eq!(format!("{before}{after}"), DOT);
}

/// `describe` of each tree in `p1_and_unfull_p5_trees_are_frozen`.
const SMALL: &str = r#"Flat degree 1 procs 1 root 0 depth 1
c0 parent None children [] procs [0] fan-in 1 path 1 ring None
homes [0]
Combining degree 2 procs 1 root 0 depth 1
c0 parent None children [] procs [0] fan-in 1 path 1 ring None
homes [0]
Mcs degree 2 procs 1 root 0 depth 1
c0 parent None children [] procs [0] fan-in 1 path 1 ring None
homes [0]
RingMcs degree 2 procs 1 root 0 depth 1
c0 parent None children [] procs [0] fan-in 1 path 1 ring Some(0)
homes [0]
Flat degree 5 procs 5 root 0 depth 1
c0 parent None children [] procs [0, 1, 2, 3, 4] fan-in 5 path 1 ring None
homes [0, 0, 0, 0, 0]
Combining degree 2 procs 5 root 5 depth 3
c0 parent Some(3) children [] procs [0, 1] fan-in 2 path 3 ring None
c1 parent Some(3) children [] procs [2, 3] fan-in 2 path 3 ring None
c2 parent Some(4) children [] procs [4] fan-in 1 path 3 ring None
c3 parent Some(5) children [0, 1] procs [] fan-in 2 path 2 ring None
c4 parent Some(5) children [2] procs [] fan-in 1 path 2 ring None
c5 parent None children [3, 4] procs [] fan-in 2 path 1 ring None
homes [0, 0, 1, 1, 2]
Mcs degree 2 procs 5 root 0 depth 2
c0 parent None children [1, 2] procs [0] fan-in 3 path 1 ring None
c1 parent Some(0) children [] procs [1, 2] fan-in 2 path 2 ring None
c2 parent Some(0) children [] procs [3, 4] fan-in 2 path 2 ring None
homes [0, 1, 1, 2, 2]
RingMcs degree 2 procs 5 root 3 depth 2
c0 parent Some(3) children [] procs [0, 1] fan-in 2 path 2 ring Some(0)
c1 parent Some(3) children [] procs [2, 3] fan-in 2 path 2 ring Some(1)
c2 parent Some(3) children [] procs [4] fan-in 1 path 2 ring Some(2)
c3 parent None children [0, 1, 2] procs [] fan-in 3 path 1 ring None
homes [0, 0, 1, 1, 2]
"#;

/// Digests of flat, combining, MCS and ring-MCS over the KSR1 shape.
#[rustfmt::skip]
const KSR1: [u64; 4] = [
    0xec96_ae01_8f6a_b354,
    0xf18d_c995_aa08_ecda,
    0x6a34_f7e5_4ab1_0150,
    0x99ec_1939_e535_e544,
];

/// Per degree of `default_degree_sweep(4096)`: combining, MCS, and
/// ring-MCS in rings of 32.
#[rustfmt::skip]
const SWEEP_4096: [[u64; 3]; 12] = [
    [
        0x5ba7_8889_3a34_7c01,
        0xf69c_d16e_1bb5_077a,
        0xd65f_fbfc_f3c6_56fe,
    ],
    [
        0xfdd3_6841_aa38_d964,
        0x6cd2_ba72_9294_59ce,
        0x2a16_0c4e_5456_f480,
    ],
    [
        0x025d_b8d2_ca3e_1634,
        0x552a_dcfd_b40f_b7d0,
        0x80b3_0ad7_c844_b9b5,
    ],
    [
        0x8ba6_6898_1db6_c631,
        0x5a66_ed27_9677_25f4,
        0x35c2_73a5_06b2_2ecd,
    ],
    [
        0x2528_0bb9_3e4e_d3a6,
        0x873c_1b80_1a77_e931,
        0xf8dd_9a32_9bca_3c89,
    ],
    [
        0x64ae_9547_7718_2074,
        0xcf04_fcde_8e2a_c739,
        0x1eac_1b11_9148_a02a,
    ],
    [
        0xb29a_3558_94cb_b5f6,
        0x809d_ab6a_de26_fd6e,
        0xc6a8_1ee3_8f59_af69,
    ],
    [
        0x2d40_0dda_3ee9_cda6,
        0xa3f2_00f2_2751_18ec,
        0x9b19_451c_1388_bb05,
    ],
    [
        0x7efd_877f_1317_eb32,
        0x93b2_d3ff_fa2d_8b99,
        0xcd8d_d4d3_515a_7a18,
    ],
    [
        0xae75_1a32_4996_8957,
        0xf720_e07e_658d_73b8,
        0x1bd3_d38c_d2cb_82af,
    ],
    [
        0x3829_2797_4971_9c9a,
        0x364a_7923_34d2_83c3,
        0x29ef_7612_f8b6_7946,
    ],
    [
        0x23ed_e024_d2fc_a733,
        0x4b59_735d_8855_a31a,
        0x4af8_44c6_f7f4_c063,
    ],
];

const FLAT_4096: u64 = 0x7f04_cf87_1165_8c5e;

const PRUNED: u64 = 0xaeb3_0dcb_70f5_4422;

/// `mcs(16, 2)` before and after the two swaps.
const DOT: &str = r#"digraph barrier {
  rankdir=BT;
  node [shape=box];
  c0 [label="c0\nfan-in 3\np0"];
  c1 [label="c1\nfan-in 3\np1"];
  c1 -> c0;
  c2 [label="c2\nfan-in 3\np2"];
  c2 -> c1;
  c3 [label="c3\nfan-in 2\np3,p4"];
  c3 -> c2;
  c4 [label="c4\nfan-in 1\np5"];
  c4 -> c2;
  c5 [label="c5\nfan-in 3\np6,p7,p8"];
  c5 -> c1;
  c6 [label="c6\nfan-in 3\np9"];
  c6 -> c0;
  c7 [label="c7\nfan-in 3\np10,p11,p12"];
  c7 -> c6;
  c8 [label="c8\nfan-in 3\np13,p14,p15"];
  c8 -> c6;
}
digraph barrier {
  rankdir=BT;
  node [shape=box];
  c0 [label="c0\nfan-in 3\np15"];
  c1 [label="c1\nfan-in 3\np4"];
  c1 -> c0;
  c2 [label="c2\nfan-in 3\np2"];
  c2 -> c1;
  c3 [label="c3\nfan-in 2\np3,p1"];
  c3 -> c2;
  c4 [label="c4\nfan-in 1\np5"];
  c4 -> c2;
  c5 [label="c5\nfan-in 3\np6,p7,p8"];
  c5 -> c1;
  c6 [label="c6\nfan-in 3\np9"];
  c6 -> c0;
  c7 [label="c7\nfan-in 3\np10,p11,p12"];
  c7 -> c6;
  c8 [label="c8\nfan-in 3\np13,p14,p0"];
  c8 -> c6;
}
"#;
