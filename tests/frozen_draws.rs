//! Frozen draws of the RNG-driven work sources: the first 8 work times
//! of 2 episodes, at one fixed seed, for every [`Workload`] constructor
//! and for the KSR1 SOR model. The goldens pin only `iid_normal`
//! (through Figure 8); these literals pin the other kinds, which reach
//! the paper's figures through `ablate`, `dot`, `fig12`/`fig13` and the
//! placement tests, so any change to a draw shows here first.

use combar_machine::SorWork;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{WorkSource, Workload};

const P: usize = 8;
const SEED: u64 = 2024;

#[test]
fn every_rng_driven_source_draws_its_frozen_values() {
    // The systemic biases come from their own RNG at construction, as
    // in `dot`.
    let mut bias_rng = Xoshiro256pp::seed_from_u64(7);
    let systemic = Workload::systemic(P, 1_000.0, 100.0, 10.0, &mut bias_rng, SEED);
    let sources: [Box<dyn WorkSource>; 7] = [
        Box::new(Workload::iid_normal(1_000.0, 75.0, SEED)),
        Box::new(systemic),
        Box::new(Workload::evolving(P, 1_000.0, 40.0, 10.0, SEED)),
        Box::new(Workload::iid_exponential(1_000.0, 75.0, SEED)),
        Box::new(Workload::iid_pareto(1_000.0, 50.0, 2.5, SEED)),
        Box::new(SorWork::paper_config(210, SEED)),
        // the ring-correlated path of Figure 13's correlation ablation
        Box::new(SorWork::paper_config(210, SEED).with_ring_correlation(0.5)),
    ];
    for (mut source, (kind, want)) in sources.into_iter().zip(FROZEN) {
        let mut got = [0.0; 2 * P];
        for (episode, row) in got.chunks_mut(P).enumerate() {
            source.sample_episode(episode as u32, row);
        }
        assert_eq!(got, want, "{kind}");
    }
}

/// Episode 0's draws, then episode 1's, in the order of `sources`.
#[rustfmt::skip]
const FROZEN: [(&str, [f64; 2 * P]); 7] = [
    ("iid_normal", [
        1016.6831240680038, 859.9508957648436, 886.7642791317995, 965.4070877667447,
        1045.4754343021857, 1056.489025568936, 940.5635544815179, 982.7376905196992,
        1026.5946032851143, 1093.1963682977148, 1239.70798606919, 984.498574302411,
        973.4044611676974, 1067.4021539083203, 940.5919590602891, 899.3429208435041,
    ]),
    ("systemic", [
        1169.6280610865072, 925.3218299077985, 1038.6917207041365, 991.4088466997434,
        1126.8562166497368, 915.7340819980859, 1024.9092020951048, 943.3669770655698,
        1170.9495916487886, 956.4212262455146, 1085.7508816291217, 993.9543782378323,
        1117.2467535651383, 917.1891657766705, 1024.9129893722743, 932.2476744420771,
    ]),
    ("evolving", [
        993.799570053842, 920.6947561101492, 1016.3287055587015, 1027.8258390393923,
        1046.144853227953, 1047.6378729991027, 977.8946404974771, 1022.5268715302382,
        1048.1168091796774, 933.5192911018044, 1044.1507147140699, 949.878703912837,
        1005.5421003480016, 1065.2723579615872, 1055.767728600942, 1089.3283941952884,
    ]),
    ("iid_exponential", [
        973.4080285892076, 1016.582500717764, 1030.9320917497716, 989.7673623314606,
        946.7573526882113, 940.9617583516704, 926.628027849907, 955.8279118439366,
        1101.5337373905072, 997.1010727297977, 964.5243641303649, 940.1847681674701,
        971.4364583880873, 977.3594578169859, 1002.7415621953656, 935.5910277958341,
    ]),
    ("iid_pareto", [
        981.3950086513805, 998.1552565697211, 1004.6365183636532, 987.2962396701797,
        972.8186621934386, 971.1095632522567, 967.1026976755697, 975.6018666678756,
        1044.859580867008, 990.1135199426935, 978.3997271750413, 970.884421548842,
        980.717953347281, 982.7735877162366, 992.3565621501282, 969.5722292958061,
    ]),
    ("sor_paper_config", [
        9459.227635681907, 9536.919023392766, 9642.657005395571, 9252.135430109965,
        9380.09101204789, 9506.916574997862, 9591.688932956116, 9387.636152564977,
        9533.382892392317, 9504.419918391783, 9553.843150384928, 9530.108330903655,
        9489.190578936315, 9307.46127100279, 9622.506613398054, 9577.563277616431,
    ]),
    ("sor_ring_correlated", [
        9366.85288412294, 9394.661969448243, 9476.225140556513, 9559.266786222312,
        9570.689361847457, 9450.459054738254, 9494.199306818939, 9539.68482472269,
        9727.33236201256, 9715.826274379022, 9813.314525750799, 9681.79529595479,
        9639.01449475344, 9779.012031128108, 9763.13884740092, 9906.065454752335,
    ]),
];
