//! The checkpoint wire format, pinned: the images the 200-job study
//! captures every 100 trace events, under each discipline, must encode to
//! exactly the bytes recorded here. An engine change that moves what an
//! image holds, or how, fails this test even when a resumed run still
//! replays its trace; such a change bumps `BATCH_CHECKPOINT_VERSION` and
//! re-records the pins on purpose.

use batchsim::{
    heavy_light_mix, run_batch_checkpointed, BatchConfig, CheckpointPolicy, Discipline,
    BATCH_CHECKPOINT_VERSION,
};
use simcore::snapshot::fnv1a;

/// FNV-1a of each encoded image, in capture order, per discipline.
const PINS: [(Discipline, [u64; 5]); 3] = [
    (
        Discipline::Fcfs,
        [
            0xf051_7ef6_4b7a_d606,
            0x37e5_dd0e_f1f4_0a7e,
            0x498a_3d04_7096_3090,
            0xe762_3790_8b21_558e,
            0xf2cd_ecb1_d013_55ea,
        ],
    ),
    (
        Discipline::Sjf,
        [
            0x68df_b9ca_5f04_578a,
            0xed1e_7c73_f9be_9d9b,
            0x46bf_2773_631a_032e,
            0xedb2_1abf_3530_b48e,
            0xead2_7c34_85a3_9255,
        ],
    ),
    (
        Discipline::Easy,
        [
            0xc0eb_542d_a52d_c54b,
            0xa124_4fb7_6b81_9987,
            0x06a7_711e_adcc_4fd8,
            0x6528_94ef_ba8d_6cc6,
            0x40a4_9d8a_df1f_c6fd,
        ],
    ),
];

/// The XOR of each discipline's five pins: a second, independent record
/// of the same images, which a mistyped pin above would not match.
const XORS: [u64; 3] = [0x9b91_45dd_912a_ec8c, 0xc41e_8441_7533_efe4, 0x42e4_63e1_06f2_b92f];

/// The image hashes of one discipline's checkpointed 200-job run.
fn image_hashes(discipline: Discipline) -> Vec<u64> {
    let jobs = heavy_light_mix(2008, 200);
    let cfg = BatchConfig { discipline, ..BatchConfig::default() };
    let policy = CheckpointPolicy { every_events: Some(100), every_jobs: None };
    let mut hashes = Vec::new();
    run_batch_checkpointed(&jobs, &cfg, None, &policy, |ckpt| hashes.push(fnv1a(&ckpt.encode())));
    hashes
}

#[test]
fn checkpoint_images_of_the_batch_study_are_pinned() {
    assert_eq!(BATCH_CHECKPOINT_VERSION, 7);
    for ((discipline, pins), xor) in PINS.into_iter().zip(XORS) {
        assert_eq!(pins.iter().fold(0, |a, h| a ^ h), xor, "{discipline:?}: pins mistyped");
        assert_eq!(image_hashes(discipline), pins, "{discipline:?}: checkpoint images moved");
    }
}
