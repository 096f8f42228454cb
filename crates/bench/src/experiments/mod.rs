//! One module per paper exhibit. Every `run(profile)` prints the exhibit's
//! table(s) and writes JSON rows under `experiments_out/`.

pub mod ablation;
pub mod ext_elastic;
pub mod ext_featurestore;
pub mod ext_kernels;
pub mod ext_multi_gpu;
pub mod ext_overhead;
pub mod ext_pipeline;
pub mod ext_plan_ahead;
pub mod ext_recovery;
pub mod ext_storage_chaos;
pub mod ext_trace;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14_15_16;
pub mod table2;
pub mod table5;
pub mod table6;
pub mod table7;

use crate::Profile;

/// Runs every exhibit in paper order (used by `cargo bench --bench paper`).
pub fn run_all(profile: Profile) {
    fig02::run(profile);
    fig03::run(profile);
    fig04::run(profile);
    table2::run(profile);
    fig09::run(profile);
    fig10::run(profile);
    fig11::run(profile);
    fig12::run(profile);
    fig13::run(profile);
    fig14_15_16::run(profile);
    table5::run(profile);
    table6::run(profile);
    table7::run(profile);
    ablation::run(profile);
    ext_multi_gpu::run(profile);
    ext_elastic::run(profile);
    ext_overhead::run(profile);
    ext_pipeline::run(profile);
    ext_plan_ahead::run(profile);
    ext_recovery::run(profile);
    ext_trace::run(profile);
    ext_featurestore::run(profile);
    ext_storage_chaos::run(profile);
    ext_kernels::run(profile);
}
