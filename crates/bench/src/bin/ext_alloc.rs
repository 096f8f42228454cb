//! Extension exhibit: ext_alloc. `BETTY_PROFILE=quick` shrinks it.
//!
//! This binary installs the test kit's tracking allocator so the exhibit can
//! compare heap-allocation traffic with the tensor pool on vs off; every
//! other entry point runs the same exhibit without allocation counts.

#[global_allocator]
static GLOBAL: betty_testkit::Tracking = betty_testkit::Tracking;

fn main() {
    let profile = betty_bench::Profile::from_env();
    betty_bench::experiments::ext_alloc::run(profile);
}
