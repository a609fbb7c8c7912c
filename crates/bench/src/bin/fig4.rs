//! Prints Fig. 4 ([`fft_bench::figs::fig4`]); takes `--profile-out <file>`.
fn main() {
    fft_bench::run_with_obs(fft_bench::Export::Profile, fft_bench::figs::fig4);
}
