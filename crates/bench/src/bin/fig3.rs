//! Prints Fig. 3 ([`fft_bench::figs::fig3`]); takes the observability flags.
fn main() {
    fft_bench::run_with_obs(fft_bench::figs::fig3);
}
