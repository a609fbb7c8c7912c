//! Prints Fig. 4 ([`fft_bench::figs::fig4`]); takes the observability flags.
fn main() {
    fft_bench::run_with_obs(fft_bench::figs::fig4);
}
