//! Prints Fig. 10 ([`fft_bench::figs::fig10`]); takes the observability flags.
fn main() {
    fft_bench::run_with_obs(fft_bench::figs::fig10);
}
