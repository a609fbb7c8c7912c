//! Prints Fig. 2 ([`fft_bench::figs::fig2`]); takes the observability flags.
fn main() {
    fft_bench::run_with_obs(fft_bench::figs::fig2);
}
