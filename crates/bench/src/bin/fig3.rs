//! Prints Fig. 3 ([`fft_bench::figs::fig3`]); takes `--trace-out <file>`.
fn main() {
    fft_bench::run_with_obs(fft_bench::Export::Trace, fft_bench::figs::fig3);
}
