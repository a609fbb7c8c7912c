//! Prints Fig. 10 ([`fft_bench::figs::fig10`]); takes `--trace-out <file>`.
fn main() {
    fft_bench::run_with_obs(fft_bench::Export::Trace, fft_bench::figs::fig10);
}
