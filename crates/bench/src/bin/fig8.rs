//! Prints Fig. 8 ([`fft_bench::figs::fig8`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig8);
}
