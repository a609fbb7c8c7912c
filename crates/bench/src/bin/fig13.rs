//! Prints Fig. 13 ([`fft_bench::figs::fig13`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig13);
}
