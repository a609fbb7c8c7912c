//! Prints Fig. 6 ([`fft_bench::figs::fig6`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig6);
}
