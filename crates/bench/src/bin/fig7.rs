//! Prints Fig. 7 ([`fft_bench::figs::fig7`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig7);
}
