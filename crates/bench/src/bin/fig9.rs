//! Prints Fig. 9 ([`fft_bench::figs::fig9`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig9);
}
