//! Prints Fig. 12 ([`fft_bench::figs::fig12`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig12);
}
