//! Prints Fig. 11 ([`fft_bench::figs::fig11`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fig11);
}
