//! Prints the exascale projection ([`fft_bench::figs::exascale`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::exascale);
}
