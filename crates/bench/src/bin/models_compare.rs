//! Prints the §III model survey ([`fft_bench::figs::models_compare`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::models_compare);
}
