//! Prints Fig. 5 ([`fft_bench::figs::fig5`]).
//!
//! Usage: `fig5 [max_nodes]`; `max_nodes` trims the node ladder (the CI
//! profiling smoke caps it so its runs stay fast). Without it the ladder
//! runs to the paper's full 512 nodes.

fn main() {
    let (obs, positional) = fft_bench::Obs::from_env(1, fft_bench::Export::Profile);
    let max_nodes: usize = match positional.first() {
        None => usize::MAX,
        Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("invalid node cap '{s}': expected a positive integer");
            std::process::exit(2);
        }),
    };
    print!("{}", fft_bench::figs::fig5(max_nodes, &obs).render());
}
