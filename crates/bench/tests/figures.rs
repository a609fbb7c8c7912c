//! Tier-1 pins on the figures cheap enough to build in process: each
//! renders its committed `results/<id>.txt` byte for byte, and each of its
//! paper anchors sits inside a tolerance that admits today's error and no
//! more. EXPERIMENTS.md carries the fidelity table verbatim.

use fft_bench::{figs, Figure, Obs};

fn check(id: &str, fig: Figure, committed: &str) {
    assert!(
        fig.render() == committed,
        "{id} no longer renders results/{id}.txt:\n{}",
        fig.render()
    );
    for a in &fig.anchors {
        let (error, tol) = (a.error(), a.tol);
        assert!(
            a.holds(),
            "{}: ours {} is {:.2}% off the paper's {}, past the {:.2}% tolerance",
            a.id,
            a.ours,
            100.0 * error,
            a.paper,
            100.0 * tol
        );
        assert!(
            tol - error < 1e-3,
            "{}: tolerance looser than today's error",
            a.id
        );
    }
}

macro_rules! pinned {
    ($($id:ident($($arg:expr),*)),*) => {$(
        #[test]
        fn $id() {
            let committed = include_str!(concat!("../../../results/", stringify!($id), ".txt"));
            check(stringify!($id), figs::$id($($arg),*), committed);
        }
    )*};
}

pinned!(
    table1(),
    table3(),
    fig2(&Obs::default()),
    fig3(&Obs::default()),
    fig6(),
    fig7(),
    fig10(&Obs::default()),
    fig11(),
    fig13()
);

#[test]
fn experiments_md_carries_the_fidelity_table() {
    let experiments = include_str!("../../../EXPERIMENTS.md");
    assert!(experiments.contains(include_str!("../../../results/fidelity.txt")));
}
