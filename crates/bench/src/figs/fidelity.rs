//! The fidelity table: every figure anchor where the paper states a
//! number, with our value, the relative error and its tolerance. Fig. 5
//! runs to 128 nodes, past its 64-node crossover; Fig. 4 has no row, the
//! paper giving it only a shape.

use super::{fig10, fig11, fig12, fig13, fig2, fig3, fig5, fig6, fig7};
use crate::{Bound, Figure, Obs, TextTable};

pub fn fidelity() -> Figure {
    let obs = Obs::default();
    let figures = [
        fig2(&obs),
        fig3(&obs),
        fig5(128, &obs),
        fig6(),
        fig7(),
        fig10(&obs),
        fig11(),
        fig12(),
        fig13(),
    ];
    let anchors: Vec<_> = figures.iter().flat_map(|f| f.anchors.iter()).collect();
    let mut f = Figure::default();
    let mut t = TextTable::new(&["id", "claim", "paper", "ours", "error", "tol", "verdict"]);
    for a in &anchors {
        let bound = match a.bound {
            Bound::About => "~",
            Bound::Above => ">",
            Bound::Below => "<",
        };
        t.row(vec![
            a.id.into(),
            a.claim.into(),
            format!("{bound}{}", a.paper),
            format!("{:.4}", a.ours),
            format!("{:.1}%", 100.0 * a.error()),
            format!("{:.1}%", 100.0 * a.tol),
            if a.holds() { "ok" } else { "OUT" }.into(),
        ]);
    }
    f.table(&t);
    let held = anchors.iter().filter(|a| a.holds()).count();
    f.line(format!(
        "{held} of {} paper anchors inside tolerance; a tolerance admits today's error.",
        anchors.len()
    ));
    f
}
