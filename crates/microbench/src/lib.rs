//! Regeneration of the TSHMEM paper's evaluation.
//!
//! One module per experiment family; each returns structured
//! [`series::Figure`] data that this crate's binary (`src/main.rs`)
//! prints as TSV into `figures/` and `EXPERIMENTS.md` records against
//! the paper's numbers.
//!
//! | paper artifact | module | function |
//! |---|---|---|
//! | Table I   | [`tables`] | [`tables::table1`] |
//! | Table II  | [`tables`] | [`tables::table2`] |
//! | Figure 3  | [`memcpy`] | [`memcpy::fig3`] |
//! | Figure 4 / Table III | [`udnlat`] | [`udnlat::fig4`], [`udnlat::table3`] |
//! | Figure 5  | [`barrier`] | [`barrier::fig5`] |
//! | Figure 6  | [`putget`] | [`putget::fig6`] |
//! | Figure 7  | [`putget`] | [`putget::fig7`] |
//! | Figure 8  | [`barrier`] | [`barrier::fig8`] |
//! | Figure 9  | [`collectives`] | [`collectives::fig9`] |
//! | Figure 10 | [`collectives`] | [`collectives::fig10`] |
//! | Figure 11 | [`collectives`] | [`collectives::fig11`] |
//! | Figure 12 | [`collectives`] | [`collectives::fig12`] |
//! | Figure 13 | [`appmodel`] | [`appmodel::fig13`] |
//! | Figure 14 | [`appmodel`] | [`appmodel::fig14`] |
//!
//! Ablations beyond the paper (design-choice comparisons listed in
//! `DESIGN.md` §4) live in [`ablation`].

pub mod ablation;
pub mod appmodel;
pub mod barrier;
pub mod collectives;
pub mod memcpy;
pub mod putget;
pub mod series;
pub mod tables;
pub mod udnlat;

pub use series::{Figure, Series};
