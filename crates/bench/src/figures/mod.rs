//! Figure/table reproductions. One function per paper table or figure;
//! each returns a printable [`Table`] whose rows are the same series the
//! paper reports (with the paper's headline values quoted in the notes
//! for side-by-side comparison). [`ALL`] lists them in paper order.

mod breakdowns;
mod characterization;
mod gpus;
mod headline;
mod specialization;
mod vpu;

use crate::suite::Suite;
use crate::table::Table;

pub use breakdowns::{
    fig24_tandem_breakdown, fig24b_cycle_attribution, fig25_energy_breakdown, fig26_area,
};
pub use characterization::{
    fig01_operator_types, fig02_cumulative_ops, fig03_runtime_breakdown, fig04_subgraphs,
    fig05_roofline, table1_operator_classes, table2_design_classes, table3_config,
};
pub use gpus::{fig20_perf_per_watt, fig21_a100, fig22_a100_breakdown, fig23_nongemm_speedup};
pub use headline::{
    fig14_speedup_baselines, fig15_energy_baselines, fig16_gemmini, fig17_gemmini_breakdown,
};
pub use specialization::{fig06_specialization_overheads, fig08_utilization};
pub use vpu::{fig18_vpu_speedup, fig19_vpu_energy};

/// Regenerates one table or figure from the suite.
pub type Builder = fn(&Suite) -> Table;

/// Every reproduced table and figure as `(id, builder)`, in paper order.
/// `all_figures` prints them all, or the ids it is given.
pub const ALL: &[(&str, Builder)] = &[
    ("table1", table1_operator_classes),
    ("fig01", fig01_operator_types),
    ("fig02", fig02_cumulative_ops),
    ("fig03", fig03_runtime_breakdown),
    ("fig04", fig04_subgraphs),
    ("table2", table2_design_classes),
    ("fig05", fig05_roofline),
    ("fig06", fig06_specialization_overheads),
    ("fig08", fig08_utilization),
    ("table3", table3_config),
    ("fig14", fig14_speedup_baselines),
    ("fig15", fig15_energy_baselines),
    ("fig16", fig16_gemmini),
    ("fig17", fig17_gemmini_breakdown),
    ("fig18", fig18_vpu_speedup),
    ("fig19", fig19_vpu_energy),
    ("fig20", fig20_perf_per_watt),
    ("fig21", fig21_a100),
    ("fig22", fig22_a100_breakdown),
    ("fig23", fig23_nongemm_speedup),
    ("fig24", fig24_tandem_breakdown),
    ("fig24b", fig24b_cycle_attribution),
    ("fig25", fig25_energy_breakdown),
    ("fig26", fig26_area),
];

/// The builder registered under `id` in [`ALL`].
pub fn by_id(id: &str) -> Option<Builder> {
    ALL.iter().find(|(i, _)| *i == id).map(|&(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = ALL.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len(), "duplicate id in figures::ALL");
    }
}
