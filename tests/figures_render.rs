//! Every table/figure reproduction must render with all seven benchmarks
//! present and non-degenerate values.

use tandem_bench::figures;
use tandem_bench::Suite;

/// Tables with one row (or series) per model.
const PER_MODEL: [&str; 18] = [
    "fig01", "fig02", "fig03", "fig06", "fig08", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig24b", "fig25",
];

/// Tables over operators, design classes, configuration or area.
const OTHER: [&str; 6] = ["table1", "table2", "table3", "fig04", "fig05", "fig26"];

fn render(suite: &Suite, id: &str) -> String {
    let build = figures::by_id(id).unwrap_or_else(|| panic!("{id} is not in figures::ALL"));
    build(suite).render()
}

#[test]
fn every_figure_renders_with_all_models() {
    let suite = Suite::load();
    for name in PER_MODEL {
        let text = render(&suite, name);
        for model in [
            "VGG-16",
            "ResNet-50",
            "YOLOv3",
            "MobileNetV2",
            "EfficientNet",
            "BERT",
            "GPT-2",
        ] {
            assert!(text.contains(model), "{name} missing {model}:\n{text}");
        }
        assert!(!text.contains("NaN"), "{name} produced NaN:\n{text}");
        assert!(!text.contains("inf"), "{name} produced inf:\n{text}");
    }

    for name in OTHER {
        let text = render(&suite, name);
        assert!(text.lines().count() > 4, "{name} too short:\n{text}");
        assert!(!text.contains("NaN"), "{name} produced NaN");
    }
}

#[test]
fn render_checks_cover_every_registered_figure() {
    let mut checked: Vec<&str> = PER_MODEL.iter().chain(&OTHER).copied().collect();
    let mut registered: Vec<&str> = figures::ALL.iter().map(|&(id, _)| id).collect();
    checked.sort_unstable();
    registered.sort_unstable();
    assert_eq!(checked, registered);
}
