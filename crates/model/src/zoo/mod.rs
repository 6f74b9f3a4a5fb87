//! The benchmark zoo: the seven DNNs of the paper's evaluation (§7), built
//! op-by-op as their inference-time ONNX exports look.
//!
//! All models use batch size 1, matching the paper's real-time /
//! single-stream scenario.

mod bert;
mod efficientnet;
mod gpt2;
mod llama;
mod mobilenetv2;
mod resnet50;
mod vgg16;
mod yolov3;

pub use bert::bert_base;
pub use efficientnet::efficientnet_b0;
pub use gpt2::{gpt2, gpt2_decode_step, gpt2_prefill};
pub use llama::llama_tiny;
pub use mobilenetv2::mobilenetv2;
pub use resnet50::resnet50;
pub use vgg16::vgg16;
pub use yolov3::yolov3;

use crate::graph::Graph;

/// The benchmark suite, in the order the paper's figures report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// VGG-16 image classifier (2014), 224×224.
    Vgg16,
    /// ResNet-50 image classifier (2015), 224×224.
    Resnet50,
    /// YOLOv3 object detector (2018), 416×416.
    Yolov3,
    /// MobileNetV2 mobile classifier (2018), 224×224.
    Mobilenetv2,
    /// EfficientNet-B0 classifier (2019), 224×224.
    Efficientnet,
    /// BERT-base encoder (2018), sequence length 128.
    Bert,
    /// GPT-2 (124M) decoder (2019), sequence length 128.
    Gpt2,
}

impl Benchmark {
    /// Every benchmark, in figure order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Vgg16,
        Benchmark::Resnet50,
        Benchmark::Yolov3,
        Benchmark::Mobilenetv2,
        Benchmark::Efficientnet,
        Benchmark::Bert,
        Benchmark::Gpt2,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Vgg16 => "VGG-16",
            Benchmark::Resnet50 => "ResNet-50",
            Benchmark::Yolov3 => "YOLOv3",
            Benchmark::Mobilenetv2 => "MobileNetV2",
            Benchmark::Efficientnet => "EfficientNet",
            Benchmark::Bert => "BERT",
            Benchmark::Gpt2 => "GPT-2",
        }
    }

    /// Parses a command-line model name: case, dashes and underscores are
    /// ignored, and short aliases (`vgg`, `resnet`, `yolo`, `mobilenet`,
    /// `efficientnet`, `bert`, `gpt`) are accepted.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        let key: String = name
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match key.as_str() {
            "vgg16" | "vgg" => Benchmark::Vgg16,
            "resnet50" | "resnet" => Benchmark::Resnet50,
            "yolov3" | "yolo" => Benchmark::Yolov3,
            "mobilenetv2" | "mobilenet" => Benchmark::Mobilenetv2,
            "efficientnetb0" | "efficientnet" => Benchmark::Efficientnet,
            "bertbase" | "bert" => Benchmark::Bert,
            "gpt2" | "gpt" => Benchmark::Gpt2,
            _ => return None,
        })
    }

    /// Builds the operator graph at its default evaluation size.
    pub fn graph(self) -> Graph {
        match self {
            Benchmark::Vgg16 => vgg16(),
            Benchmark::Resnet50 => resnet50(),
            Benchmark::Yolov3 => yolov3(),
            Benchmark::Mobilenetv2 => mobilenetv2(),
            Benchmark::Efficientnet => efficientnet_b0(),
            Benchmark::Bert => bert_base(128),
            Benchmark::Gpt2 => gpt2(128),
        }
    }
}

/// Builds the full suite in figure order.
pub fn all_models() -> Vec<Graph> {
    Benchmark::ALL.iter().map(|b| b.graph()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpClass;

    #[test]
    fn every_model_validates() {
        for bench in Benchmark::ALL {
            let g = bench.graph();
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            assert!(!g.nodes().is_empty());
            assert!(!g.outputs().is_empty());
        }
    }

    #[test]
    fn names_and_aliases_parse() {
        for bench in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(bench.name()), Some(bench));
        }
        for (aliases, bench) in [
            (&["vgg16", "vgg-16", "vgg"][..], Benchmark::Vgg16),
            (&["resnet50", "resnet-50", "resnet"], Benchmark::Resnet50),
            (&["yolov3", "yolo"], Benchmark::Yolov3),
            (&["mobilenetv2", "mobilenet"], Benchmark::Mobilenetv2),
            (
                &["efficientnet", "efficientnet-b0", "efficientnet_b0"],
                Benchmark::Efficientnet,
            ),
            (&["bert", "bert-base"], Benchmark::Bert),
            (&["gpt2", "gpt-2", "gpt"], Benchmark::Gpt2),
        ] {
            for alias in aliases {
                assert_eq!(Benchmark::from_name(alias), Some(bench), "{alias}");
            }
        }
        assert_eq!(Benchmark::from_name("alexnet"), None);
        assert_eq!(Benchmark::from_name(""), None);
    }

    #[test]
    fn suite_is_non_gemm_dominated() {
        // Paper Figure 2: across the suite only ~15% of nodes are GEMM.
        let mut gemm = 0usize;
        let mut total = 0usize;
        for g in all_models() {
            let s = g.stats();
            gemm += s.gemm_nodes();
            total += s.total_nodes();
        }
        let fraction = gemm as f64 / total as f64;
        assert!(
            fraction > 0.05 && fraction < 0.30,
            "GEMM node fraction {fraction:.3} out of the paper's ballpark"
        );
    }

    #[test]
    fn operator_variety_grows_with_model_generation() {
        // Paper Figure 1: VGG-16 has ~3 non-GEMM operator types, language
        // models around ten.
        let vgg = vgg16().stats().non_gemm_kind_variety();
        let bert = bert_base(128).stats().non_gemm_kind_variety();
        let gpt2 = gpt2(128).stats().non_gemm_kind_variety();
        assert!(vgg <= 5, "VGG-16 variety {vgg}");
        assert!(bert >= 9, "BERT variety {bert}");
        assert!(gpt2 >= 9, "GPT-2 variety {gpt2}");
        assert!(bert > vgg);
    }

    #[test]
    fn transformers_have_many_more_non_gemm_nodes() {
        let bert = bert_base(128).stats();
        assert!(bert.gemm_nodes() >= 70, "BERT GEMMs {}", bert.gemm_nodes());
        assert!(
            bert.non_gemm_nodes() > 5 * bert.gemm_nodes(),
            "BERT non-GEMM {} vs GEMM {}",
            bert.non_gemm_nodes(),
            bert.gemm_nodes()
        );
    }

    #[test]
    fn image_models_have_expected_conv_counts() {
        use crate::op::OpKind;
        let vgg = vgg16().stats();
        assert_eq!(vgg.kind_count(OpKind::Conv), 13);
        assert_eq!(vgg.kind_count(OpKind::Gemm), 3);
        let resnet = resnet50().stats();
        assert_eq!(resnet.kind_count(OpKind::Conv), 53);
        let mbv2 = mobilenetv2().stats();
        assert_eq!(mbv2.kind_count(OpKind::DepthwiseConv), 17);
        assert!(mbv2.class_count(OpClass::Reduction) >= 17);
    }
}
