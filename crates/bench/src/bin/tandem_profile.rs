//! `tandem-profile`: cycle-attribution tracing of one zoo model.
//!
//! Runs the model through the paper-machine NPU-Tandem with the
//! recording trace sink on, then:
//!
//! * writes `<model>.trace.json` — a Chrome trace-event timeline of the
//!   run (blocks, GEMM↔Tandem tile pipelining, controller handshakes,
//!   DMA bursts, and the instruction-level timeline of each compiled
//!   tile program) loadable in Perfetto or `chrome://tracing`;
//! * prints the critical-path cycle-attribution table (where every
//!   cycle of the end-to-end latency went);
//! * exits non-zero if the attribution buckets do not sum exactly to
//!   the reported latency — the invariant CI relies on.
//!
//! ```text
//! cargo run -p tandem-bench --release --bin tandem_profile -- resnet50 [out.trace.json]
//! ```
//!
//! `docs/PROFILING.md` walks through reading the output.

use tandem_model::zoo::Benchmark;
use tandem_npu::{ChromeTraceSink, Npu, NpuConfig};

fn usage() -> ! {
    eprintln!("usage: tandem_profile <model> [out.trace.json]");
    eprintln!("  model: vgg16 | resnet50 | yolov3 | mobilenetv2 | efficientnet_b0 | bert | gpt2");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(model_arg) = args.next() else {
        usage()
    };
    let Some(bench) = Benchmark::from_name(&model_arg) else {
        eprintln!("unknown model {model_arg:?}");
        usage()
    };
    let out_path = args
        .next()
        .unwrap_or_else(|| format!("{}.trace.json", model_arg.to_ascii_lowercase()));

    let graph = bench.graph();
    let npu = Npu::new(NpuConfig::paper());
    let mut sink = ChromeTraceSink::new();
    let report = npu.run_traced(&graph, &mut sink);

    std::fs::write(&out_path, sink.to_json()).expect("write trace file");

    println!(
        "{} — {} nodes, {} trace events",
        bench.name(),
        graph.nodes().len(),
        sink.len()
    );
    println!("{report}");
    println!();
    println!("critical-path cycle attribution");
    println!("{}", report.attribution);
    println!();
    println!("trace written to {out_path} (load in https://ui.perfetto.dev or chrome://tracing)");

    if report.attribution.total() != report.total_cycles {
        eprintln!(
            "ERROR: attribution buckets sum to {} but the run reports {} cycles",
            report.attribution.total(),
            report.total_cycles
        );
        std::process::exit(1);
    }
}
