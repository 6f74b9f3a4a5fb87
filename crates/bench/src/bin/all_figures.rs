//! Prints every reproduced table and figure in paper order, or only the
//! ones named by id (`all_figures fig14 fig24b`; ids as in
//! [`tandem_bench::figures::ALL`]). An unknown id prints the id list and
//! exits with status 2.

use std::process::ExitCode;
use std::time::Instant;
use tandem_bench::figures;
use tandem_bench::Suite;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for id in &ids {
        let Some(build) = figures::by_id(id) else {
            let known: Vec<&str> = figures::ALL.iter().map(|&(id, _)| id).collect();
            eprintln!("unknown figure id `{id}`; known ids: {}", known.join(" "));
            return ExitCode::from(2);
        };
        selected.push(build);
    }
    if selected.is_empty() {
        selected = figures::ALL.iter().map(|&(_, build)| build).collect();
    }

    let t0 = Instant::now();
    let suite = Suite::load();
    eprintln!(
        "suite loaded in {:.2}s ({} models in parallel, cache hit rate {:.1}%)",
        t0.elapsed().as_secs_f64(),
        suite.models.len(),
        suite.tandem.iter().map(|r| r.stats.hit_rate()).sum::<f64>() / suite.tandem.len() as f64
            * 100.0
    );
    for build in selected {
        println!("{}", build(&suite));
    }
    ExitCode::SUCCESS
}
