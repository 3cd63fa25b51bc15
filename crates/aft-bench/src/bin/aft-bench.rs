//! `aft-bench`: runs the evaluation's experiments by name. See
//! [`aft_bench::runner`] for the experiments and flags.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    aft_bench::runner::main(&args)
}
