//! `bench sim|meta|sweep [--scale quick|full] [--repeat N] [--out FILE] [--baseline FILE]`:
//! measure a snapshot suite and diff it against a baseline (see the
//! `psbench_bench` crate docs for the row schema and the drift rule).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    psbench_bench::run(&args).into()
}
