//! `condbench` binary; see `condbench --help` and `benchmark/README.md`.

fn main() {
    std::process::exit(condbench::cli::main(std::env::args().skip(1).collect()));
}
