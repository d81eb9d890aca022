//! Command line: the driver's single-run form, the four-workload suite,
//! `compare` and `spec`.

use std::path::PathBuf;
use std::time::Instant;

use crate::run::{self, RunSpec, Scale};
use crate::{compare, host, spec, suite, BenchResult};

const USAGE: &str = "\
condbench — durable end-to-end benchmark of the conditional-messaging stack

USAGE (from the repository root):
  condbench [--seed N] [--seconds S] [--repeat K] [--smoke] [--allow-tmpfs] [--out DIR]
      Run all four workloads, each untraced and traced in its own child
      process; print every metric as `workload metric value unit`; write
      DIR/result.json and DIR/trace_<workload>.jsonl; exit non-zero when
      the exactly-one-outcome oracle is violated.
  condbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      One run of one workload in this process. The last line of stdout is
      {\"correct\",\"attempted\",\"failed\",\"metrics\"}: end-to-end metrics
      for --trace 0, per-layer metrics for --trace 1.
  condbench compare A.json B.json
      Per workload x end-to-end metric: B's change against A, held to the
      metric's bound; exit non-zero on a regression.
  condbench spec
      Print BENCHMARK.json as generated from the built-in tables.

  --seed N        input seed (default 1)
  --seconds S     measured window per run (default 10; --smoke: 0.5)
  --repeat K      run the suite K times; report medians and quartiles
  --smoke         tiny sizes: 500 background pending, short windows
  --allow-tmpfs   let the durable workloads journal onto tmpfs
  --out DIR       journals, traces and results (default benchmark/out)
";

/// Parsed options shared by the run forms.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--workload`
    pub workload: Option<String>,
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: Option<f64>,
    /// `--trace`
    pub trace: bool,
    /// `--repeat`
    pub repeat: usize,
    /// `--smoke`
    pub smoke: bool,
    /// `--allow-tmpfs`
    pub allow_tmpfs: bool,
    /// `--out`
    pub out_dir: PathBuf,
}

impl Options {
    /// Window length in effect.
    pub fn window_s(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            0.5
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
        allow_tmpfs: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--repeat" => {
                options.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or_else(|| "--repeat needs a count from 1 to 100".to_owned())?;
            }
            "--smoke" => options.smoke = true,
            "--allow-tmpfs" => options.allow_tmpfs = true,
            "--out" => options.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn single_run(options: &Options, name: &str, started: Instant) -> BenchResult<i32> {
    let workload = spec::workload(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (have: {})",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    std::fs::create_dir_all(&options.out_dir)?;
    if workload.fsync && host::fs_type(&options.out_dir) == "tmpfs" && !options.allow_tmpfs {
        eprintln!(
            "condbench: warning: {} is on tmpfs; fsync costs nothing there and the durable numbers mean little",
            options.out_dir.display()
        );
    }
    let run = RunSpec {
        workload,
        seed: options.seed,
        seconds: options.window_s(),
        traced: options.trace,
        scale: if options.smoke {
            Scale::smoke(workload)
        } else {
            Scale::full(workload)
        },
        out_dir: options.out_dir.clone(),
        started,
    };
    let report = run::execute(&run)?;
    std::fs::write(
        suite::run_file(&options.out_dir, workload.name, options.trace),
        report.to_json().to_pretty(),
    )?;
    print!("{}", report.lines());
    for violation in &report.violations {
        eprintln!("condbench: VIOLATION {}: {violation}", workload.name);
    }
    println!("{}", report.driver_line().to_compact());
    Ok(if report.correct() { 0 } else { 1 })
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let started = Instant::now();
    let outcome: BenchResult<i32> = match args.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            print!("{USAGE}");
            Ok(0)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(0)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => Err("compare needs exactly two result files".into()),
        },
        _ => parse(&args)
            .map_err(Into::into)
            .and_then(|options| match options.workload.clone() {
                Some(name) => single_run(&options, &name, started),
                None => suite::main(&options),
            }),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("condbench: {e}");
            2
        }
    }
}
