//! `scm-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for `S` seconds and prints, as its last stdout
//! line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A stamped record of the run goes to `out/records/`
//! under the benchmark's directory, and a readable summary to stderr.

use scm_perfbench::bench::{describe, expected_digests, measure_e2e, Check};
use scm_perfbench::layers::{measure_traced, render_accounts, METRICS};
use scm_perfbench::record::{record_json, result_line, write_record, Metric, Stamp};
use scm_perfbench::workload::Workload;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: scm-perfbench --workload <campaign-mix|fleet-mixed|guided-million|campaign-observed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let window = Duration::from_secs(args.seconds);
    let expected = expected_digests(args.workload, args.seed);
    let name = args.workload.name();
    if args.trace {
        let traced = measure_traced(args.workload, args.seed, window, expected)?;
        let check = traced.check.clone();
        let metrics: Vec<Metric> = METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: traced.metrics[name],
                unit,
            })
            .collect();
        eprint!("{}", render_accounts(&traced));
        for m in &metrics {
            eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        report(args, &check, traced.input_digest, &metrics, &[], name)
    } else {
        let e2e = measure_e2e(args.workload, args.seed, window, expected)?;
        let metrics = vec![
            Metric {
                name: "throughput_1t",
                value: e2e.throughput[0],
                unit: "1/s",
            },
            Metric {
                name: "throughput_2t",
                value: e2e.throughput[1],
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: e2e.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: e2e.peak_rss_mb,
                unit: "MiB",
            },
        ];
        eprintln!(
            "{name}: work unit = {}; 1t passes {}; 2t passes {}; set-ups {}",
            args.workload.work_unit(),
            describe(&e2e.rates[0]),
            describe(&e2e.rates[1]),
            describe(&e2e.setups),
        );
        report(
            args,
            &e2e.check,
            e2e.input_digest,
            &metrics,
            &[
                ("rates_1t", &e2e.rates[0]),
                ("speeds_1t", &e2e.speeds[0]),
                ("rates_2t", &e2e.rates[1]),
                ("speeds_2t", &e2e.speeds[1]),
                ("setup_s", &e2e.setups),
                ("setup_speeds", &e2e.setup_speeds),
                ("first_setup_s", &[e2e.first_setup_s]),
            ],
            name,
        )
    }
}

fn report(
    args: &Args,
    check: &Check,
    input_digest: u64,
    metrics: &[Metric],
    samples: &[(&str, &[f64])],
    name: &'static str,
) -> Result<String, String> {
    if let Some(why) = &check.first_failure {
        eprintln!(
            "{name}: {} of {} passes failed; first: {why}",
            check.failed, check.attempted
        );
    }
    let line = result_line(check.correct(), check.attempted, check.failed, metrics)?;
    let stamp = Stamp {
        workload: name,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        input_digest,
        result_digests: check.expected().to_vec(),
    };
    let path = write_record(&stamp, &record_json(&stamp, &line, samples)?)?;
    let digests: Vec<String> = check
        .expected()
        .iter()
        .map(|d| d.map_or("none".to_owned(), |d| format!("{d:016x}")))
        .collect();
    eprintln!(
        "{name}: seed {} input digest {input_digest:016x} result digests [{}] -> {}",
        args.seed,
        digests.join(", "),
        path.display()
    );
    Ok(line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
