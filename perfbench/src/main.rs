//! perfbench: the plinger-rs benchmark.
//!
//! ```text
//! perfbench --workload <los_cl|hierarchy_cl|sweep_serve> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! perfbench --workload <name> --write-reference
//! ```
//!
//! One single-threaded caller drives a warm 2-worker
//! `FarmPool<ChannelWorld>` through the library's public entry points,
//! checks every result, and prints one JSON line of metrics last.  With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` the
//! same seeded stream runs with the benchmark's own spans on, plus a
//! serial replay of each spectrum, and the line holds the per-layer
//! metrics.  See README.md for the workloads and the metric map.

mod check;
mod metrics;
mod serve;
mod spectrum;
mod trace;
mod workload;

use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use msgpass::channel::ChannelWorld;
use plinger::{decode_spectrum_body, FarmPool, RunSpec, SpectrumService};

use metrics::{median, Metrics, END_TO_END, PER_LAYER, SWEEP_ONLY};
use trace::Tracer;
use workload::{Workload, WORKERS};

/// Set-ups measured per run, each in a fresh process; the median is
/// reported.  The sweep's set-up is tens of milliseconds, so it takes
/// more samples for the same steadiness.
fn setup_sample_count(w: Workload) -> usize {
    match w {
        Workload::SweepServe => 9,
        _ => 3,
    }
}

/// What one run found: operations attempted and failed, and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, for the record line.
    pub notes: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Measurements reported in the record line only.
    pub extra: Metrics,
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    pub fn note(&mut self, why: String) {
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    write_reference: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <los_cl|hierarchy_cl|sweep_serve> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --workload <name> --write-reference"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--setup-probe" => setup_probe = true,
            "--write-reference" => write_reference = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        setup_probe,
        write_reference,
    }
}

/// The benchmark's own directory (references live here, outputs go to
/// its `out/`).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn reference_path(w: Workload) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("{}.txt", w.name()))
}

/// A warm system: the pool (or the service around it) after the anchor
/// request, and the anchor's result.
enum Warm {
    Pool(FarmPool<ChannelWorld>),
    Service(SpectrumService<ChannelWorld>),
}

/// The result `result_dev` compares: `l(l+1)C_l` for `l = 2..=l_max`,
/// or `δ_c(k)` for the sweep.
fn anchor_result(w: Workload, warm: &mut Warm, spec: &RunSpec) -> Result<Vec<f64>, String> {
    match warm {
        Warm::Pool(pool) => {
            let rep = spectrum::run_job(w, pool, spec)?;
            check::outputs_complete(spec, &rep.outputs)?;
            Ok(spectrum::band_power(w, spec, &rep.outputs))
        }
        Warm::Service(svc) => {
            let reply = svc
                .handle(spec)
                .map_err(|e| format!("anchor request failed: {e}"))?;
            let (outputs, _) = decode_spectrum_body(&reply.body)?;
            check::outputs_complete(spec, &outputs)?;
            Ok(outputs.iter().map(|o| o.delta_c).collect())
        }
    }
}

/// Start the pool and serve the anchor: everything a fresh process
/// does before it can answer its first real request.
fn warm_up(w: Workload, tr: &mut Tracer) -> Result<(Warm, Vec<f64>), String> {
    let root = tr.open("setup", 0, None);
    let t0 = Instant::now();
    let pool =
        FarmPool::<ChannelWorld>::start(WORKERS).map_err(|e| format!("pool start failed: {e}"))?;
    tr.record("farm.pool_start", 0, root, t0, Instant::now());
    let mut warm = match w {
        Workload::SweepServe => Warm::Service(SpectrumService::new(pool, spectrum::POLICY)),
        _ => Warm::Pool(pool),
    };
    let t1 = Instant::now();
    let result = anchor_result(w, &mut warm, &w.anchor())?;
    tr.record("anchor", 0, root, t1, Instant::now());
    tr.close(root);
    Ok((warm, result))
}

/// Seconds from spawning a fresh process to its pool being warm, once
/// per sample.
fn setup_samples(w: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..setup_sample_count(w))
        .map(|_| {
            let t0 = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--workload", w.name(), "--setup-probe"])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn set-up probe: {e}"))?;
            let mut line = String::new();
            if let Some(out) = child.stdout.take() {
                let _ = BufReader::new(out).read_line(&mut line);
            }
            let dt = t0.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            if line.trim() == "warm" && status.success() {
                Ok(dt)
            } else {
                Err(format!("set-up probe failed ({status})"))
            }
        })
        .collect()
}

fn read_reference(w: Workload) -> Result<Vec<f64>, String> {
    let path = reference_path(w);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<f64>()
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Largest relative deviation of `got` from `want`.
fn max_rel_dev(got: &[f64], want: &[f64]) -> Result<f64, String> {
    if got.len() != want.len() {
        return Err(format!(
            "anchor has {} values, reference {}",
            got.len(),
            want.len()
        ));
    }
    Ok(got
        .iter()
        .zip(want)
        .map(|(g, r)| ((g - r) / r).abs())
        .fold(0.0, f64::max))
}

/// Compute the accurate reference for `w` and write it next to the
/// benchmark.
fn write_reference(w: Workload) -> Result<(), String> {
    let spec = w.reference_spec();
    let pool = FarmPool::<ChannelWorld>::start(WORKERS).map_err(|e| e.to_string())?;
    let mut warm = match w {
        Workload::SweepServe => Warm::Service(SpectrumService::new(pool, spectrum::POLICY)),
        _ => Warm::Pool(pool),
    };
    let values = anchor_result(w, &mut warm, &spec)?;
    let what = match w {
        Workload::SweepServe => format!(
            "delta_c(k) of standard CDM on the sweep's {} modes, production preset",
            spec.ks.len()
        ),
        _ => format!(
            "l(l+1)C_l, l = 2..={}, of standard CDM on all {} points of the cl_k_grid, {:?}",
            w.l_max(),
            spec.ks.len(),
            spec.method
        ),
    };
    let mut text = format!(
        "# perfbench reference for {}: {what}\n# regenerate: python3 perfbench/run.py --workload {} --write-reference\n",
        w.name(),
        w.name()
    );
    for v in values {
        text.push_str(&format!("{v:e}\n"));
    }
    let path = reference_path(w);
    std::fs::create_dir_all(path.parent().unwrap_or(&bench_dir())).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `git` is not needed: read `.git/HEAD` when the working directory is a
/// checkout with history, else report `unknown`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
            return id.trim().to_string();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(r)) {
            return line.split(' ').next().unwrap_or("unknown").to_string();
        }
        return "unknown".into();
    }
    if head.is_empty() {
        "unknown".into()
    } else {
        head.to_string()
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    if args.setup_probe {
        let code = match warm_up(w, &mut Tracer::new(false)) {
            Ok(_) => {
                println!("warm");
                let _ = std::io::stdout().flush();
                0
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        };
        std::process::exit(code);
    }
    if args.write_reference {
        if let Err(e) = write_reference(w) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }

    let reference = read_reference(w).unwrap_or_else(|e| {
        eprintln!("perfbench: no reference: {e}");
        std::process::exit(1);
    });
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let setup = setup_samples(w).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let (mut warm, anchor) = warm_up(w, &mut tr).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    out.attempted += 1;
    let sane = match w {
        Workload::SweepServe => check::transfer_sane(&anchor),
        _ => check::band_power_sane(&anchor),
    };
    let result_dev = match sane.and_then(|()| max_rel_dev(&anchor, &reference)) {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("anchor: {e}"));
            0.0
        }
    };

    match &mut warm {
        Warm::Pool(pool) => spectrum::run(
            w,
            pool,
            args.seed,
            args.seconds,
            args.trace,
            &mut tr,
            &mut out,
        ),
        Warm::Service(svc) => {
            let mut replay_pool = if args.trace {
                Some(
                    FarmPool::<ChannelWorld>::start(WORKERS).unwrap_or_else(|e| {
                        eprintln!("perfbench: replay pool: {e}");
                        std::process::exit(1);
                    }),
                )
            } else {
                None
            };
            serve::run(
                svc,
                replay_pool.as_mut(),
                args.seed,
                args.seconds,
                &mut tr,
                &mut out,
            )
        }
    }
    drop(warm);

    out.e2e.put("setup_s", median(&setup), setup.len());
    out.e2e.put("result_dev", result_dev, 1);
    out.e2e.put("peak_rss_mb", metrics::peak_rss_mb(), 1);
    if args.trace {
        let ops = out.attempted.max(1);
        out.layer
            .put("trace.record_s", tr.cost_seconds() / ops as f64, tr.len());
    }
    out.failed = out.failed.min(out.attempted);

    let (table, values) = if args.trace {
        (PER_LAYER, &out.layer)
    } else {
        (END_TO_END, &out.e2e)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"workers\": {WORKERS}, \"commit\": \"{}\", \"samples\": {}, \"extra\": {}, \"extra_samples\": {}, \"notes\": [{}]}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        commit(),
        values.samples_json(table),
        out.extra.values_json(SWEEP_ONLY),
        out.extra.samples_json(SWEEP_ONLY),
        out.notes
            .iter()
            .map(|n| format!("{:?}", n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        values.values_json(table)
    );
    let dir = bench_dir().join("out");
    if std::fs::create_dir_all(&dir).is_ok() {
        let stem = format!("{}_seed{}_trace{}", w.name(), args.seed, args.trace as u8);
        let _ = std::fs::write(
            dir.join(format!("{stem}.json")),
            format!("{record}\n{result}\n"),
        );
        if args.trace {
            let _ = std::fs::write(dir.join(format!("{stem}.spans.json")), tr.to_json());
        }
    }
    println!("{record}");
    println!("{result}");
}
