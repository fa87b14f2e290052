//! Runs one benchmark workload in this process and prints what each
//! pass measured as one JSON line; `run.py` turns that into the
//! benchmark's result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! perfbench --record NAME --seed N     # reference outputs, one per line
//! ```

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use gridvm_perfbench::span::Recorder;
use gridvm_perfbench::{proc_status_mib, record_lines, run_for, workload, Pass};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    record: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--record" => {
                args.workload = value()?;
                args.record = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn pass_json(p: &Pass) -> String {
    let layer: Vec<String> = p
        .layer
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!(
        "{{\"master\":{},\"wall_s\":{},\"setup_s\":{},\"elapsed_s\":{},\"attempted\":{},\"failed\":{},\"layer\":{{{}}}}}",
        p.master,
        p.wall_s,
        p.setup_s,
        p.elapsed_s,
        p.attempted,
        p.failed,
        layer.join(",")
    )
}

fn report(name: &str, rec: &Recorder, warmup: &Pass, passes: &[Pass]) -> String {
    let measured: Vec<String> = passes.iter().map(pass_json).collect();
    let mut out = format!(
        "{{\"workload\":{},\"trace\":{},\"warmup\":{},\"passes\":[{}],\"failures\":[",
        json_str(name),
        u8::from(rec.tracing()),
        pass_json(warmup),
        measured.join(",")
    );
    let failures: Vec<String> = std::iter::once(warmup)
        .chain(passes)
        .flat_map(|p| p.failures.iter().map(|f| json_str(f)))
        .collect();
    out.push_str(&failures.join(","));
    let _ = write!(out, "],\"peak_rss_mib\":{}}}", proc_status_mib("VmHWM"));
    out
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if args.record {
        for line in record_lines(w.as_ref(), args.seed) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let mut rec = Recorder::new(args.trace);
    let (warmup, passes) = run_for(
        w.as_ref(),
        args.seed,
        Duration::from_secs_f64(args.seconds),
        &mut rec,
    );
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            rec.export(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report(w.name(), &rec, &warmup, &passes));
    ExitCode::SUCCESS
}
