//! In-process half of the repository benchmark. `perfbench/run.py`
//! builds this binary and drives it; each subcommand prints one JSON
//! object on stdout and exits 0, or prints an error on stderr and exits 1.
//!
//! ```text
//! asd-perfbench replay     --seed N --seconds S --dir DIR [--spans FILE] [--layers 1]
//! asd-perfbench serve-fill --seed N --addr HOST:PORT --digests FILE [--spans FILE]
//! asd-perfbench serve-load --seed N --addr HOST:PORT --digests FILE --seconds S --conns C
//!                          --cal-threads T [--ping-ms MS] [--daemon-pid PID] [--spans FILE]
//! asd-perfbench calibrate  --threads T --samples N
//! ```

mod layers;
mod replay;
mod serve;
mod util;

use std::process::ExitCode;
use util::{Calibrator, Flags, Obj};

/// `calibrate`: the median calibration sample of `--threads` threads
/// taking `--samples` samples each at once (one thread per core the
/// measured program uses).
fn calibrate(flags: &Flags) -> Result<String, String> {
    let threads: usize = flags.num("threads")?;
    let samples: usize = flags.num("samples")?;
    let mut all: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut cal = Calibrator::new();
                    (0..samples).map(|_| cal.sample_ms()).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("calibration thread panicked")).collect()
    });
    if all.is_empty() {
        return Err("--threads and --samples must be positive".to_string());
    }
    all.sort_by(f64::total_cmp);
    Ok(Obj::new()
        .num("cal_ms", all[all.len() / 2])
        .num("cal_nominal_ms", Calibrator::NOMINAL_MS)
        .finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Flags::parse(args.get(1..).unwrap_or(&[])).and_then(|flags| {
        match args.first().map(String::as_str) {
            Some("replay") => replay::main(&flags),
            Some("serve-fill") => serve::fill(&flags),
            Some("serve-load") => serve::load(&flags),
            Some("calibrate") => calibrate(&flags),
            _ => Err("usage: asd-perfbench replay|serve-fill|serve-load|calibrate --flag value"
                .to_string()),
        }
    });
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("asd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
