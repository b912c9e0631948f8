//! `rfbench`: runs the benchmark workloads and prints every metric, one
//! per line, then one JSON summary line. See `README.md`.

mod child;
mod parent;

use rfbench::{Scale, Workload};
use std::process::ExitCode;

/// Where traces and the replay store go, relative to the working
/// directory.
const OUT_DIR: &str = "target/rfbench";

const USAGE: &str = "\
usage: rfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]

Runs the rfstudy benchmark and prints every metric with its unit, then
one JSON line: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.

  --workload NAME  regsweep, windowsweep, store-replay, checked, or all
                   (default: all)
  --seed N         workload seed, a non-negative integer (default: 1, the
                   reference seed whose answers are pinned)
  --seconds S      measure the rounds that fit in S seconds after set-up
                   (default: 0, the minimum rounds only)
  --trace [0|1]    add one traced round; the JSON line then carries the
                   per-layer metrics instead of the end-to-end ones
  --smoke          2k commits per point and the fewest rounds; skips the
                   pinned-digest check

Exit status: 0 when every request was answered correctly, 1 when any
failed, 2 on a usage error or a debug build.";

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("rfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__child") {
        return child_main(&args[1..]);
    }
    // Only the variables the parent sets reach the measured processes.
    // Nothing else runs yet, so changing the environment is race-free.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RF_") {
            std::env::remove_var(&key);
        }
    }
    match parse(&args) {
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(opts)) => parent::run(&opts),
        Err(e) => {
            eprintln!("rfbench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A strictly parsed non-negative integer: ASCII digits only.
fn parse_u64(flag: &str, raw: Option<&String>) -> Result<u64, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{flag} {raw:?} is not a non-negative integer"));
    }
    raw.parse()
        .map_err(|_| format!("{flag} {raw:?} is out of range"))
}

fn parse_workload(raw: Option<&String>) -> Result<Option<Workload>, String> {
    match raw.map(String::as_str) {
        None => Err("--workload needs a value".to_owned()),
        Some("all") => Ok(None),
        Some(name) => Workload::parse(name).map(Some).ok_or_else(|| {
            format!("unknown workload {name:?} (regsweep, windowsweep, store-replay, checked, all)")
        }),
    }
}

/// Parses the parent's arguments; `Ok(None)` asks for the usage text.
fn parse(args: &[String]) -> Result<Option<parent::Opts>, String> {
    let mut opts = parent::Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0,
        trace: false,
        scale: Scale { smoke: false },
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        let value = args.get(i + 1);
        i += 2;
        match flag {
            "--help" | "-h" => return Ok(None),
            "--workload" => {
                opts.workloads = parse_workload(value)?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            }
            "--seed" => opts.seed = parse_u64(flag, value)?,
            "--seconds" => {
                opts.seconds = parse_u64(flag, value)?;
                if opts.seconds > 3600 {
                    return Err(format!("--seconds {} is more than an hour", opts.seconds));
                }
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => opts.trace = false,
                Some("1") => opts.trace = true,
                _ => {
                    opts.trace = true;
                    i -= 1;
                }
            },
            "--smoke" => {
                opts.scale.smoke = true;
                i -= 1;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Some(opts))
}

/// `__child round|probe ...`: the measured side, spawned by the parent.
fn child_main(args: &[String]) -> ExitCode {
    let result = (|| {
        let kind = args.first().map(String::as_str);
        let mut round = child::RoundArgs {
            workload: Workload::RegSweep,
            seed: 1,
            scale: Scale { smoke: false },
            traced: false,
            spawned_at_ns: 0,
        };
        let mut i = 1;
        while i < args.len() {
            let value = args.get(i + 1);
            match args[i].as_str() {
                "--workload" => {
                    round.workload = parse_workload(value)?.ok_or("a child runs one workload")?;
                }
                "--seed" => round.seed = parse_u64("--seed", value)?,
                "--spawned-at" => {
                    round.spawned_at_ns = u128::from(parse_u64("--spawned-at", value)?)
                }
                "--smoke" | "--traced" => {
                    round.scale.smoke |= args[i] == "--smoke";
                    round.traced |= args[i] == "--traced";
                    i -= 1;
                }
                other => return Err(format!("unknown child argument {other:?}")),
            }
            i += 2;
        }
        match kind {
            Some("round") => child::round(&round),
            Some("probe") => child::probe(round.scale),
            _ => Err(format!("unknown child kind {kind:?}")),
        }
    })();
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rfbench child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Process measurements (64-bit Linux).
mod sys {
    use std::time::{SystemTime, UNIX_EPOCH};

    /// Nanoseconds since the Unix epoch.
    pub fn epoch_ns() -> u128 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    }

    /// User + system CPU time of this process — all threads, exited ones
    /// included — in nanoseconds. A store replay round uses ~35 ms of CPU,
    /// too little for the 10 ms ticks of `/proc/self/stat`.
    pub fn cpu_ns() -> u64 {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux, checked at compile time below), and
        // `clock_gettime` writes only through that pointer.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is always readable");
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("rfbench reads 64-bit Linux process clocks and /proc");

    /// Peak resident set size (`VmHWM`) of this process, in KiB.
    pub fn peak_rss_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }
}
