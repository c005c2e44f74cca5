//! Command-line plumbing shared by the sweep examples and the `min_serve`
//! binary: one `--flag value` option parser ([`Opts`]), the `BENCH_QUICK`
//! switch ([`bench_quick`]), and the run → time → report-or-exit →
//! write helpers every sweep repeats.
//!
//! Bad arguments never panic: [`parse_args_or_exit`] prints the error and
//! the usage line to stderr and exits with status 2, the convention of
//! `min_serve`. A failed run exits with status 1.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Parsed `--flag value` / `--flag` options, consumed flag by flag.
///
/// A flag followed by an argument that does not start with `--` takes it
/// as its value; otherwise the flag is valueless. When a flag repeats, the
/// last occurrence wins. Whatever no `take*` call consumed is reported by
/// [`Opts::finish`] as an unknown option.
#[derive(Debug)]
pub struct Opts {
    entries: Vec<(String, Option<String>)>,
}

impl Opts {
    /// Splits `args` (without the program name) into flags and values.
    /// A positional argument is an error.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut entries = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            entries.push((flag.clone(), value));
        }
        Ok(Opts { entries })
    }

    /// Removes every occurrence of `flag`, returning the last one's value
    /// (`Some(None)` for a valueless flag, `None` when absent).
    fn remove(&mut self, flag: &str) -> Option<Option<String>> {
        let mut last = None;
        self.entries.retain(|(f, value)| {
            let hit = f == flag;
            if hit {
                last = Some(value.clone());
            }
            !hit
        });
        last
    }

    /// Removes and returns `--flag value`.
    pub fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.remove(flag) {
            Some(Some(value)) => Ok(Some(value)),
            Some(None) => Err(format!("{flag} needs a value")),
            None => Ok(None),
        }
    }

    /// Removes and returns a valueless `--flag`.
    pub fn take_bool(&mut self, flag: &str) -> Result<bool, String> {
        match self.remove(flag) {
            Some(Some(value)) => Err(format!("{flag} takes no value (got `{value}`)")),
            Some(None) => Ok(true),
            None => Ok(false),
        }
    }

    /// Removes `--flag value` and parses the value.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse `{text}`")),
            None => Ok(None),
        }
    }

    /// Like [`Opts::take_parsed`], falling back to `default` when absent.
    pub fn take_or<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.take_parsed(flag)?.unwrap_or(default))
    }

    /// Fails on the first option no `take*` call consumed.
    pub fn finish(&self) -> Result<(), String> {
        match self.entries.first() {
            Some((flag, _)) => Err(format!("unknown option `{flag}`")),
            None => Ok(()),
        }
    }
}

/// Parses the process arguments: `read` takes the options it knows, and
/// anything left over is an unknown option. On any error, prints it and
/// `usage` to stderr and exits with status 2.
pub fn parse_args_or_exit<T>(usage: &str, read: impl FnOnce(&mut Opts) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Opts::parse(&args).and_then(|mut opts| {
        let value = read(&mut opts)?;
        opts.finish()?;
        Ok(value)
    });
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}\n{usage}");
        std::process::exit(2)
    })
}

/// Whether the `BENCH_QUICK` environment variable requests smoke-test
/// sizing: set to anything but `0` or the empty string.
pub fn bench_quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Runs `job` and measures its wall time. On error, prints
/// `{what} failed: {error}` to stderr and exits with status 1.
pub fn run_timed<T, E: Display>(what: &str, job: impl FnOnce() -> Result<T, E>) -> (T, Duration) {
    let started = Instant::now();
    match job() {
        Ok(value) => (value, started.elapsed()),
        Err(e) => {
            eprintln!("{what} failed: {e}");
            std::process::exit(1)
        }
    }
}

/// The "completed in …" line of a sweep run on `threads` worker threads
/// (0 = one per core).
pub fn completed_line(elapsed: Duration, threads: usize) -> String {
    let threads = match threads {
        0 => "auto".to_string(),
        t => t.to_string(),
    };
    format!("completed in {elapsed:.2?} with {threads} worker thread(s) requested")
}

/// Writes an artifact to `path` and reports `{what} written to {path}`.
/// On an I/O error, prints it to stderr and exits with status 1.
pub fn write_artifact(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    println!("{what} written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_value_pairs_parse_and_finish_clean() {
        let mut o = opts(&["--threads", "4", "--seed", "7", "--out", "x.json"]).unwrap();
        assert_eq!(o.take_or("--threads", 0usize), Ok(4));
        assert_eq!(o.take_or("--seed", 1u64), Ok(7));
        assert_eq!(o.take_or("--cycles", 600u64), Ok(600));
        assert_eq!(o.take("--out"), Ok(Some("x.json".to_string())));
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn a_repeated_flag_takes_its_last_value() {
        let mut o = opts(&["--threads", "1", "--threads", "8"]).unwrap();
        assert_eq!(o.take_or("--threads", 0usize), Ok(8));
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn a_missing_value_is_an_error() {
        let mut o = opts(&["--out"]).unwrap();
        assert_eq!(o.take("--out"), Err("--out needs a value".to_string()));
        // A following flag is not taken as the value.
        let mut o = opts(&["--out", "--threads", "2"]).unwrap();
        assert_eq!(o.take("--out"), Err("--out needs a value".to_string()));
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        let mut o = opts(&["--threads", "x"]).unwrap();
        assert_eq!(
            o.take_or("--threads", 0usize),
            Err("--threads: cannot parse `x`".to_string())
        );
    }

    #[test]
    fn unknown_flags_and_positionals_are_errors() {
        let mut o = opts(&["--threads", "2", "--bogus", "1"]).unwrap();
        assert_eq!(o.take_or("--threads", 0usize), Ok(2));
        assert_eq!(o.finish(), Err("unknown option `--bogus`".to_string()));
        assert_eq!(
            opts(&["stray"]).unwrap_err(),
            "unexpected argument `stray`".to_string()
        );
    }

    #[test]
    fn boolean_flags_are_valueless() {
        let mut o = opts(&["--wait", "--once", "yes"]).unwrap();
        assert_eq!(o.take_bool("--wait"), Ok(true));
        assert_eq!(o.take_bool("--absent"), Ok(false));
        assert_eq!(
            o.take_bool("--once"),
            Err("--once takes no value (got `yes`)".to_string())
        );
        assert_eq!(o.finish(), Ok(()));
    }
}
