//! `mmtag` — the command-line face of the mmTag model stack.
//!
//! See `mmtag help` (or [`commands::help`]) for the command surface. All
//! logic lives in [`commands`] as pure functions; this binary only parses
//! `std::env::args`, dispatches, prints, and sets the exit code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match args::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::help());
            return ExitCode::FAILURE;
        }
    };
    // `request` streams stdin's request lines to a daemon and each
    // response to stdout as it lands; every other command returns its
    // output whole.
    let result = if parsed.command.as_deref() == Some("request") {
        commands::request(&parsed, std::io::stdin().lock(), std::io::stdout().lock())
            .map(|()| String::new())
    } else {
        commands::run(&parsed)
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
