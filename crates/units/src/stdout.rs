//! The one stdout rule of every binary in the workspace: output goes
//! through one locked handle, and a reader that closed the pipe
//! (`| head`) ends the output, not the run.

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;

/// The process's stdout behind one locked handle, with the first write
/// error: output stops there. `write!` and `writeln!` print to it, and
/// [`Stdout::finish`] turns the error into the exit status.
pub struct Stdout {
    lock: io::StdoutLock<'static>,
    status: io::Result<()>,
}

impl Stdout {
    /// Locks the process's stdout.
    pub fn lock() -> Self {
        Stdout {
            lock: io::stdout().lock(),
            status: Ok(()),
        }
    }

    /// Prints `args` unless an earlier write failed (the method behind
    /// `write!` and `writeln!`).
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.status.is_ok() {
            self.status = self.lock.write_fmt(args);
        }
    }

    /// Flushes the output and returns the exit status of `binary`: 1 with
    /// `binary: writing stdout: <error>` on stderr when a write failed for
    /// any reason but a closed pipe, otherwise 1 when `failed` and 0 when
    /// not. A closed pipe is not a failure.
    pub fn finish(mut self, binary: &str, failed: bool) -> ExitCode {
        match self.status.and_then(|()| self.lock.flush()) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                eprintln!("{binary}: writing stdout: {e}");
                ExitCode::FAILURE
            }
            _ if failed => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        }
    }
}
