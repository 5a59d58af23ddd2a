//! The transport: listeners, one connection loop, orderly shutdown. A
//! connection is any `Read + Write` byte stream; a socket family shows
//! only where a listener binds, a connection is accepted and shutdown
//! hangs a connection up.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use super::engine::{Engine, EngineConfig};
use super::protocol::{num, write_err, MAX_REQUEST_BYTES};
use crate::cache::RunCache;
use crate::json::parse_flat;
use crate::scenario::Registry;

/// Ends a connection from another thread.
type HangUp = Box<dyn Fn() + Send>;

/// A connected socket of either family: one byte stream to the
/// connection loop and the client, plus a hang-up for shutdown.
pub(super) trait Socket: Read + Write + Send + 'static {
    /// A second handle that shuts both directions of this socket down,
    /// waking a thread blocked reading it.
    fn hang_up(&self) -> io::Result<HangUp>;
}

impl Socket for TcpStream {
    fn hang_up(&self) -> io::Result<HangUp> {
        let stream = self.try_clone()?;
        Ok(Box::new(move || drop(stream.shutdown(Shutdown::Both))))
    }
}

#[cfg(unix)]
impl Socket for UnixStream {
    fn hang_up(&self) -> io::Result<HangUp> {
        let stream = self.try_clone()?;
        Ok(Box::new(move || drop(stream.shutdown(Shutdown::Both))))
    }
}

/// An acceptor thread's body, bound to its listener.
type Acceptor = Box<dyn FnOnce(&Arc<Shared>) + Send>;

/// State shared by acceptors, connection handlers and the shutdown
/// path.
pub(super) struct Shared {
    engine: Arc<Engine>,
    /// A hang-up per live connection, for shutdown's wake-ups.
    conns: Mutex<HashMap<u64, HangUp>>,
    next_conn: AtomicU64,
    /// One dummy connect per listener, to unpark its acceptor from
    /// `accept` (std has no listener close-from-another-thread).
    wake: Vec<Box<dyn Fn() + Send + Sync>>,
    shutting_down: AtomicBool,
    /// Connection-handler threads: finished ones are joined at the next
    /// accept, the rest by [`Server::join`].
    pub(super) handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, HangUp>> {
        self.conns
            .lock()
            .expect("conns is never held across a panic")
    }

    fn handlers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.handlers
            .lock()
            .expect("handlers is never held across a panic")
    }

    /// Idempotent orderly shutdown: close the queue (draining what is
    /// already admitted), unpark every acceptor, and EOF every blocked
    /// connection read.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.engine.close();
        for wake in &self.wake {
            wake();
        }
        for hang_up in self.conns().values() {
            hang_up();
        }
    }
}

/// Builder for a [`Server`]: pick listeners, cache, and sizing, then
/// [`start`](ServerBuilder::start).
pub struct ServerBuilder {
    registry: Arc<Registry>,
    cache: Option<RunCache>,
    config: EngineConfig,
    tcp: Option<String>,
    unix: Option<PathBuf>,
}

impl ServerBuilder {
    /// Attaches the on-disk run cache.
    pub fn cache(mut self, cache: RunCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the sizing knobs.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port).
    pub fn tcp(mut self, addr: &str) -> Self {
        self.tcp = Some(addr.to_string());
        self
    }

    /// Adds a Unix-domain listener at `path`. A socket file left there
    /// by a previous run is replaced at bind; any other file at `path`
    /// makes [`ServerBuilder::start`] fail with `AlreadyExists`.
    #[cfg(unix)]
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.unix = Some(path.into());
        self
    }

    /// Binds the listeners, pre-spawns the job-thread pool workers, and
    /// starts executor, acceptor and connection threads.
    ///
    /// # Errors
    /// `AlreadyExists`, before anything is bound, if the Unix listener's
    /// path holds a file that is not a socket; otherwise whatever binding
    /// or spawning fails with.
    pub fn start(self) -> io::Result<Server> {
        #[cfg(unix)]
        if let Some(path) = &self.unix {
            remove_stale_socket(path)?;
        }
        let mut config = self.config;
        // A socket server with zero executors would deadlock: handlers
        // block on flights nobody drains. Inline mode is engine-only.
        config.executors = config.executors.max(1);
        // Pre-spawn the shared pool so the first job does not pay
        // thread-creation latency. Acceptors and connection handlers
        // never call pool::run, so they hold no worker slot.
        mmtag_rf::pool::ensure_workers(config.job_threads.saturating_sub(1));
        let engine = Arc::new(Engine::new(self.registry, self.cache, config));

        let mut acceptors: Vec<Acceptor> = Vec::new();
        let mut wake: Vec<Box<dyn Fn() + Send + Sync>> = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &self.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?;
            tcp_addr = Some(local);
            wake.push(Box::new(move || drop(TcpStream::connect(local))));
            acceptors.push(Box::new(move |shared| {
                accept_loop(shared, || {
                    let (stream, _) = listener.accept()?;
                    let _ = stream.set_nodelay(true);
                    Ok(stream)
                })
            }));
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix {
            let listener = UnixListener::bind(path)?;
            let wake_path = path.clone();
            wake.push(Box::new(move || drop(UnixStream::connect(&wake_path))));
            acceptors.push(Box::new(move |shared| {
                accept_loop(shared, || listener.accept().map(|(stream, _)| stream))
            }));
        }
        if acceptors.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve: no listener configured (need --socket and/or --tcp)",
            ));
        }

        let shared = Arc::new(Shared {
            engine: Arc::clone(&engine),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            wake,
            shutting_down: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();
        for i in 0..config.executors {
            let engine = Arc::clone(&engine);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mmtag-serve-exec-{i}"))
                    .spawn(move || engine.run_executor())?,
            );
        }
        for acceptor in acceptors {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmtag-serve-accept".to_string())
                    .spawn(move || acceptor(&shared))?,
            );
        }

        Ok(Server {
            shared,
            threads,
            tcp_addr,
            unix_path: self.unix,
        })
    }
}

/// Clears the way for a Unix listener at `path`: removes a socket left
/// there by an earlier run and refuses any other file (a symlink
/// included) with `AlreadyExists`, so a mistyped `--socket` never
/// deletes a user's file.
#[cfg(unix)]
fn remove_stale_socket(path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{} exists and is not a socket", path.display()),
        )),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Accepts connections until shutdown. Each connection gets its own
/// handler thread; the acceptor itself never touches the engine, so it
/// can never occupy a pool worker slot or an executor. Every accept first
/// joins the handlers that have finished, so a long-lived daemon holds
/// one thread (and its stack) per *open* connection, not per connection
/// ever served.
fn accept_loop<S: Socket>(shared: &Arc<Shared>, accept: impl Fn() -> io::Result<S>) {
    while let Ok(stream) = accept() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break; // the wake-up connect, or a late client
        }
        {
            let mut handlers = shared.handlers();
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].is_finished() {
                    drop(handlers.swap_remove(i).join());
                } else {
                    i += 1;
                }
            }
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(hang_up) = stream.hang_up() {
            shared.conns().insert(conn_id, hang_up);
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("mmtag-serve-conn-{conn_id}"))
            .spawn(move || {
                if serve_conn(&conn_shared.engine, &conn_shared.shutting_down, stream) {
                    conn_shared.initiate_shutdown();
                }
                conn_shared.conns().remove(&conn_id);
            });
        match handle {
            Ok(h) => shared.handlers().push(h),
            Err(_) => drop(shared.conns().remove(&conn_id)),
        }
    }
}

/// One connection: read a line, answer it, write the answer; repeat
/// until EOF, an error, a line cut short (by the cap or by the peer
/// hanging up inside it), or a `shutdown` op. Sweep point lines are
/// written as they resolve. Once `closing` is set, every request is
/// answered `shutting_down`. Returns whether the peer asked the daemon
/// to shut down.
pub(super) fn serve_conn(engine: &Engine, closing: &AtomicBool, stream: impl Read + Write) -> bool {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut out = String::new();
    loop {
        line.clear();
        out.clear();
        // One byte past the cap tells an over-long line from one that
        // ends exactly at it.
        let mut capped = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        if line.last() != Some(&b'\n') {
            if line.len() > MAX_REQUEST_BYTES {
                write_err(&mut out, 0, "line_too_long");
                let _ = reader.get_mut().write_all(out.as_bytes());
            }
            return false;
        }
        // A line that is not UTF-8 is not JSON either: the engine answers
        // it `bad_request` with id 0, as it answers any line that is not
        // one flat object, and the connection stays open.
        let line = std::str::from_utf8(&line).unwrap_or("\u{fffd}");
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let mut io_ok = true;
        let keep_serving = if closing.load(Ordering::SeqCst) {
            let id = parse_flat(trimmed)
                .ok()
                .and_then(|req| num(&req, "id").ok().flatten())
                .unwrap_or(0);
            write_err(&mut out, id, "shutting_down");
            true
        } else {
            // Stream partial results (sweep point lines) as they
            // complete instead of buffering a whole grid's tables.
            let stream = reader.get_mut();
            engine.handle_line_streaming(trimmed, &mut out, &mut |buf: &mut String| {
                io_ok = stream
                    .write_all(buf.as_bytes())
                    .and_then(|()| stream.flush())
                    .is_ok();
                buf.clear();
                io_ok
            })
        };
        if !io_ok || reader.get_mut().write_all(out.as_bytes()).is_err() {
            return false;
        }
        if !keep_serving {
            return true;
        }
    }
}

/// A running daemon: listeners bound, executors draining the admission
/// queue. Stops when some client sends `{"op":"shutdown"}`;
/// [`Server::join`] then reaps every thread.
pub struct Server {
    pub(super) shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Starts building a server over `registry`.
    pub fn builder(registry: Registry) -> ServerBuilder {
        ServerBuilder {
            registry: Arc::new(registry),
            cache: None,
            config: EngineConfig::default(),
            tcp: None,
            unix: None,
        }
    }

    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The engine, for in-process inspection (tests, the bench
    /// harness).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Requests shutdown from within the process — equivalent to a
    /// client sending `{"op":"shutdown"}`.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the daemon has shut down and every thread has been
    /// joined, then removes the Unix socket file.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        loop {
            let handle = self.shared.handlers().pop();
            match handle {
                Some(h) => drop(h.join()),
                None => break,
            }
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}
