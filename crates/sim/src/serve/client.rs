//! The blocking protocol client `mmtag request`, the tests and the
//! repository benchmark use.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use super::transport::Socket;

/// A blocking protocol client: write one request line, read its
/// response.
pub struct Client {
    reader: BufReader<Box<dyn Socket>>,
    /// Reused request staging buffer: the request plus its newline go
    /// out in ONE write. Two small writes on a TCP stream trip the
    /// Nagle/delayed-ACK interaction and cost ~40 ms per round trip.
    wbuf: String,
}

impl Client {
    fn over(stream: Box<dyn Socket>) -> Client {
        Client {
            reader: BufReader::new(stream),
            wbuf: String::new(),
        }
    }

    /// Connects over TCP (with `TCP_NODELAY`, as every line-oriented
    /// request/response protocol should).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client::over(Box::new(stream)))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> io::Result<Client> {
        Ok(Client::over(Box::new(UnixStream::connect(path)?)))
    }

    /// Sends `request` (one JSON object, no newline needed) and returns
    /// its response with the trailing newline trimmed: one line for
    /// every op but `sweep`, whose point lines come first.
    pub fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        let mut response = String::new();
        self.roundtrip_into(request, &mut response)?;
        Ok(response)
    }

    /// Like [`Client::roundtrip`], but appends the response to a
    /// caller-owned buffer. The one request path: writes `request` and its
    /// newline in one write, then reads response lines up to the first
    /// that is not a `sweep_point` line — a reply, a sweep's summary or a
    /// whole-request error — and trims that line's newline.
    pub fn roundtrip_into(&mut self, request: &str, response: &mut String) -> io::Result<()> {
        self.wbuf.clear();
        self.wbuf.push_str(request);
        if !request.ends_with('\n') {
            self.wbuf.push('\n');
        }
        let stream = self.reader.get_mut();
        stream.write_all(self.wbuf.as_bytes())?;
        stream.flush()?;
        loop {
            let start = response.len();
            if self.reader.read_line(response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "serve: connection closed mid-response",
                ));
            }
            if !response[start..].contains("\"op\":\"sweep_point\"") {
                let end = response.trim_end_matches(['\n', '\r']).len();
                response.truncate(end);
                return Ok(());
            }
        }
    }
}
