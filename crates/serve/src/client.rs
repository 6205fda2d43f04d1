//! A tiny blocking keep-alive HTTP/1.1 client, for the `serve_throughput`
//! perf case (`ds_bench::serveload`), the REPL, and the integration tests. One `Client` = one persistent
//! connection; requests are strictly sequential on it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:8732"` or a `SocketAddr`
    /// string) with TCP_NODELAY set — these are small latency-sensitive
    /// exchanges.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `GET path` → (status, body).
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST path` with a JSON body → (status, body).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        write!(
            self.writer,
            "{} {} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            method,
            path,
            body.len(),
            body
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|text| (status, text))
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut buf = Vec::with_capacity(64);
        self.reader.read_until(b'\n', &mut buf)?;
        while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
            buf.pop();
        }
        String::from_utf8(buf)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 header"))
    }
}
