//! A tiny blocking HTTP/1.1 client over one keep-alive connection — just
//! enough for the benchmark's load driver, the examples and the integration
//! tests. Not a general-purpose client: no redirects, no TLS, no chunked
//! bodies (the server never sends any), and no retry — a transport error or
//! a 503 goes back to the caller as is.

use crate::http::{parse_response, HttpError, HttpLimits, Method, Request};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive client connection.
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    limits: HttpLimits,
}

/// A received response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl HttpClient {
    /// Connects with the given timeouts applied to every read and write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { writer: stream, reader, limits: HttpLimits::default() })
    }

    /// Sends one request and reads its response. The connection stays open
    /// for the next call unless the server asked to close.
    pub fn request(
        &mut self,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, HttpError> {
        let req = Request {
            method,
            path: path.to_string(),
            query: String::new(),
            headers: vec![("host".to_string(), "rulekit".to_string())],
            body: body.to_vec(),
            keep_alive: true,
        };
        self.writer.write_all(&req.serialize())?;
        self.writer.flush()?;
        let (status, headers, body) = parse_response(&mut self.reader, &self.limits)?;
        Ok(ClientResponse { status, headers, body })
    }

    /// Sends `count` copies of the same request back-to-back before reading
    /// any response, then reads all `count` responses — HTTP pipelining,
    /// the highest-throughput shape one connection supports.
    pub fn pipeline(
        &mut self,
        method: Method,
        path: &str,
        body: &[u8],
        count: usize,
    ) -> Result<Vec<ClientResponse>, HttpError> {
        let req = Request {
            method,
            path: path.to_string(),
            query: String::new(),
            headers: vec![("host".to_string(), "rulekit".to_string())],
            body: body.to_vec(),
            keep_alive: true,
        };
        let bytes = req.serialize();
        for _ in 0..count {
            self.writer.write_all(&bytes)?;
        }
        self.writer.flush()?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let (status, headers, body) = parse_response(&mut self.reader, &self.limits)?;
            out.push(ClientResponse { status, headers, body });
        }
        Ok(out)
    }

    /// Convenience: `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request(Method::Get, path, b"")
    }

    /// Convenience: `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, json: &str) -> Result<ClientResponse, HttpError> {
        self.request(Method::Post, path, json.as_bytes())
    }
}
