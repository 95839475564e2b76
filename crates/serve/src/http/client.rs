//! A minimal blocking HTTP/1.1 client over one `TcpStream`, zero
//! dependencies — just enough to drive the server from benches, tests, and
//! examples (keep-alive reuse, `Content-Length`-framed responses). Not a
//! general-purpose client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Header fields; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent connection to one server; requests issued through it reuse
/// the socket (keep-alive) until the server closes it.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects with a 5 s I/O timeout on both directions.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a body (framed with `Content-Length`).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Issues one request and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        write_request(&mut self.stream, method, path, body.unwrap_or(&[]))?;
        self.read_response()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        let body = match content_length {
            Some(n) => {
                let mut body = vec![0u8; n];
                self.reader.read_exact(&mut body)?;
                body
            }
            None => {
                // Close-delimited: drain until EOF.
                let mut body = Vec::new();
                self.reader.read_to_end(&mut body)?;
                body
            }
        };
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Sends one `Content-Length`-framed request as a single `write_all`: the
/// client sets `TCP_NODELAY`, so every write leaves as a segment of its own.
fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(64 + method.len() + path.len() + body.len());
    write!(
        message,
        "{method} {path} HTTP/1.1\r\nhost: aneci\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )?;
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// One-shot convenience: connect, `GET path`, disconnect.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    HttpClient::connect(addr)?.get(path)
}

/// One-shot convenience: connect, `POST path`, disconnect.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    HttpClient::connect(addr)?.post(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::WriteLog;

    #[test]
    fn a_request_is_one_write_with_content_length_framing() {
        let mut log = WriteLog::default();
        write_request(&mut log, "POST", "/v1/query", br#"{"op":"top_k","node":0}"#).unwrap();
        assert_eq!(
            String::from_utf8(log.0.concat()).unwrap(),
            "POST /v1/query HTTP/1.1\r\nhost: aneci\r\ncontent-length: 23\r\n\r\n\
             {\"op\":\"top_k\",\"node\":0}"
        );
        assert_eq!(log.0.len(), 1, "the request took {} writes", log.0.len());

        let mut log = WriteLog::default();
        write_request(&mut log, "GET", "/v1/healthz", &[]).unwrap();
        assert_eq!(
            log.0,
            [b"GET /v1/healthz HTTP/1.1\r\nhost: aneci\r\ncontent-length: 0\r\n\r\n".to_vec()]
        );
    }
}
