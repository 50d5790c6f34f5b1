//! A deliberately small HTTP/1.1 subset: enough for a JSON estimation
//! front door, nothing more.
//!
//! Supported: `GET`/`POST`, `Content-Length` bodies, keep-alive (the
//! default in 1.1) and `Connection: close`. Not supported — and answered
//! with a clean `400`/`413` instead of undefined behavior: chunked
//! transfer encoding, continuation lines, pipelined requests beyond
//! back-to-back parsing of complete messages, upgrade.
//!
//! Parsing is incremental: a connection thread appends whatever bytes
//! arrived to its buffer and calls [`parse_request`], which either
//! consumes one complete request or reports [`Parse::Incomplete`] (wait
//! for more bytes) or [`Parse::Bad`] (the connection is garbage; answer
//! 400 and close). Limits are enforced *while* the message is incomplete, so a
//! peer cannot balloon memory by never finishing its headers.

/// Maximum size of the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path plus optional `?query`).
    pub target: String,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The path component of the target (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query string, if any (without the `?`).
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the peer asked to close after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Convenience constructor for tests and in-process dispatch.
    pub fn new(method: &str, target: &str, body: impl Into<Vec<u8>>) -> Self {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }
}

/// Result of an incremental parse attempt.
#[derive(Debug)]
pub enum Parse {
    /// Not enough bytes yet; keep the buffer and read more.
    Incomplete,
    /// One complete request; `consumed` bytes must be drained from the
    /// front of the buffer (pipelined bytes after it stay).
    Done {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The stream is not valid HTTP within our limits; answer 400/413 and
    /// close.
    Bad(&'static str),
}

/// Attempts to parse one complete request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Parse::Bad("request head exceeds limit");
        }
        return Parse::Incomplete;
    };
    if head_end > MAX_HEAD {
        return Parse::Bad("request head exceeds limit");
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Parse::Bad("request head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parse::Bad("malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return Parse::Bad("unsupported HTTP version");
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Bad("malformed header line");
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers
        .iter()
        .any(|(k, v)| *k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Parse::Bad("transfer-encoding not supported");
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) if n <= MAX_BODY => n,
            Ok(_) => return Parse::Bad("body exceeds limit"),
            Err(_) => return Parse::Bad("malformed content-length"),
        },
        None => 0,
    };
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Incomplete;
    }
    Parse::Done {
        request: Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: buf[body_start..body_start + content_length].to_vec(),
        },
        consumed: body_start + content_length,
    }
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to serialize back to the peer.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }

    /// Serializes status line, headers, and body into wire bytes.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_post_with_body() {
        let raw = b"POST /v1/estimate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        match parse_request(raw) {
            Parse::Done { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.path(), "/v1/estimate");
                assert_eq!(request.query(), Some("x=1"));
                assert_eq!(request.header("host"), Some("h"));
                assert_eq!(request.body, b"body");
                assert!(!request.wants_close());
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_head_and_body_wait_for_more_bytes() {
        assert!(matches!(
            parse_request(b"GET /metrics HTTP/1.1\r\n"),
            Parse::Incomplete
        ));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Parse::Incomplete
        ));
    }

    #[test]
    fn pipelined_second_request_stays_in_the_buffer() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match parse_request(raw) {
            Parse::Done { request, consumed } => {
                assert_eq!(request.path(), "/a");
                assert_eq!(&raw[consumed..], b"GET /b HTTP/1.1\r\n\r\n");
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_oversize_and_chunked() {
        assert!(matches!(parse_request(b"NOPE\r\n\r\n"), Parse::Bad(_)));
        let oversize = vec![b'a'; MAX_HEAD + 8];
        assert!(matches!(parse_request(&oversize), Parse::Bad(_)));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Parse::Bad(_)
        ));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parse::Bad(_)
        ));
    }

    #[test]
    fn response_bytes_carry_length_and_connection() {
        let r = Response::json(200, "{}".to_string());
        let bytes = String::from_utf8(r.to_bytes(true)).unwrap();
        assert!(bytes.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(bytes.contains("Content-Length: 2\r\n"));
        assert!(bytes.contains("Connection: keep-alive\r\n"));
        assert!(bytes.ends_with("\r\n\r\n{}"));
        let closed = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(closed.contains("Connection: close\r\n"));
    }
}
