//! A small blocking client for the JSON-lines protocol, used by the
//! integration tests, the throughput benchmark, and scriptable tooling.

use crate::json::Json;
use crate::wire::{self, MAX_LINE_BYTES};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a running `psgl-service`.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A decoded error response (`"ok": false`).
#[derive(Clone, Debug)]
pub struct RemoteError {
    /// Stable error code (`overloaded`, `budget_exceeded`, `cancelled`, ...).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// The full response object — carries code-specific fields such as a
    /// `cancelled` response's `resume_token`, `reason`, and
    /// `partial_count`.
    pub details: Json,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RemoteError {}

/// Anything a request can fail with: transport trouble or a server-side
/// error response.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (or the server closed the connection).
    Io(io::Error),
    /// The server replied, but with `"ok": false`.
    Remote(RemoteError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, when this is a remote error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Remote(e) => Some(e.code.as_str()),
            ClientError::Io(_) => None,
        }
    }

    /// The resume token of a `cancelled` response, when the suspended run
    /// checkpointed. Feed it back as the `"resume"` field of the next
    /// query to continue the run.
    pub fn resume_token(&self) -> Option<&str> {
        match self {
            ClientError::Remote(e) => e.details.get("resume_token").and_then(Json::as_str),
            ClientError::Io(_) => None,
        }
    }
}

fn to_result(response: Json) -> Result<Json, ClientError> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(response);
    }
    let field = |k: &str| response.get(k).and_then(Json::as_str).unwrap_or("<missing>").to_string();
    Err(ClientError::Remote(RemoteError {
        code: field("error"),
        message: field("message"),
        details: response,
    }))
}

impl Client {
    /// Connects to a server. The socket gets `TCP_NODELAY`: a request is
    /// one small write (see [`wire`]) that must leave now, not after the
    /// ACK of whatever this connection sent before.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request object and returns the decoded response line.
    /// An `"ok": false` response becomes [`ClientError::Remote`].
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        self.send(request)?;
        to_result(self.read_response()?)
    }

    fn send(&mut self, request: &Json) -> io::Result<()> {
        wire::write_json(&mut self.writer, request)
    }

    fn read_response(&mut self) -> Result<Json, ClientError> {
        match wire::read_json(&mut self.reader, MAX_LINE_BYTES) {
            Ok(Some(value)) => Ok(value),
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(e) => Err(ClientError::Io(e.into_io())),
        }
    }

    /// `load`: registers a graph under `name`. `format` is `"edge-list"`,
    /// `"binary"`, or `"fixture"`.
    pub fn load(&mut self, name: &str, path: &str, format: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([
            ("verb", Json::from("load")),
            ("name", Json::from(name)),
            ("path", Json::from(path)),
            ("format", Json::from(format)),
        ]))
    }

    /// `count` with no overrides; see [`Self::request`] for full control.
    pub fn count(&mut self, graph: &str, pattern: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([
            ("verb", Json::from("count")),
            ("graph", Json::from(graph)),
            ("pattern", Json::from(pattern)),
        ]))
    }

    /// `list`: streams chunk lines into `on_chunk` and returns the final
    /// `done` line. `on_chunk` receives each `{"chunk":i,"instances":[..]}`.
    pub fn list(
        &mut self,
        request: &Json,
        mut on_chunk: impl FnMut(&Json),
    ) -> Result<Json, ClientError> {
        self.send(request)?;
        loop {
            let line = to_result(self.read_response()?)?;
            if line.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(line);
            }
            on_chunk(&line);
        }
    }

    /// `list` with `"stream": true`: the server emits bounded `page`
    /// events *while the query runs* (so a million-instance answer never
    /// buffers server-side) and finishes with a `done` line carrying the
    /// count. `on_page` receives each `{"page":i,"instances":[..]}` in
    /// order.
    pub fn list_stream(
        &mut self,
        request: &Json,
        mut on_page: impl FnMut(&Json),
    ) -> Result<Json, ClientError> {
        self.send(request)?;
        loop {
            let line = to_result(self.read_response()?)?;
            if line.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(line);
            }
            on_page(&line);
        }
    }

    /// `mutate`: applies one edge batch to a loaded graph. Edges are
    /// `(u, v)` pairs; either list may be empty (not both). The response
    /// carries the new `epoch`, `content_hash`, and `parent_hash`.
    pub fn mutate(
        &mut self,
        graph: &str,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
    ) -> Result<Json, ClientError> {
        let edges = |list: &[(u32, u32)]| {
            Json::Arr(
                list.iter().map(|&(u, v)| Json::Arr(vec![Json::from(u), Json::from(v)])).collect(),
            )
        };
        self.request(&Json::obj([
            ("verb", Json::from("mutate")),
            ("graph", Json::from(graph)),
            ("insert", edges(insert)),
            ("delete", edges(delete)),
        ]))
    }

    /// `subscribe`: registers this connection as an event stream for
    /// `(graph, pattern)` and returns the ack line. After this, the
    /// connection speaks only events — drain them with
    /// [`Self::next_event`] (no further requests on this connection).
    pub fn subscribe(&mut self, graph: &str, pattern: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([
            ("verb", Json::from("subscribe")),
            ("graph", Json::from(graph)),
            ("pattern", Json::from(pattern)),
        ]))
    }

    /// Blocks for the next event line of a subscribed connection: a
    /// `delta` event (signed instance lists) or a `resync` event.
    pub fn next_event(&mut self) -> Result<Json, ClientError> {
        to_result(self.read_response()?)
    }

    /// `cancel`: fires the cancel token of the in-flight query submitted
    /// with this `query_id`. The response's `"found"` says whether such a
    /// query was live.
    pub fn cancel(&mut self, query_id: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([
            ("verb", Json::from("cancel")),
            ("query_id", Json::from(query_id)),
        ]))
    }

    /// `stats`: the server's counters, cache stats, and graph inventory.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj([("verb", Json::from("stats"))]))
    }

    /// `health`: liveness probe.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj([("verb", Json::from("health"))]))
    }

    /// `shutdown`: asks the server to stop.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj([("verb", Json::from("shutdown"))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_sets_tcp_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap(), "both halves are one socket");
    }
}
