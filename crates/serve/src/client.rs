//! A blocking TCP client for the serve protocol.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use stco_store::ArtifactKey;

use stco_obs::json::JsonValue;

use crate::protocol::{read_frame, write_frame, Reply, Request, ServerStats};
use crate::service::PredictInput;
use crate::{Result, ServeError};

/// One connection to a running [`crate::TcpServer`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection fails.
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport
    /// failures (a closed connection is a protocol error here — every
    /// request owes a reply).
    pub fn roundtrip(&mut self, request: &Request) -> Result<Reply> {
        write_frame(&mut self.writer, &request.to_json())?;
        match read_frame(&mut self.reader)? {
            Some(doc) => Reply::from_json(&doc),
            None => Err(ServeError::Protocol {
                context: "server closed the connection before replying".to_string(),
            }),
        }
    }

    fn expect_ok(reply: Reply) -> Result<Reply> {
        match reply {
            Reply::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Ok(other),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn ping(&mut self) -> Result<()> {
        match Self::expect_ok(self.roundtrip(&Request::Ping)?)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to load an artifact; returns the model id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with the server's typed code on failure.
    pub fn load(&mut self, kind: &str, key: ArtifactKey) -> Result<String> {
        let _span = stco_obs::span!("serve.client_load");
        self.load_with_shard(kind, key).map(|(model, _shard)| model)
    }

    /// [`Client::load`], also returning the worker shard the model's
    /// content address routes to.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with the server's typed code on failure.
    pub fn load_with_shard(&mut self, kind: &str, key: ArtifactKey) -> Result<(String, usize)> {
        let _span = stco_obs::span!("serve.client_load");
        let request = Request::Load {
            kind: kind.to_string(),
            key,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Reply::Loaded { model, shard } => Ok((model, shard)),
            other => Err(unexpected(&other)),
        }
    }

    /// Drains one worker shard for a hot restart: returns once the
    /// shard is quiescent. New work routed to it gets the typed
    /// `draining` reject until [`Client::resume`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] (`bad-input` for an out-of-range shard)
    /// or transport failures.
    pub fn drain(&mut self, shard: usize) -> Result<()> {
        match Self::expect_ok(self.roundtrip(&Request::Drain { shard })?)? {
            Reply::Drained { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Reopens a drained shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] (`bad-input` for an out-of-range shard)
    /// or transport failures.
    pub fn resume(&mut self, shard: usize) -> Result<()> {
        match Self::expect_ok(self.roundtrip(&Request::Resume { shard })?)? {
            Reply::Resumed { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// One prediction against a loaded model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with the server's typed code
    /// (`queue-full`, `deadline-exceeded`, `bad-input`, …) on failure.
    pub fn predict(
        &mut self,
        model: &str,
        input: &PredictInput,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<f64>> {
        let request = Request::Predict {
            model: model.to_string(),
            input: input.clone(),
            deadline_ms,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Reply::Values(values) => Ok(values),
            other => Err(unexpected(&other)),
        }
    }

    /// Server status: queue depth, loaded models, request/reply/error
    /// counters, and the slow-request log.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match Self::expect_ok(self.roundtrip(&Request::Stats)?)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Full metrics exposition: the registry snapshot as JSON plus the
    /// Prometheus-style text rendering.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn metrics(&mut self) -> Result<(JsonValue, String)> {
        match Self::expect_ok(self.roundtrip(&Request::Metrics)?)? {
            Reply::Metrics { snapshot, text } => Ok((snapshot, text)),
            other => Err(unexpected(&other)),
        }
    }

    /// Calls the [`crate::Extension`] the server has attached under
    /// `name` and returns its reply body.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] (`bad-input` when nothing is attached
    /// under `name`, otherwise the handler's own typed code) or
    /// transport failures.
    pub fn extension(&mut self, name: &str, body: JsonValue) -> Result<JsonValue> {
        let request = Request::Extension {
            name: name.to_string(),
            body,
        };
        match Self::expect_ok(self.roundtrip(&request)?)? {
            Reply::Extension(body) => Ok(body),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<()> {
        match Self::expect_ok(self.roundtrip(&Request::Shutdown)?)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> ServeError {
    ServeError::Protocol {
        context: format!("unexpected reply {reply:?}"),
    }
}
