//! Distributed sweeps: the serve-hosted work queue, its wire protocol,
//! and the remote worker loop.
//!
//! [`SweepQueue`] implements [`stco_serve::Extension`], so
//! `TcpServer::attach("sweep", queue)` exposes the spec's pending
//! scenarios over serve's opaque `ext` op. Remote workers expand the
//! *same* spec locally (the spec fingerprint is baked into every
//! scenario content address, so a worker with a different spec simply
//! fails the id cross-check), lease scenarios in small batches,
//! evaluate them with their local [`ScenarioEval`], and report
//! objective values back; the server journals each completion through
//! the shared registry — the same journal a local
//! [`crate::SweepEngine`] resumes from.
//!
//! Lease bookkeeping is in-memory only (a lease is an optimization, not
//! a correctness structure): if a worker dies mid-lease,
//! [`SweepQueue::reclaim_leases`] returns its scenarios to the pending
//! queue, and the journal's idempotent completion makes duplicate
//! delivery harmless.
//!
//! # Wire format
//!
//! Every call travels as `{"op":"ext","name":"sweep","body":B}` and is
//! answered `{"ok":"ext","body":R}`; serve passes both bodies through
//! untouched. [`sweep_lease`], [`sweep_complete`] and [`sweep_status`]
//! are the client side.
//!
//! ```text
//! B: {"action":"lease","worker":"w0","max":4}
//! R: {"scenarios":[{"index":3,"id":"00ab…"}]}
//! B: {"action":"complete","scenario":"00ab…","values":[delay,power,area,cost]}
//! R: {"accepted":true}      // false: already complete (idempotent re-delivery)
//! B: {"action":"status"}
//! R: {"total":16,"pending":9,"leased":2,"completed":5}
//! ```
//!
//! A malformed body answers `malformed-frame`, an unknown scenario or
//! bad values `bad-input`, a journal write failure `store`. A server
//! with no queue attached answers `bad-input`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use stco_obs::json::JsonValue;
use stco_serve::{Client, Extension, ServeError};
use stco_store::Registry;

use crate::engine::ScenarioEval;
use crate::journal::{ScenarioResult, SweepJournal};
use crate::scenario::{Scenario, SweepSpec};
use crate::{bad_spec, Result};

/// The name a [`SweepQueue`] is attached under on a `TcpServer`.
const EXTENSION_NAME: &str = "sweep";

/// One scenario leased to a remote sweep worker: its canonical index
/// and its content-address hex (the worker cross-checks both against
/// its locally expanded spec before evaluating).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeasedScenario {
    /// Canonical index in the expanded scenario list.
    pub index: usize,
    /// Scenario content address, 16-hex.
    pub id: String,
}

/// Snapshot of a sweep queue's progress, returned by the `status`
/// action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepQueueStatus {
    /// Total scenarios in the spec.
    pub total: usize,
    /// Scenarios not yet leased or completed.
    pub pending: usize,
    /// Scenarios leased to a worker and awaiting completion.
    pub leased: usize,
    /// Scenarios with a journal record.
    pub completed: usize,
}

struct QueueState {
    pending: VecDeque<usize>,
    leased: BTreeMap<usize, String>,
    completed: BTreeSet<usize>,
}

/// The server-side sweep work queue (see the module docs).
pub struct SweepQueue {
    scenarios: Vec<Scenario>,
    journal: SweepJournal,
    id_to_index: BTreeMap<u64, usize>,
    state: Mutex<QueueState>,
}
impl SweepQueue {
    /// Expands the spec, pre-scans the journal (already-recorded
    /// scenarios never enter the pending queue), and returns the queue
    /// plus the number of scenarios resumed from the journal.
    ///
    /// # Errors
    ///
    /// [`crate::SweepError::BadSpec`] on an invalid spec.
    pub fn open(spec: &SweepSpec, registry: Registry) -> Result<(Arc<SweepQueue>, usize)> {
        let scenarios = spec.expand()?;
        let journal = SweepJournal::open(registry);
        let mut pending = VecDeque::new();
        let mut completed = BTreeSet::new();
        let mut id_to_index = BTreeMap::new();
        for scenario in &scenarios {
            id_to_index.insert(scenario.id.value(), scenario.index);
            if journal.contains(scenario) {
                completed.insert(scenario.index);
            } else {
                pending.push_back(scenario.index);
            }
        }
        let resumed = completed.len();
        Ok((
            Arc::new(SweepQueue {
                scenarios,
                journal,
                id_to_index,
                state: Mutex::new(QueueState {
                    pending,
                    leased: BTreeMap::new(),
                    completed,
                }),
            }),
            resumed,
        ))
    }

    fn state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The canonical scenario list.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// True when every scenario has a journal record.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.state().completed.len() == self.scenarios.len()
    }

    /// Returns outstanding leases to the pending queue (lowest index
    /// first), e.g. after a worker death. Returns how many were
    /// reclaimed.
    pub fn reclaim_leases(&self) -> usize {
        let mut state = self.state();
        let reclaimed = state.leased.len();
        let indices: Vec<usize> = state.leased.keys().copied().collect();
        state.leased.clear();
        for index in indices {
            state.pending.push_back(index);
        }
        reclaimed
    }

    /// Loads every completed scenario from the journal, in canonical
    /// scenario order.
    ///
    /// # Errors
    ///
    /// [`crate::SweepError::Store`] /
    /// [`crate::SweepError::MalformedRecord`] on journal read failures.
    pub fn records(&self) -> Result<Vec<(Scenario, ScenarioResult)>> {
        let completed: Vec<usize> = {
            let state = self.state();
            state.completed.iter().copied().collect()
        };
        let mut records = Vec::with_capacity(completed.len());
        for index in completed {
            let scenario = &self.scenarios[index];
            if let Some(result) = self.journal.load_scenario(scenario)? {
                records.push((scenario.clone(), result));
            }
        }
        Ok(records)
    }

    /// Leases up to `max` pending scenarios to `worker`.
    pub fn lease(&self, worker: &str, max: usize) -> Vec<LeasedScenario> {
        let _span = stco_obs::span!("sweep.lease", max = max);
        let mut state = self.state();
        let mut leased = Vec::new();
        while leased.len() < max {
            let Some(index) = state.pending.pop_front() else {
                break;
            };
            state.leased.insert(index, worker.to_string());
            leased.push(LeasedScenario {
                index,
                id: self.scenarios[index].id.to_hex(),
            });
        }
        stco_obs::Recorder::global()
            .metrics()
            .counter("sweep.scenarios_leased")
            .add(leased.len() as u64);
        leased
    }

    /// Records a completed scenario by content-address hex with its
    /// `[delay, power, area, cost]` values. Returns `Ok(false)` when
    /// the scenario was already complete (idempotent re-delivery).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] on unknown scenarios or malformed
    /// values, [`ServeError::Store`] on journal write failures.
    pub fn complete(&self, scenario: &str, values: &[f64]) -> stco_serve::Result<bool> {
        let _span = stco_obs::span!("sweep.complete");
        let value = u64::from_str_radix(scenario, 16).map_err(|_| ServeError::BadInput {
            context: format!("scenario {scenario:?} is not a hex content address"),
        })?;
        let Some(&index) = self.id_to_index.get(&value) else {
            return Err(ServeError::BadInput {
                context: format!("scenario {scenario:?} is not part of this sweep"),
            });
        };
        let result = ScenarioResult::from_values(values).map_err(|e| ServeError::BadInput {
            context: e.to_string(),
        })?;
        {
            let state = self.state();
            if state.completed.contains(&index) {
                return Ok(false);
            }
        }
        self.journal
            .record_scenario(&self.scenarios[index], &result)
            .map_err(|e| match e {
                crate::SweepError::Store(store) => ServeError::Store(store),
                other => ServeError::BadInput {
                    context: other.to_string(),
                },
            })?;
        let mut state = self.state();
        state.leased.remove(&index);
        state.pending.retain(|i| *i != index);
        state.completed.insert(index);
        Ok(true)
    }

    /// Progress snapshot.
    #[must_use]
    pub fn status(&self) -> SweepQueueStatus {
        let state = self.state();
        SweepQueueStatus {
            total: self.scenarios.len(),
            pending: state.pending.len(),
            leased: state.leased.len(),
            completed: state.completed.len(),
        }
    }
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn count(n: usize) -> JsonValue {
    JsonValue::Num(n as f64)
}

/// Reads `key` out of a body with `read`; anything missing or
/// mistyped is a malformed body (`malformed-frame` on the wire).
fn field<'a, T>(
    doc: &'a JsonValue,
    key: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> stco_serve::Result<T> {
    doc.get(key)
        .and_then(read)
        .ok_or_else(|| ServeError::Protocol {
            context: format!("sweep body: missing or malformed field {key:?}"),
        })
}

fn f64_array(doc: &JsonValue) -> Option<Vec<f64>> {
    match doc {
        JsonValue::Arr(items) => items.iter().map(JsonValue::as_f64).collect(),
        _ => None,
    }
}

fn leased_array(doc: &JsonValue) -> Option<Vec<LeasedScenario>> {
    let JsonValue::Arr(items) = doc else {
        return None;
    };
    items
        .iter()
        .map(|item| {
            Some(LeasedScenario {
                index: item.get("index")?.as_u64()? as usize,
                id: item.get("id")?.as_str()?.to_string(),
            })
        })
        .collect()
}

impl Extension for SweepQueue {
    fn call(&self, body: &JsonValue) -> stco_serve::Result<JsonValue> {
        match field(body, "action", JsonValue::as_str)? {
            "lease" => {
                let worker = field(body, "worker", JsonValue::as_str)?;
                let max = field(body, "max", JsonValue::as_u64)? as usize;
                let scenarios = self
                    .lease(worker, max)
                    .into_iter()
                    .map(|s| {
                        obj(vec![
                            ("index", count(s.index)),
                            ("id", JsonValue::Str(s.id)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("scenarios", JsonValue::Arr(scenarios))]))
            }
            "complete" => {
                let scenario = field(body, "scenario", JsonValue::as_str)?;
                let values = field(body, "values", f64_array)?;
                let accepted = self.complete(scenario, &values)?;
                Ok(obj(vec![("accepted", JsonValue::Bool(accepted))]))
            }
            "status" => {
                let status = self.status();
                Ok(obj(vec![
                    ("total", count(status.total)),
                    ("pending", count(status.pending)),
                    ("leased", count(status.leased)),
                    ("completed", count(status.completed)),
                ]))
            }
            other => Err(ServeError::Protocol {
                context: format!("unknown sweep action {other:?}"),
            }),
        }
    }
}

fn action(name: &str) -> (&'static str, JsonValue) {
    ("action", JsonValue::Str(name.to_string()))
}

/// Leases up to `max` pending scenarios for `worker` from the queue
/// attached to `client`'s server. An empty vector means the queue has
/// nothing pending (the worker's cue to stop polling).
///
/// # Errors
///
/// [`ServeError::Remote`] (`bad-input` when no queue is attached),
/// [`ServeError::Protocol`] on a malformed reply, or transport
/// failures.
pub fn sweep_lease(
    client: &mut Client,
    worker: &str,
    max: usize,
) -> stco_serve::Result<Vec<LeasedScenario>> {
    let body = obj(vec![
        action("lease"),
        ("worker", JsonValue::Str(worker.to_string())),
        ("max", count(max)),
    ]);
    let reply = client.extension(EXTENSION_NAME, body)?;
    field(&reply, "scenarios", leased_array)
}

/// Reports one completed scenario by content-address hex with its
/// `[delay, power, area, cost]` values. `Ok(false)` means the scenario
/// was already complete (idempotent re-delivery).
///
/// # Errors
///
/// [`ServeError::Remote`] (`bad-input` for unknown scenarios, `store`
/// for journal failures), [`ServeError::Protocol`] on a malformed
/// reply, or transport failures.
pub fn sweep_complete(
    client: &mut Client,
    scenario: &str,
    values: &[f64],
) -> stco_serve::Result<bool> {
    let body = obj(vec![
        action("complete"),
        ("scenario", JsonValue::Str(scenario.to_string())),
        (
            "values",
            JsonValue::Arr(values.iter().map(|v| JsonValue::Num(*v)).collect()),
        ),
    ]);
    let reply = client.extension(EXTENSION_NAME, body)?;
    field(&reply, "accepted", |v| match v {
        JsonValue::Bool(accepted) => Some(*accepted),
        _ => None,
    })
}

/// Progress snapshot of the queue attached to `client`'s server.
///
/// # Errors
///
/// [`ServeError::Remote`] (`bad-input` when no queue is attached),
/// [`ServeError::Protocol`] on a malformed reply, or transport
/// failures.
pub fn sweep_status(client: &mut Client) -> stco_serve::Result<SweepQueueStatus> {
    let reply = client.extension(EXTENSION_NAME, obj(vec![action("status")]))?;
    let get = |key| field(&reply, key, JsonValue::as_u64).map(|v| v as usize);
    Ok(SweepQueueStatus {
        total: get("total")?,
        pending: get("pending")?,
        leased: get("leased")?,
        completed: get("completed")?,
    })
}

/// The remote worker loop: lease scenarios in batches of `batch`,
/// evaluate them locally, report objective values back. Returns the
/// number of scenarios this worker completed (an idempotent re-delivery
/// the server rejected does not count).
///
/// # Errors
///
/// [`crate::SweepError::Serve`] on transport/protocol failures,
/// [`crate::SweepError::BadSpec`] when a leased scenario does not match
/// the locally expanded spec (spec drift between server and worker).
pub fn run_remote_worker(
    addr: &str,
    spec: &SweepSpec,
    eval: &dyn ScenarioEval,
    worker: &str,
    batch: usize,
) -> Result<usize> {
    let _span = stco_obs::span!("sweep.run_remote_worker", batch = batch);
    let scenarios = spec.expand()?;
    let mut client = Client::connect(addr)?;
    let batch = batch.max(1);
    let mut done = 0usize;
    loop {
        let leased = sweep_lease(&mut client, worker, batch)?;
        if leased.is_empty() {
            break;
        }
        for lease in leased {
            let scenario = scenarios.get(lease.index).ok_or_else(|| {
                bad_spec(format!(
                    "leased index {} is outside the local spec ({} scenarios)",
                    lease.index,
                    scenarios.len()
                ))
            })?;
            if scenario.id.to_hex() != lease.id {
                return Err(bad_spec(format!(
                    "leased scenario {} does not match the local spec (got {}, expected {}) — \
                     server and worker are sweeping different specs",
                    lease.index,
                    lease.id,
                    scenario.id.to_hex()
                )));
            }
            let result = eval.evaluate(scenario)?;
            if sweep_complete(&mut client, &lease.id, &result.to_values())? {
                done += 1;
            }
        }
    }
    stco_obs::Recorder::global()
        .metrics()
        .counter("sweep.worker_completed")
        .add(done as u64);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyntheticEval;

    /// A fresh registry and its directory, for the test to remove.
    fn temp_registry(tag: &str) -> Result<(Registry, std::path::PathBuf)> {
        let dir =
            std::env::temp_dir().join(format!("stco-sweep-remote-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::open(&dir).map_err(crate::SweepError::Store)?;
        Ok((registry, dir))
    }

    fn small_spec() -> SweepSpec {
        let mut spec = SweepSpec::demo();
        spec.technologies.truncate(1);
        spec.benchmarks.truncate(1);
        spec.levels = 2;
        spec
    }

    #[test]
    fn lease_complete_status_lifecycle() -> Result<()> {
        let spec = small_spec();
        let (registry, dir) = temp_registry("lifecycle")?;
        let (queue, resumed) = SweepQueue::open(&spec, registry)?;
        assert_eq!(resumed, 0);
        let total = queue.scenarios().len();
        assert_eq!(queue.status().pending, total);

        let leased = queue.lease("w0", 3);
        assert_eq!(leased.len(), 3);
        assert_eq!(queue.status().leased, 3);

        let eval = SyntheticEval;
        for lease in &leased {
            let result = eval.evaluate(&queue.scenarios()[lease.index])?;
            assert!(queue.complete(&lease.id, &result.to_values())?);
            // Idempotent re-delivery is acknowledged but not re-counted.
            assert!(!queue.complete(&lease.id, &result.to_values())?);
        }
        let status = queue.status();
        assert_eq!(status.completed, 3);
        assert_eq!(status.leased, 0);
        assert_eq!(status.pending, total - 3);
        assert!(!queue.is_complete());
        assert_eq!(queue.records()?.len(), 3);
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn unknown_and_malformed_completions_are_typed_rejects() -> Result<()> {
        let spec = small_spec();
        let (registry, dir) = temp_registry("rejects")?;
        let (queue, _) = SweepQueue::open(&spec, registry)?;
        assert!(queue.complete("not-hex", &[1.0, 2.0, 3.0, 4.0]).is_err());
        assert!(queue
            .complete("00000000000000ff", &[1.0, 2.0, 3.0, 4.0])
            .is_err());
        let lease = queue.lease("w0", 1);
        assert_eq!(lease.len(), 1);
        assert!(queue.complete(&lease[0].id, &[1.0, 2.0]).is_err());
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn malformed_extension_bodies_are_malformed_frames() -> Result<()> {
        let (registry, dir) = temp_registry("malformed")?;
        let (queue, _) = SweepQueue::open(&small_spec(), registry)?;
        for body in [
            r#"{"worker":"w0","max":1}"#,
            r#"{"action":"warp"}"#,
            r#"{"action":"lease","worker":"w0","max":1.5}"#,
            r#"{"action":"complete","scenario":"00000000000000ff","values":[1,"2",3,4]}"#,
        ] {
            let doc = JsonValue::parse(body).map_err(|e| bad_spec(e.to_string()))?;
            let code = queue.call(&doc).err().map(|e| e.code());
            assert_eq!(code, Some("malformed-frame"), "{body}");
        }
        assert_eq!(queue.status().leased, 0, "a rejected body must not lease");
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn reclaimed_leases_return_to_pending() -> Result<()> {
        let spec = small_spec();
        let (registry, dir) = temp_registry("reclaim")?;
        let (queue, _) = SweepQueue::open(&spec, registry)?;
        let total = queue.scenarios().len();
        let leased = queue.lease("w0", 2);
        assert_eq!(leased.len(), 2);
        assert_eq!(queue.reclaim_leases(), 2);
        let status = queue.status();
        assert_eq!(status.pending, total);
        assert_eq!(status.leased, 0);
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn reopening_over_a_journal_resumes_completed_work() -> Result<()> {
        let spec = small_spec();
        let dir =
            std::env::temp_dir().join(format!("stco-sweep-remote-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Registry::open(&dir).map_err(crate::SweepError::Store);
        let (queue, resumed) = SweepQueue::open(&spec, open()?)?;
        assert_eq!(resumed, 0);
        let leased = queue.lease("w0", 2);
        let eval = SyntheticEval;
        for lease in &leased {
            let result = eval.evaluate(&queue.scenarios()[lease.index])?;
            queue.complete(&lease.id, &result.to_values())?;
        }
        drop(queue);
        let (reopened, resumed) = SweepQueue::open(&spec, open()?)?;
        assert_eq!(resumed, 2);
        assert_eq!(reopened.status().completed, 2);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
