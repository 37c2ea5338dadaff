//! The traced in-process replay: the served run's op stream, sent
//! through the public functions of each layer in the order the client
//! and `gsls-serve`'s connection, writer and reader threads call them,
//! with a span around every call and registry deltas around every op.
//!
//! Client and server meet over in-memory buffers instead of TCP, and the
//! ops run one after another on one thread, so the replay shows the work
//! each layer does per op; the served run shows what queueing and the
//! network add (`serve.*_overhead_ms`). A read stream is replayed up to
//! [`REPLAY_MAX_PER_STREAM`] timed queries.

use crate::served::{check_commit, copy_dir, ServedRun, SESSION};
use crate::stats::{percentile, Failure, Tally, Timings};
use crate::trace::{self, Tracer};
use crate::workload::{Effect, Kind, Load, Op, Plan, Spec};
use crate::{metric, Metric};
use gsls_core::{CommitOpts, Guard, Session, Snapshot, UpdateBatch};
use gsls_lang::{
    decode_request, decode_response, encode_request, encode_response, parse_program, Atom,
    CommitNumbers, GovernOpts, Request, Response, TermStore, TruthTag,
};
use gsls_obs::MetricsSnapshot;
use gsls_serve::{read_frame, write_frame, FrameReader};
use gsls_wfs::{Interp, Truth};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

/// Reader queries replayed after each churn commit.
const CHURN_QUERIES_PER_COMMIT: usize = 2;

/// Timed ops replayed per stream at most: per-op means settle long
/// before a read stream's tens of thousands of queries are through,
/// and the cap keeps a traced run within its time limit.
const REPLAY_MAX_PER_STREAM: usize = 5000;

/// The commit phases `Session` records, each a histogram of
/// nanoseconds that sums into `commit.total`.
const PHASES: [&str; 6] = [
    "validate",
    "admission",
    "ground",
    "refresh",
    "index",
    "journal",
];

pub struct ReplayOut {
    pub tally: Tally,
    /// Span nesting and the commit-phase sums held.
    pub checks_ok: bool,
    pub spans_jsonl: String,
    pub metrics: Vec<Metric>,
}

/// One side of the in-memory wire: the client's store and the server
/// connection's frame reader, as `Client` and `conn_loop` keep them.
struct Conn {
    client_store: TermStore,
    frames: FrameReader,
    /// Scratch store of the connection thread (query decoding).
    conn_scratch: TermStore,
}

impl Conn {
    fn new() -> Conn {
        Conn {
            client_store: TermStore::new(),
            frames: FrameReader::new(),
            conn_scratch: TermStore::new(),
        }
    }
}

/// The replay's per-op records (timed ops only).
#[derive(Default)]
struct Acc {
    commit_ops: Vec<u64>,
    query_ops: Vec<u64>,
    /// Σ self time by span name, split by op kind.
    commit_self: BTreeMap<&'static str, u64>,
    query_self: BTreeMap<&'static str, u64>,
    request_bytes: u64,
    response_bytes: u64,
    commit_request_bytes: u64,
    commit_group_ns: u64,
    changed_atoms: u64,
}

fn hist_sum(m: &MetricsSnapshot, name: &str) -> u64 {
    m.histogram(name).map_or(0, |h| h.sum)
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

/// Atoms whose truth differs between two models (atoms new in `after`
/// count when they are not false).
fn changed_atoms(before: &Interp, after: &Interp, atoms: usize) -> u64 {
    let old = before.capacity();
    (0..atoms)
        .filter(|&i| {
            let id = gsls_ground::GroundAtomId(i as u32);
            let now = after.truth(id);
            if i < old {
                before.truth(id) != now
            } else {
                now != Truth::False
            }
        })
        .count() as u64
}

/// Replays the plan. `seed_dir` holds the freshly seeded session; it
/// is copied to `dir` so the replay starts from the same state as the
/// served run did.
pub fn run(
    spec: &Spec,
    plan: &Plan,
    seed_dir: &Path,
    dir: &Path,
    served: &ServedRun,
) -> Result<ReplayOut, String> {
    let session_dir = dir.join(SESSION);
    copy_dir(seed_dir, &session_dir)?;
    let t = Instant::now();
    let mut session = Session::open(&session_dir).map_err(|e| format!("replay open: {e}"))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let obs = session.obs();
    let mut published = session.snapshot();

    // The op order: warm-up ops of every stream first, then the timed
    // ops round-robin across streams; a churn commit is followed by
    // reader queries taken from the reader's repeating sequence.
    let order = replay_order(spec, plan);
    let mut conns: Vec<Conn> = plan.streams.iter().map(|_| Conn::new()).collect();
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let mut tally = Tally::default();
    let mut checks = Ok(());
    let mut base: Option<(MetricsSnapshot, usize, usize)> = None;

    for (op_id, &(stream, index, timed)) in order.iter().enumerate() {
        if timed && base.is_none() {
            let gp = session.ground_program();
            base = Some((obs.snapshot(), gp.atom_count(), gp.clause_count()));
        }
        let op = &plan.streams[stream][index];
        let conn = &mut conns[stream];
        let first_span = tr.spans.len();
        let op_id = op_id as u64;
        match op {
            Op::Commit {
                fact,
                retract,
                effect,
            } => {
                let before = obs.snapshot();
                let prev_model = published.model().clone();
                let (outcome, req_len, resp_len, group_ns) = replay_commit(
                    &mut tr,
                    op_id,
                    conn,
                    &mut session,
                    &mut published,
                    fact,
                    *retract,
                    *effect,
                )?;
                tally.record(outcome);
                let after = obs.snapshot();
                // The layers add up: the phases sum into commit.total,
                // and the commits' totals fit in the group's span.
                let total = hist_sum(&after, "commit.total") - hist_sum(&before, "commit.total");
                let phases: u64 = PHASES
                    .iter()
                    .map(|p| {
                        let name = format!("commit.{p}");
                        hist_sum(&after, &name) - hist_sum(&before, &name)
                    })
                    .sum();
                if phases > total || total > group_ns {
                    checks = Err(format!(
                        "op {op_id}: commit phases {phases} ns, commit.total {total} ns, \
                         commit_group span {group_ns} ns do not nest"
                    ));
                }
                if timed {
                    let atoms = session.ground_program().atom_count();
                    acc.changed_atoms += changed_atoms(&prev_model, published.model(), atoms);
                    acc.commit_group_ns += group_ns;
                    acc.request_bytes += req_len;
                    acc.commit_request_bytes += req_len;
                    acc.response_bytes += resp_len;
                }
            }
            Op::Query { goal, answers } => {
                let (outcome, req_len, resp_len) =
                    replay_query(&mut tr, op_id, conn, &published, goal, answers.as_deref())?;
                tally.record(outcome);
                if timed {
                    acc.request_bytes += req_len;
                    acc.response_bytes += resp_len;
                }
            }
        }
        if timed {
            let spans = &tr.spans[first_span..];
            let root = &spans[0];
            let (ops, selfs) = match op.kind() {
                Kind::Commit => (&mut acc.commit_ops, &mut acc.commit_self),
                Kind::Query => (&mut acc.query_ops, &mut acc.query_self),
            };
            ops.push(root.dur_ns());
            let rebased: Vec<trace::Span> = spans
                .iter()
                .map(|s| trace::Span {
                    parent: s.parent.map(|p| p - first_span),
                    ..s.clone()
                })
                .collect();
            for (s, t) in rebased.iter().zip(trace::self_times(&rebased)) {
                *selfs.entry(s.name).or_default() += t;
            }
        }
    }
    let checks = checks.and_then(|()| trace::validate(&tr.spans));
    if let Err(e) = &checks {
        eprintln!("perfbench: layer check failed: {e}");
    }
    let (base, atoms0, clauses0) = base.ok_or("the replay has no timed ops")?;
    let end = obs.snapshot();
    let gp = session.ground_program();
    let growth = (gp.atom_count() - atoms0, gp.clause_count() - clauses0);
    drop(published);
    drop(session);

    let metrics = layer_metrics(spec, &acc, &base, &end, growth, open_ms, served);
    Ok(ReplayOut {
        tally,
        checks_ok: checks.is_ok(),
        spans_jsonl: tr.to_jsonl(),
        metrics,
    })
}

/// `(stream, index in stream, timed)` in replay order.
fn replay_order(spec: &Spec, plan: &Plan) -> Vec<(usize, usize, bool)> {
    let mut order = Vec::new();
    for (s, ops) in plan.streams.iter().enumerate() {
        for i in 0..plan.warmup[s].min(ops.len()) {
            order.push((s, i, false));
        }
    }
    if spec.load == Load::Churn {
        let (writer, reader) = (&plan.streams[0], &plan.streams[1]);
        let mut r = plan.warmup[1];
        for i in plan.warmup[0]..writer.len() {
            order.push((0, i, true));
            for _ in 0..CHURN_QUERIES_PER_COMMIT {
                order.push((1, r % reader.len(), true));
                r += 1;
            }
        }
        return order;
    }
    let longest = plan.streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (s, ops) in plan.streams.iter().enumerate() {
            let end = ops.len().min(plan.warmup[s] + REPLAY_MAX_PER_STREAM);
            if i >= plan.warmup[s] && i < end {
                order.push((s, i, true));
            }
        }
    }
    order
}

/// Client request → frame → server decode, returning the payload the
/// server thread received.
fn send_request(
    tr: &mut Tracer,
    op: u64,
    conn: &mut Conn,
    req: &Request,
) -> Result<(Vec<u8>, u64), String> {
    let mut buf = Vec::new();
    tr.span("lang.encode", op, || {
        encode_request(&conn.client_store, req, &mut buf)
    });
    let mut wire = Vec::new();
    tr.span("serve.frame", op, || write_frame(&mut wire, &buf))
        .map_err(|e| e.to_string())?;
    let frames = &mut conn.frames;
    let payload = tr
        .span("serve.frame", op, || frames.poll(&mut Cursor::new(&wire)))
        .map_err(|e| e.to_string())?
        .ok_or("a whole frame was buffered")?;
    tr.span("lang.decode", op, || gsls_lang::peek_request_kind(&payload))
        .map_err(|e| format!("{e:?}"))?;
    Ok((payload, buf.len() as u64))
}

/// Server response → frame → client decode.
fn send_response(tr: &mut Tracer, op: u64, resp: &Response) -> Result<(Response, u64), String> {
    let mut buf = Vec::new();
    tr.span("lang.encode", op, || encode_response(resp, &mut buf));
    let mut wire = Vec::new();
    tr.span("serve.frame", op, || write_frame(&mut wire, &buf))
        .map_err(|e| e.to_string())?;
    let payload = tr
        .span("serve.frame", op, || read_frame(&mut Cursor::new(&wire)))
        .map_err(|e| e.to_string())?;
    let decoded = tr
        .span("lang.decode", op, || decode_response(&payload))
        .map_err(|e| format!("{e:?}"))?;
    Ok((decoded, buf.len() as u64))
}

/// One commit, as `Client::commit`, `conn_loop`, `commit_run` (writer
/// thread) and the client's reply read perform it. Returns the outcome,
/// request and response payload bytes, and the `commit_group` span.
#[allow(clippy::too_many_arguments)]
fn replay_commit(
    tr: &mut Tracer,
    op: u64,
    conn: &mut Conn,
    session: &mut Session,
    published: &mut Snapshot,
    fact: &str,
    retract: bool,
    effect: Effect,
) -> Result<(Result<(), Failure>, u64, u64, u64), String> {
    let root = tr.begin("op.commit", op);
    let text = format!("{fact}.");
    let store = &mut conn.client_store;
    let atoms: Vec<Atom> = tr
        .span("lang.parse", op, || parse_program(store, &text))
        .map_err(|e| e.to_string())?
        .clauses()
        .iter()
        .map(|c| c.head.clone())
        .collect();
    let (asserts, retracts) = if retract {
        (Vec::new(), atoms)
    } else {
        (atoms, Vec::new())
    };
    let req = Request::Commit {
        rules: Vec::new(),
        asserts,
        retracts,
        opts: GovernOpts::default(),
    };
    let (payload, req_len) = send_request(tr, op, conn, &req)?;

    // Writer thread: decode into a throwaway store, validate, translate
    // into the session's store, group-commit, publish, reply.
    let mut scratch = TermStore::new();
    let decoded = tr
        .span("lang.decode", op, || decode_request(&mut scratch, &payload))
        .map_err(|e| format!("{e:?}"))?;
    let Request::Commit {
        asserts, retracts, ..
    } = decoded
    else {
        return Err("a commit decoded as another request".into());
    };
    let batch = tr.span("lang.translate", op, || {
        let valid = asserts
            .iter()
            .chain(&retracts)
            .all(|a| a.is_ground(&scratch) && a.args_function_free(&scratch));
        let map = scratch.translate_into(session.store_mut());
        let batch = UpdateBatch {
            rules: Vec::new(),
            asserts: asserts
                .iter()
                .map(|a| a.translate(&scratch, session.store_mut(), &map))
                .collect(),
            retracts: retracts
                .iter()
                .map(|a| a.translate(&scratch, session.store_mut(), &map))
                .collect(),
        };
        valid.then_some(batch)
    });
    let batch = batch.ok_or("the replay's own commit failed validation")?;
    let group = tr.begin("core.commit_group", op);
    let result = session.commit_group(vec![(batch, CommitOpts::default())]);
    tr.end(group);
    let group_ns = tr.spans[group].dur_ns();
    let resp = match result {
        Ok(mut results) => {
            tr.span("core.snapshot_publish", op, || {
                // As commit_run does: replacing the published snapshot
                // drops the previous one.
                *published = session.snapshot();
            });
            match results.pop() {
                Some(Ok(stats)) => Response::Committed {
                    epoch: session.epoch(),
                    stats: CommitNumbers {
                        rules_added: stats.rules_added as u64,
                        facts_asserted: stats.facts_asserted as u64,
                        facts_reenabled: stats.facts_reenabled as u64,
                        facts_retracted: stats.facts_retracted as u64,
                        new_atoms: stats.new_atoms as u64,
                        new_clauses: stats.new_clauses as u64,
                    },
                },
                Some(Err(e)) => Response::Error {
                    kind: gsls_lang::ErrorKind::Internal,
                    message: e.to_string(),
                },
                None => return Err("commit_group returned no result".into()),
            }
        }
        Err(e) => Response::Error {
            kind: gsls_lang::ErrorKind::Internal,
            message: e.to_string(),
        },
    };
    let (reply, resp_len) = send_response(tr, op, &resp)?;
    tr.end(root);
    let outcome = match reply {
        Response::Committed { stats, .. } => check_commit(effect, &stats),
        _ => Err(Failure::Error),
    };
    Ok((outcome, req_len, resp_len, group_ns))
}

/// One query, as `Client::query`, `conn_loop` and the reader pool's
/// `run_query` perform it.
fn replay_query(
    tr: &mut Tracer,
    op: u64,
    conn: &mut Conn,
    published: &Snapshot,
    goal: &str,
    expected: Option<&[String]>,
) -> Result<(Result<(), Failure>, u64, u64), String> {
    let root = tr.begin("op.query", op);
    let req = Request::Query {
        goal: goal.to_string(),
        opts: GovernOpts::default(),
    };
    let (payload, req_len) = send_request(tr, op, conn, &req)?;
    let scratch = &mut conn.conn_scratch;
    let goal = match tr.span("lang.decode", op, || decode_request(scratch, &payload)) {
        Ok(Request::Query { goal, .. }) => goal,
        _ => return Err("a query decoded as another request".into()),
    };
    let (snap, q) = tr.span("core.query.prepare", op, || {
        let snap = published.clone();
        let q = snap.prepare(&goal);
        (snap, q)
    });
    let q = q.map_err(|e| e.to_string())?;
    let (found, interrupted) = tr.span("core.query.execute", op, || {
        let guard = Guard::builder().build();
        let mut it = q
            .execute_governed(&snap, &guard)
            .map_err(|e| e.to_string())?;
        let found: Vec<_> = it.by_ref().collect();
        Ok::<_, String>((found, it.interrupted().is_some()))
    })?;
    let resp = tr.span("core.query.render", op, || {
        let mut answers = Vec::new();
        let mut undefined = Vec::new();
        for a in &found {
            let r = q.render_answer(&snap, a);
            match a.truth {
                Truth::True => answers.push(r),
                Truth::Undefined => undefined.push(r),
                Truth::False => {}
            }
        }
        let truth = if !answers.is_empty() {
            TruthTag::True
        } else if !undefined.is_empty() {
            TruthTag::Undefined
        } else {
            TruthTag::False
        };
        Response::Answers {
            truth,
            answers,
            undefined,
            interrupted,
        }
    });
    drop(snap);
    let (reply, resp_len) = send_response(tr, op, &resp)?;
    tr.end(root);
    let outcome = match reply {
        Response::Answers {
            interrupted: true, ..
        } => Err(Failure::Interrupted),
        Response::Answers { mut answers, .. } => match expected {
            Some(want) => {
                answers.sort();
                if answers == want {
                    Ok(())
                } else {
                    Err(Failure::Wrong)
                }
            }
            None => Ok(()),
        },
        _ => Err(Failure::Error),
    };
    Ok((outcome, req_len, resp_len))
}

/// Per-layer metrics of a replay, with the served run's `serve.*`.
fn layer_metrics(
    spec: &Spec,
    acc: &Acc,
    base: &MetricsSnapshot,
    end: &MetricsSnapshot,
    (atoms_growth, clauses_growth): (usize, usize),
    open_ms: f64,
    served: &ServedRun,
) -> Vec<Metric> {
    let commits = acc.commit_ops.len() as f64;
    let queries = acc.query_ops.len() as f64;
    let ops = commits + queries;
    let per = |v: f64, n: f64| if n > 0.0 { v / n } else { 0.0 };
    let c = |name: &str| (counter(end, name) - counter(base, name)) as f64;
    let h = |name: &str| (hist_sum(end, name) - hist_sum(base, name)) as f64;
    // Σ self time of a span name over both op kinds, per op of the
    // kinds that run it.
    let both = |name: &str| {
        let ns = acc.commit_self.get(name).copied().unwrap_or(0)
            + acc.query_self.get(name).copied().unwrap_or(0);
        ns as f64
    };
    let commit_span = |name: &str| acc.commit_self.get(name).copied().unwrap_or(0) as f64;
    let query_span = |name: &str| acc.query_self.get(name).copied().unwrap_or(0) as f64;
    let p50_ms = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        percentile(&v, 50).map_or(0.0, |x| x as f64 / 1e6)
    };
    let overhead = |served: &Timings, replayed: &[u64]| match served.p50_ms() {
        Some(p50) if !replayed.is_empty() => p50 - p50_ms(replayed),
        _ => 0.0,
    };
    // A churn cycle is four commits; elsewhere a commit is the cycle.
    let cycles = if spec.load == Load::Churn {
        commits / 4.0
    } else {
        commits
    };
    let commit_total_ns = h("commit.total");
    let user_bytes = acc.commit_request_bytes as f64;
    vec![
        metric(
            "serve.commit_overhead_ms",
            "ms",
            overhead(&served.commits_timed, &acc.commit_ops),
        ),
        metric(
            "serve.query_overhead_ms",
            "ms",
            overhead(&served.queries_timed, &acc.query_ops),
        ),
        metric(
            "serve.commit_p99_ms",
            "ms",
            served.commits_timed.p99_ms().unwrap_or(0.0),
        ),
        metric(
            "serve.query_p99_ms",
            "ms",
            served.queries_timed.p99_ms().unwrap_or(0.0),
        ),
        metric(
            "serve.records_per_fsync",
            "ratio",
            per(served.group_records as f64, served.group_syncs as f64),
        ),
        metric("serve.frame_us", "us", per(both("serve.frame"), ops) / 1e3),
        metric(
            "lang.parse_us",
            "us",
            per(commit_span("lang.parse"), commits) / 1e3,
        ),
        metric("lang.encode_us", "us", per(both("lang.encode"), ops) / 1e3),
        metric("lang.decode_us", "us", per(both("lang.decode"), ops) / 1e3),
        metric(
            "lang.translate_us",
            "us",
            per(commit_span("lang.translate"), commits) / 1e3,
        ),
        metric(
            "lang.request_bytes",
            "bytes",
            per(acc.request_bytes as f64, ops),
        ),
        metric(
            "lang.response_bytes",
            "bytes",
            per(acc.response_bytes as f64, ops),
        ),
        metric(
            "core.commit_group_ms",
            "ms",
            per(acc.commit_group_ns as f64, commits) / 1e6,
        ),
        metric(
            "core.commit.total",
            "ms",
            per(commit_total_ns, commits) / 1e6,
        ),
        metric(
            "core.commit.validate",
            "ms",
            per(h("commit.validate"), commits) / 1e6,
        ),
        metric(
            "core.commit.admission",
            "ms",
            per(h("commit.admission"), commits) / 1e6,
        ),
        metric(
            "core.commit.ground",
            "ms",
            per(h("commit.ground"), commits) / 1e6,
        ),
        metric(
            "core.commit.refresh",
            "ms",
            per(h("commit.refresh"), commits) / 1e6,
        ),
        metric(
            "core.commit.index",
            "ms",
            per(h("commit.index"), commits) / 1e6,
        ),
        metric(
            "core.commit.journal",
            "ms",
            per(h("commit.journal"), commits) / 1e6,
        ),
        metric(
            "core.group_tail_ms",
            "ms",
            per(acc.commit_group_ns as f64 - commit_total_ns, commits) / 1e6,
        ),
        metric(
            "core.snapshot_publish_ms",
            "ms",
            per(commit_span("core.snapshot_publish"), commits) / 1e6,
        ),
        metric(
            "core.query.prepare_us",
            "us",
            per(query_span("core.query.prepare"), queries) / 1e3,
        ),
        metric(
            "core.query.execute_us",
            "us",
            per(query_span("core.query.execute"), queries) / 1e3,
        ),
        metric(
            "core.query.render_us",
            "us",
            per(query_span("core.query.render"), queries) / 1e3,
        ),
        metric(
            "core.query.answers",
            "count",
            per(c("query.answers"), queries),
        ),
        metric("core.query.scans", "count", per(c("query.scans"), queries)),
        metric(
            "core.query.point_lookups",
            "count",
            per(c("query.point_lookups"), queries),
        ),
        metric("core.open_ms", "ms", open_ms),
        metric(
            "op.unattributed_us",
            "us",
            per(commit_span("op.commit") + query_span("op.query"), ops) / 1e3,
        ),
        metric("op.commit_p50_ms", "ms", p50_ms(&acc.commit_ops)),
        metric("op.query_p50_ms", "ms", p50_ms(&acc.query_ops)),
        metric(
            "ground.join_candidates",
            "count",
            per(c("ground.join_candidates"), commits),
        ),
        metric("ground.rounds", "count", per(c("ground.rounds"), commits)),
        metric(
            "ground.new_atoms",
            "count",
            per(c("commit.new_atoms"), commits),
        ),
        metric(
            "ground.new_clauses",
            "count",
            per(c("commit.new_clauses"), commits),
        ),
        metric(
            "ground.atoms_growth",
            "count",
            per(atoms_growth as f64, cycles),
        ),
        metric(
            "ground.clauses_growth",
            "count",
            per(clauses_growth as f64, cycles),
        ),
        metric(
            "wfs.clause_checks",
            "count",
            per(c("lfp.clause_checks"), commits),
        ),
        metric("wfs.enqueues", "count", per(c("lfp.enqueues"), commits)),
        metric("wfs.revives", "count", per(c("lfp.revives"), commits)),
        metric(
            "wfs.retraction_cone",
            "count",
            per(h("lfp.retraction_cone"), commits),
        ),
        metric(
            "wfs.changed_atoms",
            "count",
            per(acc.changed_atoms as f64, commits),
        ),
        metric(
            "wfs.useful_ratio",
            "ratio",
            per(acc.changed_atoms as f64, c("lfp.clause_checks")),
        ),
        metric(
            "durable.appended_bytes_per_commit",
            "bytes",
            per(c("wal.appended_bytes"), commits),
        ),
        metric(
            "durable.fsyncs_per_commit",
            "count",
            per(c("wal.fsyncs"), commits),
        ),
        metric(
            "durable.checkpoint_bytes",
            "bytes",
            c("wal.checkpoint_bytes"),
        ),
        metric("durable.rotations", "count", c("wal.rotations")),
        metric(
            "durable.bytes_per_user_byte",
            "ratio",
            per(
                c("wal.appended_bytes") + c("wal.checkpoint_bytes"),
                user_bytes,
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::served::seed_dir;
    use crate::workload::Board;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    /// Replays a short stream of `load` on a small board.
    fn replay(load: Load, tag: &str) -> ReplayOut {
        let spec = Spec {
            name: "test",
            load,
            width: 8,
            height: 8,
        };
        let board = Board::new(spec.width, spec.height);
        let mut plan = Plan::new(&spec, &board, 5, 1);
        for (s, w) in plan.streams.iter_mut().zip(&plan.warmup) {
            s.truncate(w + 24);
        }
        let root = Path::new(".perfbench").join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        seed_dir(&board, &root.join("seed")).unwrap();
        let out = run(
            &spec,
            &plan,
            &root.join("seed"),
            &root.join("replay"),
            &ServedRun::default(),
        )
        .unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        out
    }

    #[test]
    fn read_replay_does_no_write_side_work() {
        let out = replay(Load::Read, "read");
        assert!(out.checks_ok);
        assert_eq!(out.tally.failed(), 0);
        for m in &out.metrics {
            if m.name.starts_with("core.commit")
                || m.name.starts_with("durable.")
                || m.name == "core.snapshot_publish_ms"
            {
                assert_eq!(m.value, 0.0, "{} on a read-only stream", m.name);
            }
        }
        assert!(value(&out.metrics, "core.query.execute_us") > 0.0);
        assert!(value(&out.metrics, "core.query.answers") >= 1.0);
    }

    #[test]
    fn write_replay_publishes_and_refreshes() {
        let out = replay(Load::Write, "write");
        assert!(out.checks_ok);
        assert_eq!(out.tally.failed(), 0);
        assert!(value(&out.metrics, "core.snapshot_publish_ms") > 0.0);
        assert!(value(&out.metrics, "core.commit.refresh") > 0.0);
        assert_eq!(value(&out.metrics, "durable.fsyncs_per_commit"), 1.0);
        assert_eq!(value(&out.metrics, "ground.new_atoms"), 2.0);
        // The spans nest: every op's root covers its children.
        assert!(out.spans_jsonl.lines().count() > 24);
    }

    #[test]
    fn churn_replay_grows_the_grounding_but_not_the_live_program() {
        let out = replay(Load::Churn, "churn");
        assert!(out.checks_ok);
        assert_eq!(out.tally.failed(), 0);
        assert!(value(&out.metrics, "wfs.retraction_cone") > 0.0);
        assert!(value(&out.metrics, "ground.atoms_growth") > 0.0);
    }
}
