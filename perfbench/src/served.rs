//! The untraced served run: a `gsls-serve` server in its own process,
//! driven over TCP by a closed-loop load generator in this one.

use crate::stats::{Failure, Tally, Timings};
use crate::workload::{Board, Effect, Kind, Load, Op, Plan, Rng, Spec};
use gsls_core::{Session, Snapshot};
use gsls_durable::DurableOpts;
use gsls_ground::GrounderOpts;
use gsls_lang::{parse_program, ErrorKind, GovernOpts, Program};
use gsls_serve::{Client, ClientError, Server, ServerConfig};
use gsls_wfs::Truth;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The session every workload serves (the server's data dir holds it
/// under this name).
pub const SESSION: &str = "default";

/// How long the load may run before the run is abandoned as failed.
const LOAD_DEADLINE: Duration = Duration::from_secs(150);

/// Seeds `dir` as a durable session over the board: the program is
/// grounded, refreshed and checkpointed under the default flush policy.
pub fn seed_dir(board: &Board, dir: &Path) -> Result<(), String> {
    let session = Session::open_with_parts(
        dir,
        board.store.clone(),
        board.program.clone(),
        GrounderOpts::default(),
        DurableOpts::default(),
    )
    .map_err(|e| format!("seeding {}: {e}", dir.display()))?;
    drop(session);
    Ok(())
}

/// Copies a (flat) session directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// The server role: serves `data_root` with the default configuration
/// on an ephemeral loopback port until a client asks it to shut down or
/// the parent closes its stdin.
pub fn serve_role(data_root: PathBuf) -> Result<(), String> {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(data_root),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    println!("listening {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let orphaned = Arc::new(AtomicBool::new(false));
    let flag = orphaned.clone();
    // Detached on purpose: it blocks on stdin until the parent exits,
    // and only raises a flag.
    std::thread::spawn(move || {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        flag.store(true, Ordering::SeqCst);
    });
    while !server.shutdown_requested() && !orphaned.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    Ok(())
}

/// A spawned server process; dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    _stdin: ChildStdin,
    pub addr: String,
}

impl ServerProc {
    fn spawn(data_root: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--serve-role")
            .arg(data_root)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.strip_prefix("listening ")) {
            (Ok(_), Some(a)) => a.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        Ok(ServerProc {
            child,
            _stdin: stdin,
            addr,
        })
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_string())
    }

    /// Asks the server to drain and waits for the process to end.
    pub fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns a server over `data_root` and binds a client to the seeded
/// session; returns the process, the client and the spawn-to-`Opened`
/// time.
fn start_server(data_root: &Path) -> Result<(ServerProc, Client, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(data_root)?;
    let mut client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    client
        .open(SESSION)
        .map_err(|e| format!("open {SESSION}: {e}"))?;
    Ok((server, client, t.elapsed().as_secs_f64()))
}

/// One op's outcome on the wire.
#[derive(Debug, Clone)]
struct Done {
    /// Index of the op in its stream.
    index: usize,
    kind: Kind,
    ns: u64,
    timed: bool,
    /// Ended at, relative to the window start (timed ops only).
    end_ns: u64,
    outcome: Result<(), Failure>,
}

/// A churn reader's point query, checked after the run.
#[derive(Debug, Clone)]
struct PointRead<'a> {
    goal: &'a str,
    truth: &'static str,
    /// Writer commits sent before the query went out / when it came back.
    sent_before: usize,
    sent_after: usize,
}

/// What one served run measured.
#[derive(Debug, Default)]
pub struct ServedRun {
    /// Spawn-to-`Opened` times, one per server start.
    pub setup_s: Vec<f64>,
    /// Timed round trips by kind.
    pub commits_timed: Timings,
    pub queries_timed: Timings,
    /// Churn only: each timed cycle's four commit round trips, summed.
    pub cycles_timed: Timings,
    pub server_rss_mb: f64,
    /// `gsls_wal_group_records / gsls_wal_group_syncs` from the scrape.
    pub group_records: u64,
    pub group_syncs: u64,
    pub tally: Tally,
    /// Ops issued by kind (warm-up included).
    pub commits: usize,
    pub queries: usize,
}

fn classify(e: &ClientError) -> Failure {
    match e {
        ClientError::Server {
            kind: ErrorKind::Interrupted,
            ..
        } => Failure::Interrupted,
        _ => Failure::Error,
    }
}

/// Whether a commit's receipt shows the one fact it was expected to
/// assert, re-enable or retract.
pub fn check_commit(effect: Effect, stats: &gsls_lang::CommitNumbers) -> Result<(), Failure> {
    let n = match effect {
        Effect::Asserted => stats.facts_asserted,
        Effect::Reenabled => stats.facts_reenabled,
        Effect::Retracted => stats.facts_retracted,
    };
    if n == 1 {
        Ok(())
    } else {
        Err(Failure::Wrong)
    }
}

/// Sends one op; returns its outcome and, for queries, the truth tag.
fn send(client: &mut Client, op: &Op) -> (Result<(), Failure>, Option<&'static str>) {
    match op {
        Op::Commit {
            fact,
            retract,
            effect,
        } => {
            let text = format!("{fact}.");
            let (a, r) = if *retract {
                ("", text.as_str())
            } else {
                (text.as_str(), "")
            };
            match client.commit("", a, r, GovernOpts::default()) {
                Ok(receipt) => (check_commit(*effect, &receipt.stats), None),
                Err(e) => (Err(classify(&e)), None),
            }
        }
        Op::Query { goal, answers } => match client.query(goal, GovernOpts::default()) {
            Ok(res) if res.interrupted => (Err(Failure::Interrupted), Some(res.truth)),
            Ok(res) => {
                let outcome = match answers {
                    Some(expected) => {
                        let mut got = res.answers.clone();
                        got.sort();
                        if res.truth == "true" && res.undefined.is_empty() && &got == expected {
                            Ok(())
                        } else {
                            Err(Failure::Wrong)
                        }
                    }
                    None => Ok(()),
                };
                (outcome, Some(res.truth))
            }
            Err(e) => (Err(classify(&e)), None),
        },
    }
}

/// Runs the served workload: seeds nothing (the caller copied a fresh
/// seed into `data_root/SESSION`), starts the server `starts` times to
/// measure set-up, drives the load on the last start, scrapes, checks.
pub fn run(
    spec: &Spec,
    board: &Board,
    plan: &Plan,
    seed: u64,
    data_root: &Path,
    starts: usize,
) -> Result<ServedRun, String> {
    let mut out = ServedRun::default();
    let (mut server, mut first, t) = start_server(data_root)?;
    out.setup_s.push(t);
    for _ in 1..starts {
        server.stop(&mut first)?;
        let (s, c, t) = start_server(data_root)?;
        (server, first) = (s, c);
        out.setup_s.push(t);
    }

    // The load: one thread and one connection per stream; the set-up
    // connection becomes the first stream's.
    let mut clients = vec![first];
    for _ in 1..plan.streams.len() {
        let mut c = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        c.open(SESSION).map_err(|e| format!("open: {e}"))?;
        clients.push(c);
    }
    let churn = spec.load == Load::Churn;
    let writer_done = AtomicBool::new(false);
    let sent = AtomicUsize::new(0);
    let barrier = Barrier::new(plan.streams.len());
    let started = Instant::now();
    let results: Vec<(Client, Vec<Done>, Vec<PointRead<'_>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.streams)
            .enumerate()
            .map(|(i, (mut client, ops))| {
                let (writer_done, sent, barrier) = (&writer_done, &sent, &barrier);
                let warmup = plan.warmup[i];
                s.spawn(move || {
                    let mut done = Vec::with_capacity(ops.len());
                    let mut reads = Vec::new();
                    let mut t0 = Instant::now();
                    let mut window_open = false;
                    let repeats = plan.reader_repeats(i);
                    let n = if repeats { usize::MAX } else { ops.len() };
                    for j in 0..n {
                        let op = &ops[j % ops.len()];
                        if j == warmup {
                            barrier.wait();
                            window_open = true;
                            t0 = Instant::now();
                        }
                        let timed = j >= warmup;
                        if repeats && timed && writer_done.load(Ordering::SeqCst) {
                            break;
                        }
                        if started.elapsed() > LOAD_DEADLINE {
                            break;
                        }
                        let before = sent.load(Ordering::SeqCst);
                        if op.kind() == Kind::Commit {
                            sent.fetch_add(1, Ordering::SeqCst);
                        }
                        let t = Instant::now();
                        let (outcome, truth) = send(&mut client, op);
                        let ns = t.elapsed().as_nanos() as u64;
                        if let (true, Op::Query { goal, .. }, Some(truth)) = (churn, op, truth) {
                            reads.push(PointRead {
                                goal,
                                truth,
                                sent_before: before,
                                sent_after: sent.load(Ordering::SeqCst),
                            });
                        }
                        done.push(Done {
                            index: j % ops.len(),
                            kind: op.kind(),
                            ns,
                            timed,
                            end_ns: t0.elapsed().as_nanos() as u64,
                            outcome,
                        });
                    }
                    // A stream that ended before its window opened (the
                    // deadline) must still release the others.
                    if !window_open {
                        barrier.wait();
                    }
                    if !repeats {
                        writer_done.store(true, Ordering::SeqCst);
                    }
                    (client, done, reads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    out.server_rss_mb = server.peak_rss_mb()?;

    let mut clients = Vec::new();
    let mut reads = Vec::new();
    // Acked commits in commit order: each writer's in stream order;
    // the two write_grid200 writers commit distinct fresh facts, so
    // their relative order does not change the final state.
    let mut acked = Vec::new();
    for ((client, done, r), ops) in results.into_iter().zip(&plan.streams) {
        clients.push(client);
        reads.extend(r);
        if spec.load == Load::Churn {
            // The warm-up is whole cycles, so timed commits start one.
            let timed: Vec<&Done> = done
                .iter()
                .filter(|d| d.timed && d.kind == Kind::Commit)
                .collect();
            for cycle in timed.chunks_exact(4) {
                out.cycles_timed
                    .push(cycle[3].end_ns, cycle.iter().map(|d| d.ns).sum());
            }
        }
        for d in done {
            if d.kind == Kind::Commit && d.outcome.is_ok() {
                acked.push(ops[d.index].clone());
            }
            out.tally.record(d.outcome);
            match d.kind {
                Kind::Commit => out.commits += 1,
                Kind::Query => out.queries += 1,
            }
            if !d.timed {
                continue;
            }
            match d.kind {
                Kind::Commit => out.commits_timed.push(d.end_ns, d.ns),
                Kind::Query => out.queries_timed.push(d.end_ns, d.ns),
            }
        }
    }
    if started.elapsed() > LOAD_DEADLINE {
        return Err(format!(
            "the load did not finish within {}s",
            LOAD_DEADLINE.as_secs()
        ));
    }

    let client = &mut clients[0];
    let scrape = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    out.group_records = scrape_counter(&scrape, "gsls_wal_group_records");
    out.group_syncs = scrape_counter(&scrape, "gsls_wal_group_syncs");

    // Untimed: the server's answers after the window against a
    // from-scratch session over the seed plus the acked facts.
    if spec.load != Load::Read {
        verify_writes(
            spec,
            board,
            plan,
            seed,
            client,
            &acked,
            &reads,
            &mut out.tally,
        )?;
    }
    server.stop(client)?;
    Ok(out)
}

fn scrape_counter(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next())?
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A ground goal's truth on a snapshot.
fn local_truth(snap: &Snapshot, goal: &str) -> Result<&'static str, String> {
    let (t, u, _) = local_answers(snap, goal)?;
    Ok(if !t.is_empty() {
        "true"
    } else if !u.is_empty() {
        "undefined"
    } else {
        "false"
    })
}

/// A query's true and undefined answers on a snapshot, rendered exactly
/// as the server renders them.
pub fn local_answers(
    snap: &Snapshot,
    goal: &str,
) -> Result<(Vec<String>, Vec<String>, bool), String> {
    let q = snap.prepare(goal).map_err(|e| e.to_string())?;
    let mut t = Vec::new();
    let mut u = Vec::new();
    let mut it = q.execute(snap).map_err(|e| e.to_string())?;
    for a in it.by_ref() {
        let r = q.render_answer(snap, &a);
        match a.truth {
            Truth::True => t.push(r),
            Truth::Undefined => u.push(r),
            Truth::False => {}
        }
    }
    let interrupted = it.interrupted().is_some();
    t.sort();
    u.sort();
    Ok((t, u, interrupted))
}

/// A from-scratch, in-memory session over the board's rules plus the
/// given move facts.
pub fn scratch_session(board: &Board, facts: &BTreeSet<String>) -> Result<Session, String> {
    let mut store = board.store.clone();
    let mut program = Program::new();
    for c in board.program.clauses() {
        if !(c.is_fact() && store.symbol_name(c.head.pred) == "move") {
            program.push(c.clone());
        }
    }
    let mut text = String::new();
    for f in facts {
        text.push_str(f);
        text.push_str(".\n");
    }
    let facts = parse_program(&mut store, &text).map_err(|e| e.to_string())?;
    for c in facts.clauses() {
        program.push(c.clone());
    }
    Session::from_parts(store, program).map_err(|e| e.to_string())
}

pub fn seed_facts(board: &Board) -> BTreeSet<String> {
    board
        .edges
        .iter()
        .map(|(a, b)| format!("move({a}, {b})"))
        .collect()
}

/// The move facts live after applying `commits` to the seed, in order.
pub fn live_facts(board: &Board, commits: &[Op]) -> BTreeSet<String> {
    let mut live = seed_facts(board);
    for op in commits {
        if let Op::Commit { fact, retract, .. } = op {
            if *retract {
                live.remove(fact);
            } else {
                live.insert(fact.clone());
            }
        }
    }
    live
}

/// Post-window checks of a write workload (see the module docs of
/// `main`): sampled truths against a from-scratch session over the
/// seed plus the acked facts; for churn also the full `win(X)` sets
/// against the seed's, and every reader answer against the states the
/// reader could have seen.
#[allow(clippy::too_many_arguments)]
fn verify_writes(
    spec: &Spec,
    board: &Board,
    plan: &Plan,
    seed: u64,
    client: &mut Client,
    acked: &[Op],
    reads: &[PointRead<'_>],
    tally: &mut Tally,
) -> Result<(), String> {
    let live = live_facts(board, acked);
    let mut scratch = scratch_session(board, &live)?;
    let snap = scratch.snapshot();
    let mut goals: Vec<String> = Vec::new();
    let mut rng = Rng::new(seed, 99);
    for _ in 0..200 {
        goals.push(format!("?- win(n{}).", rng.below(board.positions)));
    }
    let step = (acked.len() / 100).max(1);
    for op in acked.iter().step_by(step) {
        if let Op::Commit { fact, .. } = op {
            goals.push(format!("?- {fact}."));
            let from = fact
                .trim_start_matches("move(")
                .split(',')
                .next()
                .unwrap_or_default();
            goals.push(format!("?- win({from})."));
        }
    }
    for goal in &goals {
        let expected = local_truth(&snap, goal)?;
        match client.query(goal, GovernOpts::default()) {
            Ok(r) if r.interrupted => tally.fail(Failure::Interrupted),
            Ok(r) if r.truth != expected => tally.fail(Failure::Wrong),
            Ok(_) => {}
            Err(e) => tally.fail(classify(&e)),
        }
    }
    if spec.load != Load::Churn {
        return Ok(());
    }

    // The live program after whole cycles equals the seed, so the
    // served model must equal the seed's in full.
    let mut seed_session = if live == seed_facts(board) {
        scratch
    } else {
        tally.fail(Failure::Wrong);
        scratch_session(board, &seed_facts(board))?
    };
    let seed_snap = seed_session.snapshot();
    let (want_t, want_u, _) = local_answers(&seed_snap, "?- win(X).")?;
    match client.query("?- win(X).", GovernOpts::default()) {
        Ok(mut r) => {
            r.answers.sort();
            r.undefined.sort();
            if r.interrupted || r.answers != want_t || r.undefined != want_u {
                tally.fail(Failure::Wrong);
            }
        }
        Err(e) => tally.fail(classify(&e)),
    }

    // Each reader answer must be the goal's truth in a state the
    // reader could have seen: the seed, or the seed minus the edge of
    // a cycle in flight while the query was. (The cycle's fresh fact
    // moves from a position nothing moves to, so it changes no `n<K>`.)
    let mut unresolved: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut seed_truth: BTreeMap<&str, &'static str> = BTreeMap::new();
    for (i, r) in reads.iter().enumerate() {
        let want = match seed_truth.get(r.goal) {
            Some(t) => *t,
            None => {
                let t = local_truth(&seed_snap, r.goal)?;
                seed_truth.insert(r.goal, t);
                t
            }
        };
        if r.truth == want {
            continue;
        }
        // Commits 0..sent_before−1 were sent, so those before the last
        // were acked; the state seen is after some commit in
        // [sent_before − 2, sent_after − 1].
        let lo = r.sent_before.saturating_sub(2) / 4;
        let hi = r.sent_after.saturating_sub(1) / 4;
        for c in lo..=hi.min(plan.churn_edges.len().saturating_sub(1)) {
            unresolved.entry(c).or_default().push(i);
        }
    }
    let mut pending: BTreeSet<usize> = unresolved.values().flatten().copied().collect();
    for (c, idxs) in &unresolved {
        let (a, b) = &plan.churn_edges[*c];
        let edge = format!("move({a}, {b}).");
        seed_session
            .retract_facts(&edge)
            .map_err(|e| e.to_string())?;
        let snap = seed_session.snapshot();
        for &i in idxs {
            if pending.contains(&i) && local_truth(&snap, reads[i].goal)? == reads[i].truth {
                pending.remove(&i);
            }
        }
        seed_session
            .assert_facts(&edge)
            .map_err(|e| e.to_string())?;
    }
    for _ in pending {
        tally.fail(Failure::Wrong);
    }
    Ok(())
}
