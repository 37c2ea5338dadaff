//! Workloads: the seeded boards and the op streams the load generator
//! sends. Everything here is a pure function of the workload name, the
//! seed and the op counts, so the same seed yields the same bytes.

use gsls_lang::{Program, TermStore};
use gsls_workloads::win_grid;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a workload's connections send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Two writer connections committing fresh facts; no reads.
    Write,
    /// Two reader connections issuing bound `move(n<K>, Y)` queries.
    Read,
    /// One writer running 4-commit churn cycles beside one reader
    /// issuing `win(n<K>)` point queries.
    Churn,
}

/// The kind of a client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Commit,
    Query,
}

impl Load {
    /// What the end-to-end metrics (`p50_ms`, `p90_ms`, `ops_per_s`)
    /// time: a commit, a query, or a churn cycle of four commits. A
    /// churn cycle mixes two cheap commits (the fresh fact) with two
    /// whose cost is the edge's retraction cone, so a per-commit median
    /// would sit on the gap between the two; the cycle's does not. The
    /// other figures are printed by name (`commit_p50_ms`,
    /// `query_p99_ms`, ...).
    pub fn headline(self) -> &'static str {
        match self {
            Load::Write => "commit",
            Load::Read => "query",
            Load::Churn => "cycle",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub load: Load,
    pub width: usize,
    pub height: usize,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "write_grid200",
        load: Load::Write,
        width: 200,
        height: 200,
    },
    Spec {
        name: "read_grid200",
        load: Load::Read,
        width: 200,
        height: 200,
    },
    Spec {
        name: "churn_grid100",
        load: Load::Churn,
        width: 100,
        height: 100,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Ops every connection sends before the timed window opens (caches
/// warm, lazy set-up done). They are ordinary ops of the stream; the
/// commits are whole churn cycles.
pub const WARMUP_COMMITS: usize = 16;
pub const WARMUP_QUERIES: usize = 64;

/// The closed-loop rates the op counts are sized by, per connection and
/// second of `--seconds`: roughly what one connection completes on a
/// 2-core host, so a run measures for about `--seconds`.
const WRITE_COMMITS_PER_S: usize = 25;
const READ_QUERIES_PER_S: usize = 1000;
const CHURN_CYCLES_PER_S: usize = 40;

/// Distinct queries in the churn reader's sequence, which it repeats
/// until the writer is done.
pub const CHURN_READER_POOL: usize = 4096;

/// The p99 sample rule: at least this many timed headline samples, so
/// that ten lie beyond the 99th percentile.
pub const MIN_TIMED: usize = 1000;

/// A win/move board: the program `win_grid` builds, and its move edges
/// read back from that program's facts.
pub struct Board {
    pub store: TermStore,
    pub program: Program,
    /// `(from, to)` position names, in program order.
    pub edges: Vec<(String, String)>,
    /// Position name → its move targets, sorted.
    pub moves: BTreeMap<String, Vec<String>>,
    /// Grid positions `n0 .. n(w·h−1)` (draw pockets excluded).
    pub positions: usize,
}

impl Board {
    pub fn new(width: usize, height: usize) -> Board {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, width, height);
        let mut edges = Vec::new();
        for c in program.clauses() {
            if c.is_fact() && store.symbol_name(c.head.pred) == "move" {
                edges.push((
                    store.display_term(c.head.args[0]),
                    store.display_term(c.head.args[1]),
                ));
            }
        }
        let mut moves: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (a, b) in &edges {
            moves.entry(a.clone()).or_default().push(b.clone());
        }
        for v in moves.values_mut() {
            v.sort();
        }
        Board {
            store,
            program,
            edges,
            moves,
            positions: width * height,
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream (the workloads crate
/// keeps its generator private).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a commit is expected to do, checked against its receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A genuinely new fact.
    Asserted,
    /// A previously retracted fact switched back on.
    Reenabled,
    /// A live fact switched off.
    Retracted,
}

/// One client request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Commit of one ground fact, asserted or retracted.
    Commit {
        fact: String,
        retract: bool,
        effect: Effect,
    },
    /// A query; `answers` is the expected sorted true-answer list when
    /// it is known up front (`read_grid200`), `None` when it is checked
    /// after the run (`churn_grid100`).
    Query {
        goal: String,
        answers: Option<Vec<String>>,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Commit { .. } => Kind::Commit,
            Op::Query { .. } => Kind::Query,
        }
    }

    /// One line of text fixing the op completely (used to show that the
    /// same seed gives the same stream, byte for byte).
    pub fn write_line(&self, out: &mut String) {
        match self {
            Op::Commit {
                fact,
                retract,
                effect,
            } => {
                let verb = if *retract { "retract" } else { "assert" };
                let _ = writeln!(out, "commit {verb} {fact} {effect:?}");
            }
            Op::Query { goal, answers } => {
                let _ = writeln!(out, "query {goal} {answers:?}");
            }
        }
    }
}

/// Per-connection op streams of one run. `streams[i]` is connection
/// `i`'s full sequence, warm-up first. For churn, stream 0 is the
/// writer and stream 1 the reader, which repeats its sequence until
/// the writer is done (see [`Plan::reader_repeats`]).
#[derive(Debug)]
pub struct Plan {
    pub streams: Vec<Vec<Op>>,
    /// Churn only: the seeded edge each cycle retracts and re-asserts.
    pub churn_edges: Vec<(String, String)>,
    /// Leading ops of each stream that run before the timed window.
    pub warmup: Vec<usize>,
}

impl Plan {
    pub fn new(spec: &Spec, board: &Board, seed: u64, seconds: u64) -> Plan {
        let secs = seconds.max(1) as usize;
        match spec.load {
            Load::Write => {
                // Two writers share the timed minimum.
                let per_conn = (WRITE_COMMITS_PER_S * secs).max(MIN_TIMED.div_ceil(2));
                let streams = (0..2u64)
                    .map(|c| {
                        let mut rng = Rng::new(seed, c + 1);
                        (0..WARMUP_COMMITS + per_conn)
                            .map(|i| Op::Commit {
                                fact: format!("move(w{c}_{i}, n{})", rng.below(board.positions)),
                                retract: false,
                                effect: Effect::Asserted,
                            })
                            .collect()
                    })
                    .collect();
                Plan {
                    streams,
                    churn_edges: Vec::new(),
                    warmup: vec![WARMUP_COMMITS; 2],
                }
            }
            Load::Read => {
                let per_conn = (READ_QUERIES_PER_S * secs).max(MIN_TIMED.div_ceil(2));
                let sources: Vec<(&String, &Vec<String>)> = board.moves.iter().collect();
                let streams = (0..2u64)
                    .map(|c| {
                        let mut rng = Rng::new(seed, c + 1);
                        (0..WARMUP_QUERIES + per_conn)
                            .map(|_| {
                                let (from, to) = sources[rng.below(sources.len())];
                                Op::Query {
                                    goal: format!("?- move({from}, Y)."),
                                    answers: Some(to.iter().map(|t| format!("Y = {t}")).collect()),
                                }
                            })
                            .collect()
                    })
                    .collect();
                Plan {
                    streams,
                    churn_edges: Vec::new(),
                    warmup: vec![WARMUP_QUERIES; 2],
                }
            }
            Load::Churn => {
                let cycles = (CHURN_CYCLES_PER_S * secs).max(MIN_TIMED) + WARMUP_COMMITS / 4;
                let mut rng = Rng::new(seed, 1);
                let mut writer = Vec::with_capacity(cycles * 4);
                let mut churn_edges = Vec::with_capacity(cycles);
                for i in 0..cycles {
                    let fresh = format!("move(t{i}, n{})", rng.below(board.positions));
                    let (a, b) = board.edges[rng.below(board.edges.len())].clone();
                    let edge = format!("move({a}, {b})");
                    writer.push(Op::Commit {
                        fact: fresh.clone(),
                        retract: false,
                        effect: Effect::Asserted,
                    });
                    writer.push(Op::Commit {
                        fact: edge.clone(),
                        retract: true,
                        effect: Effect::Retracted,
                    });
                    writer.push(Op::Commit {
                        fact: edge,
                        retract: false,
                        effect: Effect::Reenabled,
                    });
                    writer.push(Op::Commit {
                        fact: fresh,
                        retract: true,
                        effect: Effect::Retracted,
                    });
                    churn_edges.push((a, b));
                }
                let mut rng = Rng::new(seed, 2);
                let reader = (0..CHURN_READER_POOL)
                    .map(|_| Op::Query {
                        goal: format!("?- win(n{}).", rng.below(board.positions)),
                        answers: None,
                    })
                    .collect();
                Plan {
                    streams: vec![writer, reader],
                    churn_edges,
                    warmup: vec![WARMUP_COMMITS, WARMUP_QUERIES],
                }
            }
        }
    }

    /// Whether stream `i` repeats its sequence until the writer is
    /// done, rather than running it once.
    pub fn reader_repeats(&self, i: usize) -> bool {
        !self.churn_edges.is_empty() && i == 1
    }

    /// The whole plan as text: same seed ⇒ same bytes.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.streams.iter().enumerate() {
            let _ = writeln!(out, "stream {i} warmup {}", self.warmup[i]);
            for op in s {
                op.write_line(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::served::{live_facts, local_answers, scratch_session, seed_facts};

    fn small(load: Load) -> Spec {
        Spec {
            name: "test",
            load,
            width: 6,
            height: 6,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_op_streams() {
        let board = Board::new(6, 6);
        for load in [Load::Write, Load::Read, Load::Churn] {
            let spec = small(load);
            let a = Plan::new(&spec, &board, 42, 3).to_text();
            let b = Plan::new(&spec, &board, 42, 3).to_text();
            assert_eq!(a.as_bytes(), b.as_bytes(), "{load:?}");
            let c = Plan::new(&spec, &board, 43, 3).to_text();
            assert_ne!(a, c, "{load:?}: another seed must change the stream");
        }
    }

    #[test]
    fn plans_meet_the_p99_sample_minimum() {
        let board = Board::new(6, 6);
        for load in [Load::Write, Load::Read, Load::Churn] {
            let plan = Plan::new(&small(load), &board, 1, 1);
            let timed = |s: usize| plan.streams[s].len() - plan.warmup[s];
            let headline = match load {
                Load::Write | Load::Read => timed(0) + timed(1),
                Load::Churn => timed(0) / 4,
            };
            assert!(headline >= MIN_TIMED, "{load:?}: {headline} timed");
        }
    }

    #[test]
    fn board_edges_come_from_the_generated_program() {
        let board = Board::new(6, 6);
        let facts = board
            .program
            .clauses()
            .iter()
            .filter(|c| c.is_fact())
            .count();
        assert_eq!(board.edges.len(), facts);
        assert_eq!(board.moves["n0"], vec!["n1".to_string(), "n6".to_string()]);
    }

    #[test]
    fn a_churn_cycle_leaves_the_live_program_equal_to_the_seed() {
        let board = Board::new(6, 6);
        let plan = Plan::new(&small(Load::Churn), &board, 9, 1);
        let cycle = &plan.streams[0][..4];
        assert_eq!(live_facts(&board, cycle), seed_facts(&board));

        // Through the engine: apply the cycle's four commits to a live
        // session and compare its model with the seed's.
        let mut seed = scratch_session(&board, &seed_facts(&board)).unwrap();
        let mut live = scratch_session(&board, &seed_facts(&board)).unwrap();
        for op in cycle {
            let Op::Commit { fact, retract, .. } = op else {
                panic!("the writer stream holds commits only");
            };
            let text = format!("{fact}.");
            let n = if *retract {
                live.retract_facts(&text).unwrap()
            } else {
                live.assert_facts(&text).unwrap()
            };
            assert_eq!(n, 1, "{op:?}");
        }
        let (seed_snap, live_snap) = (seed.snapshot(), live.snapshot());
        for goal in ["?- move(X, Y).", "?- win(X)."] {
            assert_eq!(
                local_answers(&seed_snap, goal).unwrap(),
                local_answers(&live_snap, goal).unwrap(),
                "{goal}"
            );
        }
    }
}
