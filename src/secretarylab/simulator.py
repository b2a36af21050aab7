"""Monte Carlo engine for the physical arrival process and both policies.

The physical model draws, per trial: a uniform random assignment of the
ranks 1..n to candidates, an independent Bernoulli(p) second-appearance
flag per candidate, and a uniformly random order of all appearance tokens
(each candidate's earlier token is relabelled appearance 1).  Policies see
only relative ranks.  The simulator realises that order in continuous time
(Bruss, Ann. Probab. 12(3), 1984): every token gets an independent
Uniform(0, 1) time, and candidates are numbered in order of arrival.  A
candidate's first time then has CDF G(a) = (1+p)a - pa^2, and given it is
a, the candidate returns with probability 2p(1-a)/G'(a), at a time uniform
on (a, 1).  At p = 0 no candidate returns and candidate c arrives c-th.

Reproducibility contract (stream layout 5)
------------------------------------------
All randomness comes from one PCG64DXSM stream per seed (O'Neill 2014),
seeded through numpy's SeedSequence.  Each trial owns a block of the
uniforms that can decide its outcome, one 64-bit output per uniform, and
trial ``i``'s block starts ``i * _block_width(n, p)`` outputs into the
stream, reached by ``advance``.  At 0 < p < 1 a block holds 4n uniforms;
candidates j = 0..n-1 in arrival order:

    [0,   n)   rank keys: candidate j's rank is the position of key j in
               ascending order, plus one
    [n,  2n)   arrival keys: candidate j arrives at a_j = G^-1(u_(j)), where
               u_(0) <= ... <= u_(n-1) are the keys sorted and
               G^-1(u) = 2u / ((1+p) + sqrt((1+p)^2 - 4pu))
    [2n, 3n)   return keys: candidate j returns at
               b_j = a_j + v_j ((1+p)/(2p) - a_j), v_j its key, iff b_j < 1
    [3n, 4n)   policy coins, coin j consumed only when candidate j arrives
               as a fresh leader in the selection phase

This is the physical law: the a_j are the ordered first times of n
candidates, each with CDF G; given a_j, b_j < 1 with probability
(1 - a_j) / ((1+p)/(2p) - a_j) = 2p(1-a_j)/G'(a_j), and b_j is then uniform
on (a_j, 1); rank and return keys are i.i.d. and independent of the
arrival keys, so they can be given out by arrival position.  G is
increasing, so the code orders tokens by G(a_j) = u_(j) and
G(b_j) = u_(j) + v_j (2 - v_j) ((1+p)^2/(4p) - u_(j)) and computes no time.

At p = 1 the coins decide nothing (no fresh leader is accepted), so a block
holds 3n uniforms, the first three ranges.  At p = 0 only the rank keys
decide, so a block holds those n alone.

Layouts 1-4 drew from a Philox counter-based generator keyed by the seed,
each block padded to whole counter steps of 4 outputs.  Layout 1 drew a 6n
block at every p (rank keys, flags, two shuffle keys per candidate ordered
by an argsort, coins by event position), layout 2 a 3n block at p in
{0, 1}, layout 3 the n block at p = 0, and layout 4 the ranges above;
reports at p = 0 are the same under layouts 3 and 4.  Layout 5 keeps the
ranges of layout 4 and changes only the generator, so its reports differ
from theirs at every p.

With the layout fixed, a chunked vectorised run and a per-trial run on
``trial_stream(seed, i, n, p)`` produce identical outcomes bit for bit;
trials are independent, so any execution order gives the same report.

Chunks run on a thread pool, one worker per CPU the process may use.  Each
chunk opens its own generator at its first trial's block, draws its
trials' blocks in one call into a buffer its thread keeps and returns its
success count, and the report adds the counts, so it does not depend on
the number of threads or the order in which chunks finish.  The pool is
started by the first call that needs it and kept for later calls.

Vectorised kernel
-----------------
``estimate`` reads the same layout as the per-trial functions but never
turns rank keys into ranks: both policies only compare ranks, so a hire is
the best candidate when its key is the trial's smallest, and a top-3 hire
when it is at most the third smallest.  At p = 0 the rank keys are in
arrival order, so nothing is sorted.  At p > 0 the policy can hire only
records (keys equal to their prefix minimum), since until it stops its
leader is the best candidate seen.  Two row passes, one value sort of the
n arrival keys and the prefix minimum of the rank keys, list each trial's
records in arrival order; a trial holds H_n of them on average (Renyi
1962: 2.08 at n = 4, 7.49 at n = 1000), and the kernel reads the records
alone, in flat arrays.  Record j is hired on its return iff
a_(k-1) <= b_j < the next record's arrival (1 if none comes), and on
arrival iff j >= k and its coin is below 1 - p.  These windows are
disjoint and ordered in time, so a trial succeeds iff its last record, the
best candidate, is the only record hired.  Trials are drawn in chunks, at
least one trial per chunk, and the kernel reads each chunk as views of its
ranges.

Ties: two candidates with equal 53-bit rank keys (probability at most
n^2 2^-54 per trial) may be ranked differently by the kernel and by the
per-trial functions; when two keys tie for a trial's smallest, both are
records and the kernel counts the later one as the best.  At p > 0 a
return can also tie with an arrival, or two arrivals tie (equal
G-images); both paths put arrivals before returns and arrivals in
candidate order, so those ties decide alike.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import errors, top3
from .errors import DomainError, InvalidCombination, InvalidSpec, MixedSequence
from .reappearance import ProblemSpec, check_k, check_p

__all__ = [
    "STREAM_LAYOUT",
    "ArrivalEvent",
    "ArrivalSequence",
    "TrialOutcome",
    "SimulationReport",
    "generate_sequence",
    "run_policy_reappearance",
    "run_policy_top3",
    "estimate",
    "trial_stream",
]

STREAM_LAYOUT = 5  # see the module docstring
_SEEDS = (0, 2**128 - 1)  # the seeds estimate and trial_stream accept
# Uniforms of all chunks of a call in flight (2.7 MiB): each of the t threads
# runs chunks of at most 1/t of it, counting the _block_width(n, p) uniforms
# each trial draws.  The budget covers the blocks only; the kernel's arrays
# add at most as much again.  All chunks in flight peak together at 3.0-6.4
# MiB at n = 4 and 100, p = 0.5, at n = 1000, p = 1 and for top-3 at n = 1000
# and 10000, on one thread and on two alike (tracemalloc), and the threads
# keep 2.7-5.4 MiB of it for later calls (see _kept).  At 2**21 / 6, two
# threads run top-3 chunks of 174 trials at n = 1000 and 17 at n = 10000, the
# sizes those runs were tuned at.  The threads are set by n alone (see
# _schedule), so a trial wider than its thread's share runs in a chunk of its
# own, and lone trials on t threads may hold up to 4 (3 at p = 1) times the
# budget; past n = 174762, half the budget, a trial runs alone on one thread.
_CHUNK_DOUBLES = (1 << 21) // 6
# Bytes per candidate a trial is sized at; an n at which a trial passes
# 2 GiB is refused before anything is drawn.  A lone trial peaked at 67 at
# 0 < p < 1 (58 at p = 1) when every cell was scored; reading the records
# alone it peaks at 42 (33 at p = 1, 9 at p = 0; tracemalloc, n = 1e6).  The
# bound is kept, as it sets which n are refused and the figures they print.
_TRIAL_BYTES_PER_CANDIDATE = 67
# One worker per CPU this process may run on.  numpy releases the GIL in the
# generator's fill, the sorts, take, partition and ufunc loops, so chunks on
# different threads overlap.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# (workers, ThreadPoolExecutor): started by the first estimate() that runs on
# threads and kept, idle, for later calls.  A pool per call made peak RSS
# unsteady: each new worker's first malloc could run before the previous
# call's worker had exited and handed back its glibc arena, so it opened a
# new arena, and the mc-small-n benchmark peaked near 65 or near 80 MiB
# from one run to the next (2-vCPU VM).  With the same workers every call
# it read 65.2-67.2 MiB over 8 runs.  The cost: a kept worker's arena may
# hand a finished chunk's pages back and fault them in again for the next
# one, so each thread keeps its chunks' large arrays (see _kept).
_pool = None
_pool_lock = threading.Lock()
_kept_arrays = threading.local()


def _kept(name: str, size: int, dtype=np.float64, limit: int | None = None) -> np.ndarray:
    """The first ``size`` entries of this thread's array ``name``, kept for later chunks and calls.

    Made afresh per chunk or per call, the large arrays were handed back
    by the allocator and faulted in again: about 5000 minor faults per
    in-process mc-small-n pass with the block buffer made per call, 17k
    with it kept and the kernel's arrays made per chunk, 8000 with both
    kept at exactly the size asked for, and none with both grown to 5/4 of
    it, as here.  No array is kept past ``limit`` entries
    (``_CHUNK_DOUBLES`` by default); a larger one is made afresh for the
    caller alone.
    """
    limit = _CHUNK_DOUBLES if limit is None else limit
    if size > limit:
        return np.empty(size, dtype)
    buf = getattr(_kept_arrays, name, None)
    if buf is not None and buf.size >= size:
        return buf[:size]
    buf = np.empty(min(size + size // 4, limit), dtype)
    setattr(_kept_arrays, name, buf)
    return buf[:size]


def _block_width(n: int, p: float) -> int:
    """Uniforms in a trial's block: 4n at 0 < p < 1, 3n at p = 1 and n at p = 0 (see the module docstring)."""
    return (1 if p == 0.0 else 3 if p == 1.0 else 4) * n


@dataclass(frozen=True)
class ArrivalEvent:
    """One interview: candidate id (1-based), hidden absolute rank, appearance 1 or 2."""

    candidate: int
    rank: int
    appearance: int


@dataclass(frozen=True)
class ArrivalSequence:
    """An ordered list of interviews for one trial."""

    events: tuple[ArrivalEvent, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", errors.integer("n", self.n, 1, error=InvalidSpec))
        counts: dict[int, int] = {}
        ranks: dict[int, int] = {}
        for ev in self.events:
            counts[ev.candidate] = counts.get(ev.candidate, 0) + 1
            if ev.appearance != counts[ev.candidate]:
                raise InvalidSpec(
                    f"candidate {ev.candidate}: appearance {ev.appearance} out of order"
                )
            ranks.setdefault(ev.candidate, ev.rank)
            if ranks[ev.candidate] != ev.rank:
                raise InvalidSpec(f"candidate {ev.candidate} changed rank")
        if sorted(ranks) != list(range(1, self.n + 1)):
            raise InvalidSpec(f"candidate ids are not 1..{self.n}")
        if sorted(ranks.values()) != list(range(1, self.n + 1)):
            raise InvalidSpec("ranks are not a permutation of 1..n")
        if any(c > 2 for c in counts.values()):
            raise InvalidSpec("no candidate may appear more than twice")

    @classmethod
    def from_ranks(cls, ranks) -> "ArrivalSequence":
        """Single-appearance sequence whose t-th arrival has rank ranks[t]."""
        n = len(ranks)
        events = tuple(
            ArrivalEvent(candidate=t + 1, rank=int(r), appearance=1)
            for t, r in enumerate(ranks)
        )
        return cls(events=events, n=n)


@dataclass(frozen=True)
class TrialOutcome:
    """chosen_rank/stopped_at are None exactly when the policy never accepted."""

    chosen_rank: int | None
    stopped_at: int | None


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    successes: int
    estimate: float
    std_error: float
    seed: int


def trial_stream(seed: int, index: int, n: int, p: float) -> np.random.Generator:
    """The per-trial generator: PCG64DXSM(seed) advanced to the block of trial ``index``, an integer >= 0.

    The whole block must fit in the stream's period of 2**128 outputs, or
    its tail would wrap onto trial 0's uniforms (``advance`` wraps without
    a word), so ``index`` is at most 2**128 // (block width) - 1; past that
    it raises DomainError.
    """
    seed = errors.integer("seed", seed, *_SEEDS)
    width = _block_width(ProblemSpec(n, p).n, p)
    index = errors.integer("index", index, 0, 2**128 // width - 1)
    return np.random.Generator(np.random.PCG64DXSM(seed).advance(index * width))


def generate_sequence(n: int, p: float, rng: np.random.Generator) -> ArrivalSequence:
    """Draw one arrival sequence.

    Consumes n rank keys and, at p > 0, n arrival keys and n return keys
    from ``rng`` (see the module docstring); at p = 0 candidate c arrives
    c-th and only once.  Candidate c is the c-th to arrive, and at equal
    times arrivals come before returns.
    """
    spec = ProblemSpec(n, p)
    n, p = spec.n, spec.p
    order = np.argsort(rng.random(n))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    if p == 0.0:
        return ArrivalSequence.from_ranks(ranks)
    u = np.sort(rng.random(n))
    returns = _returns(u, rng.random(n), p).tolist()
    tokens = sorted([(x, 0, c) for c, x in enumerate(u.tolist())]
                    + [(x, 1, c) for c, x in enumerate(returns) if x < 1.0])
    return ArrivalSequence(events=tuple(
        ArrivalEvent(candidate=c + 1, rank=int(ranks[c]), appearance=kind + 1)
        for _, kind, c in tokens), n=n)


def _returns(u: np.ndarray, v: np.ndarray, p: float, out=None) -> np.ndarray:
    """G(b) of candidates with sorted arrival keys u = G(a) and return keys v, at p > 0.

    G(b) = u + v(2 - v)((1+p)^2/(4p) - u), below 1 iff the candidate
    returns.  G is increasing, so these and the keys order the tokens as
    their times do, and no time is computed.  Given ``out``, writes G(b)
    there and overwrites v.
    """
    # (1+p)^2/(4p) is inf at p = 5e-324, and 0 * inf is NaN; past 2**60 any
    # return key above 0 puts G(b) past 1 either way
    g = np.subtract(min((1.0 + p) ** 2 / (4.0 * p), 2.0**60), u, out=out)
    g *= v
    g *= np.subtract(2.0, v, out=None if out is None else v)
    g += u
    return g


def run_policy_reappearance(
    seq: ArrivalSequence, k: int, p: float, rng: np.random.Generator
) -> TrialOutcome:
    """Run the re-arrival threshold policy on one sequence.

    Observation phase: process events until k distinct candidates have been
    seen, rejecting everything while tracking the leader.  Selection phase:
    accept the leader's return; accept a fresh leader with probability 1-p
    (on rejection it becomes the new leader).  A candidate's rank is seen at
    its first appearance, so the leader is the best candidate seen and no
    other candidate's return can beat it.  At 0 < p < 1 consumes n coins
    from ``rng`` up front, the coin of candidate c being coins[c - 1]; at p
    in {0, 1} the coin decides nothing and none is drawn.
    """
    k, p = check_k(k, seq.n), check_p(p)
    # every coin p accepts a fresh leader at p = 0 and never at p = 1
    coins = rng.random(seq.n) if 0.0 < p < 1.0 else np.full(seq.n, p)
    return _threshold_walk(seq, k, p, coins)


def _threshold_walk(seq: ArrivalSequence, k: int, p: float, coins: np.ndarray) -> TrialOutcome:
    """The rule of run_policy_reappearance, with candidate c's coin at coins[c - 1]."""
    distinct = 0
    lead_cand = None
    lead_rank = seq.n + 1
    for t, ev in enumerate(seq.events):
        second = ev.appearance == 2
        if distinct < k:
            if ev.rank < lead_rank:
                lead_cand, lead_rank = ev.candidate, ev.rank
            if not second:
                distinct += 1
            continue
        if second and ev.candidate == lead_cand:
            return TrialOutcome(chosen_rank=ev.rank, stopped_at=t)
        if ev.rank < lead_rank:
            if coins[ev.candidate - 1] < 1.0 - p:
                return TrialOutcome(chosen_rank=ev.rank, stopped_at=t)
            lead_cand, lead_rank = ev.candidate, ev.rank
    return TrialOutcome(chosen_rank=None, stopped_at=None)


def run_policy_top3(seq: ArrivalSequence, k: int) -> TrialOutcome:
    """Classical threshold rule on a single-appearance sequence.

    Rejects the first k arrivals, then accepts the first arrival better
    than everything seen.  Success is judged downstream as chosen rank <= 3.
    This is the re-arrival walk at p = 0: every coin accepts, and the
    distinct count is the position, so k = 0 hires the first arrival.
    """
    if any(ev.appearance == 2 for ev in seq.events):
        raise MixedSequence("top-3 policy needs a single-appearance sequence (p=0)")
    k = top3.check_k(k, top3.check_n(seq.n))
    return _threshold_walk(seq, k, 0.0, np.zeros(seq.n))


def estimate(
    n: int,
    p: float,
    k: int,
    trials: int,
    seed: int,
    objective: str = "best",
) -> SimulationReport:
    """Estimate the success probability over independent trials.

    objective "best" runs the re-arrival policy and scores rank-1 hires;
    "top3" requires p = 0, runs the classical rule, and scores rank <= 3.
    Bit-for-bit reproducible for fixed arguments (see module docstring).
    Before drawing anything, checks each argument with the function that
    owns it (the README's table of errors): n with ``ProblemSpec``, or with
    ``top3.check_n`` for "top3"; the seed, 0 to 2**128 - 1;
    and that one trial holds at most 2 GiB (DomainError).
    """
    spec = ProblemSpec(top3.check_n(n) if objective == "top3" else n, p)
    n, p = spec.n, spec.p
    trials = errors.integer("trials", trials, 1)
    seed = errors.integer("seed", seed, *_SEEDS)
    if objective not in ("best", "top3"):
        raise InvalidCombination(f"unknown objective {objective!r}")
    if objective == "top3" and p != 0.0:
        raise InvalidCombination("top-3 objective requires p = 0")
    k = (top3.check_k if objective == "top3" else check_k)(k, n)
    if n * _TRIAL_BYTES_PER_CANDIDATE > 2 << 30:
        raise DomainError(f"one simulated trial at n={n} needs about "
                          f"{n * _TRIAL_BYTES_PER_CANDIDATE / 2**30:.3g} GiB, over the 2 GiB limit")

    width = _block_width(n, p)

    def chunk_successes(first: int, block: np.ndarray) -> int:
        trial_stream(seed, first, n, p).random(out=block)
        if p == 0.0:  # both objectives: no candidate returns and every coin is < 1 - p
            return _classical_chunk_successes(block, n, k, 3 if objective == "top3" else 1)
        return _best_chunk_successes(block, n, p, k)

    successes = _run_chunks(chunk_successes, trials, width, *_schedule(trials, n, width))
    est = successes / trials
    se = float(np.sqrt(est * (1.0 - est) / trials))
    return SimulationReport(
        trials=trials, successes=successes, estimate=est, std_error=se, seed=seed
    )


def _schedule(trials: int, n: int, width: int) -> tuple[int, int]:
    """Threads to run on, and the number of chunks the trials are split into.

    A trial draws a block of ``width`` uniforms.  Each of ``threads``
    workers runs chunks of at most its share of ``_CHUNK_DOUBLES`` uniforms,
    and a trial wider than that share runs in a chunk of its own.  Several
    chunks come in a multiple of ``threads`` with balanced rows, so no
    worker is left with a short tail; a single chunk, or a single thread,
    runs in the caller's thread.
    """
    # threads are set by n alone: capped by the block as well, 0 < p < 1
    # runs at 43690 < n <= 174762 would take one thread, and n = 1e5,
    # p = 0.5, 40 trials took 0.50 s on one against 0.19 s on two (2-vCPU VM)
    threads = max(1, min(_WORKERS, _CHUNK_DOUBLES // n))
    per_chunk = max(1, _CHUNK_DOUBLES // (threads * width))
    chunks = -(-trials // per_chunk)
    if chunks == 1:
        return 1, 1
    return threads, min(trials, -(-chunks // threads) * threads)


def _chunks(trials: int, chunks: int, start: int, step: int):
    """(first trial, rows) of chunks start, start + step, ... of ``chunks``.

    The first ``trials % chunks`` chunks hold one row more than the rest.
    """
    size, extra = divmod(trials, chunks)
    for i in range(start, chunks, step):
        yield i * size + min(i, extra), size + (i < extra)


def _run_chunks(run, trials: int, width: int, threads: int, chunks: int) -> int:
    """Sum of ``run(first, block)`` over the chunks, on ``threads`` pool workers.

    ``block`` is the chunk's (rows, width) view of a buffer for ``run`` to
    fill; a lane's thread keeps it for later calls when it fits the thread's
    share of ``_CHUNK_DOUBLES``, and a lone trial wider than that gets a
    fresh one.  Worker j runs chunks j, j + threads, ... one after another,
    so at most ``threads`` chunks are in flight; a lone lane runs in the
    caller's thread, several on pool workers while the caller waits.
    After an error or interrupt no further chunk starts, and the call returns
    once the running ones end.
    """
    stop = threading.Event()

    def lane(j: int) -> int:
        successes, buf = 0, None
        try:
            for first, rows in _chunks(trials, chunks, j, threads):
                if stop.is_set():
                    break
                if buf is None:  # a lane's first chunk is its largest
                    buf = _kept("block", rows * width, limit=_CHUNK_DOUBLES // threads)
                    buf = buf.reshape(rows, width)
                successes += run(first, buf[:rows])
        except BaseException:
            stop.set()
            raise
        return successes

    if threads == 1:
        return lane(0)
    pool = _thread_pool()
    lanes = [pool.submit(lane, j) for j in range(threads)]
    try:
        return sum(f.result() for f in lanes)
    finally:
        stop.set()
        for f in lanes:
            f.exception()  # waits for the lane without raising


def _thread_pool():
    """The shared pool of ``_WORKERS`` threads, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != _WORKERS:
            from concurrent.futures import ThreadPoolExecutor  # about 7 ms to import

            if _pool is not None:
                _pool[1].shutdown()
            _pool = (_WORKERS, ThreadPoolExecutor(_WORKERS))
        return _pool[1]


def _forget_pool() -> None:
    """In a forked child, whose copy of the pool has no threads, start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _hired_keys(x: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """Rank key of each trial's first accepted event; inf where none is accepted."""
    if accept.shape[1] == 0:  # the classical rule at k = n
        return np.full(accept.shape[0], np.inf)
    first = accept.argmax(axis=1)[:, None]
    hired = np.take_along_axis(accept, first, axis=1)
    return np.where(hired, np.take_along_axis(x, first, axis=1), np.inf)[:, 0]


def _classical_chunk_successes(block: np.ndarray, n: int, k: int, r: int) -> int:
    """Trials in which the classical rule (see run_policy_top3) hires one of the r best.

    At p = 0 candidate c arrives c-th, so the rank keys are the event keys.
    The rule takes the first event at position >= k that beats every
    earlier event.  Until it hires, the best key seen is the best of the
    first k, so one comparison per event decides.  A hire ranks among the
    r best exactly when fewer than r of the trial's keys lie below it; no
    hire (inf) has all n below it, and fails as n >= r (n >= 4 for top 3).
    """
    x = block[:, :n]
    bar = x[:, :k].min(axis=1, initial=np.inf)
    hired = _hired_keys(x[:, k:], x[:, k:] < bar[:, None])
    return int(np.count_nonzero(np.count_nonzero(x < hired[:, None], axis=1) < r))


def _best_chunk_successes(block: np.ndarray, n: int, p: float, k: int) -> int:
    """Trials in which the re-arrival policy hires the best, at 0 < p <= 1.

    Record j (a key equal to its prefix minimum) is hired iff it returns in
    the selection phase before the next record arrives, or arrives in it and
    its coin accepts; the trial succeeds iff only the last record is hired.
    After the two row passes (the sort and the prefix minimum) the kernel
    reads the records alone, about H_n a trial, listed row by row in
    arrival order in flat arrays, most of them kept by the thread (see
    _kept).  Sorts the arrival keys in place.
    """
    rows, width = block.shape
    x = block[:, :n]
    prefix_min = _kept("prefix_min", x.size).reshape(x.shape)
    np.minimum.accumulate(x, axis=1, out=prefix_min)
    rec = np.flatnonzero(x == prefix_min)  # position 0 is in every row
    row = np.floor_divide(rec, n, out=_kept("row", rec.size, np.int64))
    last = np.empty(rec.size, dtype=bool)  # each row's last record, its best candidate
    np.not_equal(row[1:], row[:-1], out=last[:-1])
    last[-1] = True
    u = block[:, n:2 * n]
    u.sort(axis=1)  # nothing else reads the arrival keys
    # take buffers its output unless told to clip; no index here is out of range.
    # A return is in the selection phase iff it is at or after a_(k-1), as any at j >= k is
    bar = u[:, k - 1].take(row, out=_kept("bar", rec.size), mode="clip")
    late = rec - row * n >= k  # arrives in the selection phase
    # flat offset of each record's arrival key, then of its return key and its coin,
    # in rows of 3n or 4n uniforms
    key = rec
    key += row * (width - n)
    key += n
    flat = block.reshape(-1)
    at = flat.take(key, out=_kept("at", rec.size), mode="clip")  # G(a) of each record
    key += n
    g = _returns(at, flat.take(key, out=_kept("v", rec.size), mode="clip"), p,
                 out=_kept("g", rec.size))
    hired = g >= bar
    at[:-1] = at[1:]  # G(a) of the row's next record, 1 at its last
    at[last] = 1.0
    hired &= g < at
    if p < 1.0:  # at p = 1 no coin is below 1 - p
        key += n
        coin = flat.take(key, out=_kept("v", rec.size), mode="clip") < 1.0 - p
        coin &= late
        hired |= coin
    # a trial fails iff one of its records has hired != last
    hired ^= last
    wrong = row[hired]  # the rows of those records, in order
    return rows - (wrong.size > 0) - int(np.count_nonzero(wrong[1:] != wrong[:-1]))
