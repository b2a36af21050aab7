"""Monte Carlo engine for the physical arrival process and both policies.

The physical model draws, per trial: a uniform random assignment of the
ranks 1..n to candidates, an independent Bernoulli(p) second-appearance
flag per candidate, and a uniformly random order of all appearance tokens
(each candidate's earlier token is relabelled appearance 1).  Policies see
only relative ranks.

Reproducibility contract
------------------------
All randomness comes from a Philox counter-based generator keyed by the
seed.  Each trial owns a block of ``6 n`` uniforms, padded up to a whole
number of Philox counter steps (4 outputs each); trial ``i``'s block starts
at counter ``i * block_width / 4``.  Within a block:

    [0,   n)   rank keys: candidate c's rank is the position of its key in
               ascending order, plus one
    [n,  2n)   second-appearance flags: candidate c returns iff u < p
    [2n, 4n)   token shuffle keys, two per candidate; arrival order is the
               ascending-key order of the existing tokens
    [4n, 6n)   policy coins, indexed by event position; the coin at event
               t is consumed only when a fresh leader arrives there

With the layout fixed, a chunked vectorised run and a per-trial run on
``trial_stream(seed, i, n)`` produce identical outcomes bit for bit; trials
are independent, so any execution order gives the same report.

Chunks run on a thread pool, one worker per CPU the process may use.  Each
chunk opens its own generator at its first trial's counter and returns its
success count, and the report adds the counts, so it does not depend on
the number of threads or the order in which chunks finish.  The pool is
started by the first call that needs it and kept for later calls.

Vectorised kernel
-----------------
``estimate`` reads the same layout as the per-trial functions but never
turns rank keys into ranks: both policies only compare ranks, so each
event carries its candidate's rank key, a hire is the best candidate when
its key is the trial's smallest, and a top-3 hire when it is at most the
third smallest.  At p = 0 only the first token of each candidate exists, so
only the even shuffle keys ``[2n, 4n)`` are read and sorted.  The policy is
evaluated without a loop over events: until it stops, its leader is the
prefix minimum of the keys seen.  Trials are drawn in chunks, at least one
trial per chunk, and the kernel reads each chunk as four views: rank keys,
flags, shuffle keys and coins.

At p in {0, 1} the flags and coins decide nothing (at p = 0 no flag is
below p and every coin is below 1 - p; at p = 1 the reverse), so the
kernel reads only ``[0, n)`` and ``[2n, 4n)``.  From n = ``_RANGED_MIN_N``
on, only those ranges are drawn: Philox is counter-based, so each of a
trial's two ranges is reached by setting the counter, and the rest of the
block is never generated.  That costs four calls per trial, about 3 us,
which pays once the 3n skipped uniforms cost more; below that n, and at
every 0 < p < 1, a chunk is one draw of whole blocks.  The layout above is
the same either way, so both paths give the same uniforms and reports.

Ties are the one case where the kernel and the per-trial functions may
disagree: two candidates with equal 53-bit rank keys (probability at most
n^2 2^-54 per trial), or at p = 0 with equal first-token shuffle keys (the
same bound), may be ranked or ordered differently.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    IndexOutOfRange,
    InvalidCombination,
    InvalidSpec,
    MixedSequence,
    check_working_set,
)
from .reappearance import ProblemSpec

__all__ = [
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

_DRAWS_PER_CANDIDATE = 6
# Uniforms of all chunks in flight (16 MiB of whole blocks): each of the t
# threads runs chunks of at most 1/t of it.  The budget covers the blocks
# only; the event arrays built from them add at most as much again.  At
# n = 100, p = 0.5 one chunk peaks at 30 MiB on one thread, and two chunks in
# flight at 27 MiB together (tracemalloc).  At p in {0, 1} from
# n = _RANGED_MIN_N on, a chunk holds as many trials but draws only their 3n
# read uniforms (plus 2 dropped when n is odd); its event arrays grow with the
# trials all the same.  There one thread peaks at 21 MiB at p = 1 and 13 MiB
# at p = 0 (n = 300 and 1000), two threads at 19 and 11 MiB.  Past
# n = 2**21 // 6 a block fills the budget, so a chunk holds one trial and runs
# alone; it peaks at 88 bytes per candidate (62 at p = 1, 40 at p = 0).  A
# budget of 1 << 23 shared by two threads peaked at 117-153 MiB of RSS in the
# mc-small-n benchmark (2-vCPU VM), against 65 MiB with this one.
_CHUNK_DOUBLES = 1 << 21
# Smallest n at which p in {0, 1} draws only the read ranges, trial by trial.
# That costs about 3 us of calls per trial (20 us under tracemalloc), so it
# pays once the 3n uniforms it skips cost more.  Per trial, estimate() took
# contiguous against ranged: 7.8 against 8.9 us at n = 128 (top-3), 14.6
# against 12.3 at n = 192 and 15.6 against 13.4 at n = 256; 118 against 105
# (best, p = 1) and 70 against 51 (top-3) at n = 1000; 676 against 458
# (top-3) at n = 10000 (best of 7, numpy 2.4.6, 2-vCPU x86-64 VM).
_RANGED_MIN_N = 256
_TRIAL_BYTES_PER_CANDIDATE = 88
# One worker per CPU this process may run on.  numpy releases the GIL in the
# Philox fill, the sorts, take, partition and ufunc loops, so chunks on
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
# one, which made mc-small-n passes about 0.07 s slower.
_pool = None
_pool_lock = threading.Lock()


def _block_width(n: int) -> int:
    """Uniforms reserved per trial: 6n, padded to whole Philox counter steps."""
    return -(-_DRAWS_PER_CANDIDATE * n // 4) * 4


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
        if len(ranks) != self.n or sorted(ranks.values()) != list(range(1, self.n + 1)):
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


def trial_stream(seed: int, index: int, n: int) -> np.random.Generator:
    """The per-trial generator: Philox(seed) positioned at trial ``index``'s block."""
    counter = index * _block_width(n) // 4
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def generate_sequence(n: int, p: float, rng: np.random.Generator) -> ArrivalSequence:
    """Draw one arrival sequence; consumes exactly 4n uniforms from ``rng``."""
    ProblemSpec(n, p)  # raises InvalidSpec for n < 1 or p outside [0, 1]
    u = rng.random(4 * n)
    rank_keys = u[:n]
    flags = u[n:2 * n] < p
    shuffle_keys = u[2 * n:4 * n]

    order = np.argsort(rank_keys)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)

    tokens = [(shuffle_keys[2 * c], c) for c in range(n)]
    tokens += [(shuffle_keys[2 * c + 1], c) for c in range(n) if flags[c]]
    tokens.sort()

    seen: dict[int, int] = {}
    events = []
    for _, c in tokens:
        seen[c] = seen.get(c, 0) + 1
        events.append(
            ArrivalEvent(candidate=c + 1, rank=int(ranks[c]), appearance=seen[c])
        )
    return ArrivalSequence(events=tuple(events), n=n)


def run_policy_reappearance(
    seq: ArrivalSequence, k: int, p: float, rng: np.random.Generator
) -> TrialOutcome:
    """Run the re-arrival threshold policy on one sequence.

    Observation phase: process events until k distinct candidates have been
    seen, rejecting everything while tracking the leader.  Selection phase:
    accept the leader's return; accept a fresh leader with probability 1-p
    (on rejection it becomes the new leader); accept a better candidate's
    second arrival.  Consumes a block of 2n uniforms from ``rng`` up front;
    the coin for the event at position t is block[t].
    """
    n = seq.n
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"threshold k={k} outside 1..{n}")
    coins = rng.random(2 * n)

    distinct = 0
    lead_cand = None
    lead_rank = n + 1
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
            if second:
                # better candidate returning; cannot occur while the leader
                # tracks the best of all appearances, kept for completeness
                return TrialOutcome(chosen_rank=ev.rank, stopped_at=t)
            if coins[t] < 1.0 - p:
                return TrialOutcome(chosen_rank=ev.rank, stopped_at=t)
            lead_cand, lead_rank = ev.candidate, ev.rank
    return TrialOutcome(chosen_rank=None, stopped_at=None)


def run_policy_top3(seq: ArrivalSequence, k: int) -> TrialOutcome:
    """Classical threshold rule on a single-appearance sequence.

    Rejects the first k arrivals, then accepts the first arrival better
    than everything seen.  Success is judged downstream as chosen rank <= 3.
    """
    n = seq.n
    if any(ev.appearance == 2 for ev in seq.events):
        raise MixedSequence("top-3 policy needs a single-appearance sequence (p=0)")
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"threshold k={k} outside 0..{n - 1}")
    best = n + 1
    for t, ev in enumerate(seq.events):
        if t >= k and ev.rank < best:
            return TrialOutcome(chosen_rank=ev.rank, stopped_at=t)
        best = min(best, ev.rank)
    return TrialOutcome(chosen_rank=None, stopped_at=None)


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
    Raises DomainError for an n at which one trial would exceed
    ``errors.MAX_WORKING_BYTES``.
    """
    ProblemSpec(n, p)  # raises InvalidSpec for n < 1 or p outside [0, 1]
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if objective not in ("best", "top3"):
        raise InvalidCombination(f"unknown objective {objective!r}")
    if objective == "top3":
        if p != 0.0:
            raise InvalidCombination("top-3 objective requires p = 0")
        if not 0 <= k <= n - 1:
            raise IndexOutOfRange(f"threshold k={k} outside 0..{n - 1}")
    else:
        if not 1 <= k <= n:
            raise IndexOutOfRange(f"threshold k={k} outside 1..{n}")
    check_working_set(n, _TRIAL_BYTES_PER_CANDIDATE, "one simulated trial")

    width = _block_width(n)
    ranged = p in (0.0, 1.0) and n >= _RANGED_MIN_N

    def chunk_successes(first: int, rows: int) -> int:
        gen = trial_stream(seed, first, n)
        if ranged:
            draws = _draw_read_ranges(gen, first, rows, n)
        else:
            draws = _split_block(gen.random((rows, width)), n, p)
        if objective == "top3":
            return _classical_chunk_successes(draws, k, 3)
        if p == 0.0:  # every event is a fresh candidate and every coin is < 1 - p
            return _classical_chunk_successes(draws, k, 1)
        return _best_chunk_successes(draws, p, k)

    threads, rows = _schedule(trials, width)
    firsts = list(itertools.accumulate(rows[:-1], initial=0))
    if threads == 1:
        successes = sum(map(chunk_successes, firsts, rows))
    else:
        successes = _run_on_threads(chunk_successes, firsts, rows, threads)

    est = successes / trials
    se = float(np.sqrt(est * (1.0 - est) / trials))
    return SimulationReport(
        trials=trials, successes=successes, estimate=est, std_error=se, seed=seed
    )


def _schedule(trials: int, width: int) -> tuple[int, list[int]]:
    """Threads to run on, and the trials of each chunk, in trial order.

    ``_CHUNK_DOUBLES`` bounds the uniforms of all chunks in flight: each of
    ``threads`` workers holds at most its share, and a trial wider than
    that share runs alone.  Several chunks come in a multiple of
    ``threads`` with balanced rows, so no worker is left with a short tail;
    a single chunk, or a single thread, runs in the caller's thread.
    """
    threads = max(1, min(_WORKERS, _CHUNK_DOUBLES // width))
    per_chunk = max(1, _CHUNK_DOUBLES // (threads * width))
    chunks = -(-trials // per_chunk)
    if chunks == 1:
        return 1, [trials]
    chunks = min(trials, -(-chunks // threads) * threads)
    size, extra = divmod(trials, chunks)
    return threads, [size + 1] * extra + [size] * (chunks - extra)


def _run_on_threads(run, firsts: list[int], rows: list[int], threads: int) -> int:
    """Sum of ``run(first, rows)`` over the chunks, on ``threads`` pool workers.

    Worker j runs chunks j, j + threads, ... one after another, so at most
    ``threads`` chunks are in flight.  After an error or interrupt no
    further chunk starts, and the call returns once the running ones end.
    """
    stop = threading.Event()

    def lane(j: int) -> int:
        successes = 0
        try:
            for first, count in zip(firsts[j::threads], rows[j::threads]):
                if stop.is_set():
                    break
                successes += run(first, count)
        except BaseException:
            stop.set()
            raise
        return successes

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


class _Draws(NamedTuple):
    """The four ranges of a chunk of trial blocks, one row per trial."""

    rank_keys: np.ndarray  # [0, n)
    flags: np.ndarray | None  # [n, 2n); None at p in {0, 1}, where they decide nothing
    shuffle_keys: np.ndarray  # [2n, 4n)
    coins: np.ndarray | None  # [4n, 6n); None at p in {0, 1}, where they decide nothing


def _split_block(block: np.ndarray, n: int, p: float) -> _Draws:
    """A chunk drawn as whole trial blocks, as views of its four ranges."""
    if p in (0.0, 1.0):
        return _Draws(block[:, :n], None, block[:, 2 * n:4 * n], None)
    return _Draws(block[:, :n], block[:, n:2 * n], block[:, 2 * n:4 * n], block[:, 4 * n:6 * n])


def _draw_read_ranges(gen: np.random.Generator, first: int, rows: int, n: int) -> _Draws:
    """Trials ``first .. first + rows - 1``, drawing only the ranges read at p in {0, 1}.

    Only ``[0, n)`` and ``[2n, 4n)`` of each block are drawn.  Each range is
    reached by setting the Philox counter and dropping the buffered
    uniforms: trial i's rank keys open step ``i * width / 4``, and its
    shuffle keys start ``lead`` uniforms into step floor(2n/4) of the block;
    those ``lead`` uniforms are drawn and dropped.  The state is set from
    plain lists, which allocates next to nothing; ``advance`` builds about
    ten objects per call and took 2-4 us (13-25 us under tracemalloc)
    against 0.5-1.3 us (2-4 us).  A counter at or past 2**64, which would
    take 2**66 uniforms to reach, raises OverflowError.
    """
    bit_gen = gen.bit_generator
    state = bit_gen.state
    state["state"]["key"] = state["state"]["key"].tolist()
    counter = state["state"]["counter"] = [0, 0, 0, 0]
    state["buffer"] = [0, 0, 0, 0]
    state["buffer_pos"] = 4  # nothing buffered: the next draw starts at the counter
    steps = _block_width(n) // 4
    to_shuffle = 2 * n // 4
    lead = 2 * n % 4
    rank_keys = np.empty((rows, n))
    shuffle = np.empty((rows, lead + 2 * n))
    starts = range(first * steps, (first + rows) * steps, steps)
    for start, keys_row, shuffle_row in zip(starts, rank_keys, shuffle):
        counter[0] = start
        bit_gen.state = state
        gen.random(out=keys_row)
        counter[0] = start + to_shuffle
        bit_gen.state = state
        gen.random(out=shuffle_row)
    return _Draws(rank_keys, None, shuffle[:, lead:], None)


def _event_keys(draws: _Draws, p: float):
    """Rank keys of each trial's events in arrival order, mirroring generate_sequence.

    Returns ``(x, second)``.  ``x[i, t]`` is the rank key of the candidate
    at event t of trial i (a smaller key is a better rank).  ``second``
    flags second appearances, and is None at p = 0, where only the n first
    tokens exist and are sorted.  At p > 0 each row has 2n columns: past
    the trial's events come the missing second tokens, each carrying its
    candidate's key unflagged, so no policy can accept one.
    """
    t_cnt, n = draws.rank_keys.shape
    rank_keys = np.ascontiguousarray(draws.rank_keys).ravel()
    if p == 0.0:
        tok = np.argsort(draws.shuffle_keys[:, 0::2], axis=1)
        tok += np.arange(0, t_cnt * n, n)[:, None]  # flat candidate index
        return rank_keys.take(tok), None

    keys = draws.shuffle_keys.copy()
    later = np.empty(keys.shape, dtype=bool)  # the token is an existing second one
    if draws.flags is None:  # p = 1: every candidate returns
        np.greater(keys[:, 0::2], keys[:, 1::2], out=later[:, 0::2])
        np.logical_not(later[:, 0::2], out=later[:, 1::2])
    else:
        single = draws.flags >= p
        keys[:, 1::2][single] = np.inf  # missing second tokens sort to the tail
        np.greater(keys[:, 0::2], keys[:, 1::2], out=later[:, 0::2])
        np.logical_or(later[:, 0::2], single, out=later[:, 1::2])
        np.logical_not(later[:, 1::2], out=later[:, 1::2])

    tok = np.argsort(keys, axis=1)
    del keys
    tok += np.arange(0, t_cnt * 2 * n, 2 * n)[:, None]  # flat token index
    second = later.ravel().take(tok)
    del later
    tok >>= 1  # flat candidate index
    return rank_keys.take(tok), second


def _hired_keys(x: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """Rank key of each trial's first accepted event; inf where none is accepted."""
    if accept.shape[1] == 0:  # the classical rule at k = n
        return np.full(accept.shape[0], np.inf)
    first = accept.argmax(axis=1)[:, None]
    hired = np.take_along_axis(accept, first, axis=1)
    return np.where(hired, np.take_along_axis(x, first, axis=1), np.inf)[:, 0]


def _classical_chunk_successes(draws: _Draws, k: int, r: int) -> int:
    """Trials in which the classical rule (see run_policy_top3) hires one of the r best.

    The rule takes the first event at position >= k that beats every
    earlier event.  Until it hires, the best key seen is the best of the
    first k, so one comparison per event decides.  A hire is one of the
    trial's keys or inf, so being at most the r-th smallest key means
    ranking among the r best (below n = r, every hire does).
    """
    x, _ = _event_keys(draws, 0.0)
    bar = x[:, :k].min(axis=1, initial=np.inf)
    hired = _hired_keys(x[:, k:], x[:, k:] < bar[:, None])
    del bar  # before the partition copy: kept alive, it pinned the heap (peak RSS +3 MiB)
    kth = min(r, x.shape[1]) - 1
    rth = np.partition(draws.rank_keys, kth, axis=1)[:, kth]
    return int(np.count_nonzero(hired <= rth))


def _best_chunk_successes(draws: _Draws, p: float, k: int) -> int:
    """Trials in which the re-arrival policy hires the best, at 0 < p <= 1."""
    x, second = _event_keys(draws, p)
    # Until the policy stops, its leader is the best key seen so far (it
    # moves only to a better fresh candidate it turns down), so from the
    # second event on it is the prefix minimum.  Only a fresh candidate
    # can beat it and only its own return can tie it.  Selection starts
    # once k distinct candidates have been seen.
    selecting = np.cumsum(~second[:, :-1], axis=1, dtype=np.int32) >= k
    leader = np.minimum.accumulate(x[:, :-1], axis=1)
    x_next = x[:, 1:]
    if draws.coins is None:  # p = 1: no coin is below 1 - p
        accept = (x_next == leader) & second[:, 1:]
    else:  # coin accept first: two bool temporaries at a time, not three
        accept = (x_next < leader) & (draws.coins[:, 1:] < 1.0 - p)
        accept |= (x_next == leader) & second[:, 1:]
    accept &= selecting
    hired = _hired_keys(x_next, accept)
    best = np.minimum(leader[:, -1], x[:, -1])
    return int(np.count_nonzero(hired == best))
