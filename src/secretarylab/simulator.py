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

Vectorised kernel
-----------------
``estimate`` reads the same layout as the per-trial functions but never
turns rank keys into ranks: both policies only compare ranks, so each
event carries its candidate's rank key, a hire is the best candidate when
its key is the trial's smallest, and a top-3 hire when it is at most the
third smallest.  At p = 0 only the first token of each candidate exists, so
only the even shuffle keys ``[2n, 4n)`` are read and sorted.  The policy is
evaluated without a loop over events: until it stops, its leader is the
prefix minimum of the keys seen.  Trials are drawn in chunks of whole
blocks, at least one trial per chunk.

Ties are the one case where the kernel and the per-trial functions may
disagree: two candidates with equal 53-bit rank keys (probability at most
n^2 2^-54 per trial), or at p = 0 with equal first-token shuffle keys (the
same bound), may be ranked or ordered differently.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Uniforms drawn per vectorised chunk (64 MiB).  The budget covers the block
# only; the event arrays built from it add at most as much again, and a
# chunk peaks at 121 MiB in all, 96 MiB at p = 0 (measured with tracemalloc).
# Past n = 2**23 // 6 one trial's block alone exceeds the budget and a chunk
# holds that one trial, which peaks at 88 bytes per candidate.
_CHUNK_DOUBLES = 1 << 23
_TRIAL_BYTES_PER_CANDIDATE = 88


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
    chunk = max(1, _CHUNK_DOUBLES // width)
    gen = np.random.Generator(np.random.Philox(key=seed))
    successes = 0
    for done in range(0, trials, chunk):
        block = gen.random((min(chunk, trials - done), width))
        if objective == "top3":
            successes += _top3_chunk_successes(block, n, k)
        else:
            successes += _best_chunk_successes(block, n, p, k)
        del block  # free this chunk before the next one is drawn

    est = successes / trials
    se = float(np.sqrt(est * (1.0 - est) / trials))
    return SimulationReport(
        trials=trials, successes=successes, estimate=est, std_error=se, seed=seed
    )


def _event_keys(block: np.ndarray, n: int, p: float):
    """Rank keys of each trial's events in arrival order, mirroring generate_sequence.

    Returns ``(x, second)``.  ``x[i, t]`` is the rank key of the candidate
    at event t of trial i (a smaller key is a better rank).  ``second``
    flags second appearances, and is None at p = 0, where only the n first
    tokens exist and are sorted.  At p > 0 each row has 2n columns: past
    the trial's events come the missing second tokens, each carrying its
    candidate's key unflagged, so no policy can accept one.
    """
    t_cnt = block.shape[0]
    rank_keys = np.ascontiguousarray(block[:, :n]).ravel()
    if p == 0.0:
        tok = np.argsort(block[:, 2 * n:4 * n:2], axis=1)
        tok += np.arange(0, t_cnt * n, n)[:, None]  # flat candidate index
        return rank_keys.take(tok), None

    keys = block[:, 2 * n:4 * n].copy()
    single = block[:, n:2 * n] >= p
    keys[:, 1::2][single] = np.inf  # missing second tokens sort to the tail
    later = np.empty(keys.shape, dtype=bool)  # the token is an existing second one
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


def _classical_hires(x: np.ndarray, k: int) -> np.ndarray:
    """Hired keys of the classical rule (see run_policy_top3).

    The rule takes the first event at position >= k that beats every
    earlier event.  Until it hires, the best key seen is the best of the
    first k, so one comparison per event decides.
    """
    bar = x[:, :k].min(axis=1, initial=np.inf)
    return _hired_keys(x[:, k:], x[:, k:] < bar[:, None])


def _best_chunk_successes(block: np.ndarray, n: int, p: float, k: int) -> int:
    x, second = _event_keys(block, n, p)
    if second is None:
        # p = 0: every event is a fresh candidate and every coin is < 1 - p
        hired = _classical_hires(x, k)
        best = x.min(axis=1)
    else:
        # Until the policy stops, its leader is the best key seen so far (it
        # moves only to a better fresh candidate it turns down), so from the
        # second event on it is the prefix minimum.  Only a fresh candidate
        # can beat it and only its own return can tie it.  Selection starts
        # once k distinct candidates have been seen.
        selecting = np.cumsum(~second[:, :-1], axis=1, dtype=np.int32) >= k
        leader = np.minimum.accumulate(x[:, :-1], axis=1)
        x_next = x[:, 1:]
        accept = (x_next < leader) & (block[:, 4 * n + 1:6 * n] < 1.0 - p)
        accept |= (x_next == leader) & second[:, 1:]
        accept &= selecting
        hired = _hired_keys(x_next, accept)
        best = np.minimum(leader[:, -1], x[:, -1])
    return int(np.count_nonzero(hired == best))


def _top3_chunk_successes(block: np.ndarray, n: int, k: int) -> int:
    x, _ = _event_keys(block, n, 0.0)
    hired = _classical_hires(x, k)
    kth = min(2, n - 1)  # below n = 3 every hire is a top-3 hire
    third = np.partition(block[:, :n], kth, axis=1)[:, kth]
    return int(np.count_nonzero(hired <= third))
