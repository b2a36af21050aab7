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
_CHUNK_DOUBLES = 1 << 23  # ~64 MiB of uniforms per vectorised chunk


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

    width = _block_width(n)
    chunk = max(256, _CHUNK_DOUBLES // width)
    gen = np.random.Generator(np.random.Philox(key=seed))
    successes = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        block = gen.random((t, width))
        if objective == "top3":
            successes += _top3_chunk_successes(block, n, k)
        else:
            successes += _best_chunk_successes(block, n, p, k)
        done += t

    est = successes / trials
    se = float(np.sqrt(est * (1.0 - est) / trials))
    return SimulationReport(
        trials=trials, successes=successes, estimate=est, std_error=se, seed=seed
    )


def _event_arrays(block: np.ndarray, n: int, p: float):
    """Vectorised event construction mirroring generate_sequence.

    Returns arrival ranks, second-appearance flags (both (T, 2n), valid up
    to column counts[i]), and the per-trial event counts.
    """
    t_cnt = block.shape[0]
    rank_keys = block[:, :n]
    order = np.argsort(rank_keys, axis=1)
    ranks = np.empty((t_cnt, n), dtype=np.int64)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(1, n + 1), (t_cnt, n)), axis=1
    )
    doubles = block[:, n:2 * n] < p

    keys = block[:, 2 * n:4 * n].reshape(t_cnt, n, 2).copy()
    keys[:, :, 1][~doubles] = np.inf  # missing second tokens sort to the tail
    second = np.zeros((t_cnt, n, 2), dtype=bool)
    second[:, :, 0] = doubles & (keys[:, :, 0] > keys[:, :, 1])
    second[:, :, 1] = doubles & (keys[:, :, 1] >= keys[:, :, 0])

    flat_keys = keys.reshape(t_cnt, 2 * n)
    arrival = np.argsort(flat_keys, axis=1)
    tok_rank = np.repeat(ranks, 2, axis=1)
    ev_rank = np.take_along_axis(tok_rank, arrival, axis=1)
    ev_second = np.take_along_axis(second.reshape(t_cnt, 2 * n), arrival, axis=1)
    counts = n + doubles.sum(axis=1)
    return ev_rank, ev_second, counts


def _best_chunk_successes(block: np.ndarray, n: int, p: float, k: int) -> int:
    ev_rank, ev_second, counts = _event_arrays(block, n, p)
    coins = block[:, 4 * n:6 * n]
    t_cnt = block.shape[0]

    distinct = np.zeros(t_cnt, dtype=np.int64)
    lead_rank = np.full(t_cnt, n + 1, dtype=np.int64)
    accepted = np.zeros(t_cnt, dtype=bool)
    chosen = np.zeros(t_cnt, dtype=np.int64)
    for t in range(2 * n):
        active = ~accepted & (t < counts)
        if not active.any():
            break
        r = ev_rank[:, t]
        snd = ev_second[:, t]

        observing = active & (distinct < k)
        improving = observing & (r < lead_rank)
        lead_rank = np.where(improving, r, lead_rank)
        distinct = distinct + (observing & ~snd)

        selecting = active & ~observing
        lead_return = selecting & snd & (r == lead_rank)
        fresh_leader = selecting & (r < lead_rank) & ~snd
        better_return = selecting & (r < lead_rank) & snd
        take = fresh_leader & (coins[:, t] < 1.0 - p)
        demur = fresh_leader & ~take

        accept_now = lead_return | take | better_return
        chosen = np.where(accept_now, r, chosen)
        accepted |= accept_now
        lead_rank = np.where(demur, r, lead_rank)
    return int(np.count_nonzero(accepted & (chosen == 1)))


def _top3_chunk_successes(block: np.ndarray, n: int, k: int) -> int:
    ev_rank, _, _ = _event_arrays(block, n, 0.0)
    ev_rank = ev_rank[:, :n]  # p = 0: exactly n events per trial
    running_min = np.minimum.accumulate(ev_rank, axis=1)
    leading = np.empty_like(ev_rank, dtype=bool)
    leading[:, 0] = True
    leading[:, 1:] = ev_rank[:, 1:] < running_min[:, :-1]
    if k > 0:
        leading[:, :k] = False
    any_accept = leading.any(axis=1)
    first = np.argmax(leading, axis=1)
    chosen = np.take_along_axis(ev_rank, first[:, None], axis=1)[:, 0]
    return int(np.count_nonzero(any_accept & (chosen <= 3)))
