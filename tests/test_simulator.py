from itertools import permutations

import numpy as np
import pytest

from secretarylab import (
    ArrivalEvent,
    ArrivalSequence,
    ProblemSpec,
    build_tables,
    estimate,
    generate_sequence,
    run_policy_reappearance,
    run_policy_top3,
    top3_table,
    trial_stream,
)
from secretarylab import simulator
from secretarylab.errors import (
    DomainError,
    IndexOutOfRange,
    InvalidCombination,
    InvalidSpec,
    MixedSequence,
)

# frozen 2e6-trial physical reference for (n=100, p=0.5, k=57); the exact
# tables sit far above it (0.6875) because they consume seen non-leaders'
# remaining arrivals up front
PHYSICAL_REF_100_05_57 = 0.4583


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_generate_no_reappearance():
    seq = generate_sequence(5, 0.0, rng(1))
    assert len(seq.events) == 5
    assert all(ev.appearance == 1 for ev in seq.events)
    assert sorted(ev.rank for ev in seq.events) == [1, 2, 3, 4, 5]


def test_generate_guaranteed_reappearance():
    seq = generate_sequence(5, 1.0, rng(2))
    assert len(seq.events) == 10
    first_pos = {}
    for t, ev in enumerate(seq.events):
        if ev.appearance == 1:
            first_pos[ev.candidate] = t
        else:
            assert first_pos[ev.candidate] < t
    counts = {}
    for ev in seq.events:
        counts[ev.candidate] = counts.get(ev.candidate, 0) + 1
    assert set(counts.values()) == {2}


def test_generate_mean_event_count():
    g = rng(3)
    m = 2000
    total = sum(len(generate_sequence(3, 0.5, g).events) for _ in range(m))
    mean = total / m
    sigma = np.sqrt(3 * 0.25 / m)  # binomial(3, 1/2) second appearances
    assert abs(mean - 4.5) <= 3 * sigma


def test_sequence_validation():
    with pytest.raises(InvalidSpec):
        ArrivalSequence(events=(ArrivalEvent(1, 1, 2),), n=1)  # appearance 2 first
    with pytest.raises(InvalidSpec):
        ArrivalSequence(
            events=(ArrivalEvent(1, 1, 1), ArrivalEvent(2, 1, 1)), n=2
        )  # ranks not a permutation
    ArrivalSequence.from_ranks((2, 1, 3))


def test_policy_top3_rejects_mixed_sequences():
    seq = generate_sequence(5, 1.0, rng(4))
    with pytest.raises(MixedSequence):
        run_policy_top3(seq, 1)


def test_policy_top3_threshold_zero_takes_first():
    for ranks in permutations((1, 2, 3, 4)):
        out = run_policy_top3(ArrivalSequence.from_ranks(ranks), 0)
        assert out.chosen_rank == ranks[0]
        assert out.stopped_at == 0


def test_policy_top3_exhaustive_matches_table():
    n, k = 5, 2
    hits = 0
    for ranks in permutations(range(1, n + 1)):
        out = run_policy_top3(ArrivalSequence.from_ranks(ranks), k)
        hits += out.chosen_rank is not None and out.chosen_rank <= 3
    import math
    assert hits / math.factorial(n) == pytest.approx(top3_table(n).prob[k], abs=1e-12)


def test_policy_reappearance_range_checks():
    seq = generate_sequence(5, 0.5, rng(5))
    with pytest.raises(IndexOutOfRange):
        run_policy_reappearance(seq, 0, 0.5, rng(6))
    with pytest.raises(IndexOutOfRange):
        run_policy_reappearance(seq, 6, 0.5, rng(6))


def test_policy_reappearance_p0_equals_classical_rule():
    g = rng(7)
    for _ in range(200):
        n = int(g.integers(2, 9))
        seq = generate_sequence(n, 0.0, g)
        k = int(g.integers(1, n + 1))
        out = run_policy_reappearance(seq, k, 0.0, g)
        # classical rule: accept first arrival after the k-th that beats all before
        best = n + 1
        expected = None
        for t, ev in enumerate(seq.events):
            if t >= k and ev.rank < best:
                expected = (ev.rank, t)
                break
            best = min(best, ev.rank)
        assert (out.chosen_rank, out.stopped_at) == (expected or (None, None))


def test_policy_reappearance_sanity():
    # never accepts during observation, never accepts worse than the leader
    g = rng(8)
    for _ in range(300):
        n = int(g.integers(2, 8))
        p = float(g.random())
        seq = generate_sequence(n, p, g)
        k = int(g.integers(1, n + 1))
        out = run_policy_reappearance(seq, k, p, g)
        if out.stopped_at is None:
            continue
        prefix = seq.events[: out.stopped_at]
        distinct = len({ev.candidate for ev in prefix})
        assert distinct >= k
        if prefix:
            assert out.chosen_rank <= min(ev.rank for ev in prefix)


@pytest.mark.parametrize(
    "n,p,k,objective",
    [
        (4, 0.25, 2, "best"),
        (6, 0.3, 3, "best"),
        (5, 1.0, 2, "best"),
        (5, 0.0, 2, "best"),
        (6, 0.0, 2, "top3"),
        (9, 0.0, 0, "top3"),
        (3, 0.0, 2, "top3"),
        (1, 0.5, 1, "best"),
        (200, 0.0, 74, "best"),
        (200, 0.5, 110, "best"),
        (200, 1.0, 94, "best"),
    ],
)
def test_estimate_matches_per_trial_composition(n, p, k, objective):
    trials, seed = (100, 98) if n >= 200 else (500, 97)
    report = estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)
    successes = 0
    for i in range(trials):
        g = trial_stream(seed, i, n)
        seq = generate_sequence(n, p, g)
        if objective == "top3":
            out = run_policy_top3(seq, k)
            successes += out.chosen_rank is not None and out.chosen_rank <= 3
        else:
            out = run_policy_reappearance(seq, k, p, g)
            successes += out.chosen_rank == 1
    assert report.successes == successes


# successes reported by the kernel that ranked candidates and scanned events
# one position at a time, kept as literals; (n, p, k, trials, seed, objective,
# successes).  Chunks then held max(256, 2**23 // (6 n)) trials, so the rows
# with 400000 trials at n = 4, 15000 at n = 100, 1500 at n = 1000 and 300 at
# n = 10000 span two chunks.
PINNED_COUNTS = [
    (4, 0.25, 1, 400_000, 3, "best", 180897),
    (4, 0.5, 4, 5_000, 4, "best", 1266),
    (4, 1.0, 4, 5_000, 18, "best", 3220),
    (4, 0.0, 0, 5_000, 5, "top3", 3736),
    (4, 0.0, 3, 5_000, 6, "top3", 1220),
    (7, 1.0, 1, 5_000, 7, "best", 3589),
    (7, 1.0, 7, 5_000, 19, "best", 2651),
    (7, 0.0, 7, 5_000, 8, "best", 0),
    (100, 0.5, 1, 15_000, 9, "best", 2067),
    (100, 0.25, 100, 3_000, 10, "best", 20),
    (100, 0.0, 99, 3_000, 11, "top3", 40),
    (1000, 1.0, 1000, 1_500, 12, "best", 67),
    (1000, 0.5, 430, 1_500, 13, "best", 712),
    (1000, 0.0, 0, 1_500, 14, "top3", 3),
    (1000, 0.0, 260, 1_500, 15, "top3", 890),
    (10_000, 0.5, 1, 300, 16, "best", 5),
    (10_000, 1.0, 4700, 300, 20, "best", 235),
    (10_000, 0.0, 2600, 300, 17, "top3", 163),
    (10_000, 0.0, 9_999, 300, 2**128 - 1, "top3", 0),
    # recorded before the p in {0, 1} kernel drew only the ranges it reads;
    # n mod 4 in {1, 2, 3} puts the range starts off the Philox step grid, and
    # 1500 trials span two chunks of 2**23 // (6 n) trials
    (1001, 0.0, 368, 1_500, 30, "best", 523),
    (1001, 0.0, 260, 1_500, 31, "top3", 906),
    (1001, 1.0, 470, 1_500, 32, "best", 1125),
    (1002, 0.0, 368, 1_500, 33, "best", 574),
    (1002, 0.0, 260, 1_500, 34, "top3", 906),
    (1002, 1.0, 470, 1_500, 35, "best", 1179),
    (1003, 0.0, 368, 1_500, 36, "best", 548),
    (1003, 0.0, 260, 1_500, 37, "top3", 910),
    (1003, 1.0, 470, 1_500, 38, "best", 1172),
]


@pytest.mark.parametrize("n,p,k,trials,seed,objective,successes", PINNED_COUNTS)
def test_estimate_matches_pinned_counts(n, p, k, trials, seed, objective, successes):
    report = estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)
    assert report.successes == successes


@pytest.mark.parametrize("p,k,objective", [
    (0.0, 11, "best"),
    (0.4, 14, "best"),
    (1.0, 12, "best"),
    (0.0, 9, "top3"),
])
def test_report_independent_of_chunking(monkeypatch, p, k, objective):
    n, trials, seed = 30, 301, 5
    reports = [estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)]
    width = simulator._block_width(n)
    for per_chunk in (1, 3):
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", per_chunk * width)
        reports.append(estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


RANGED_CASES = [
    (n, p, objective)
    for n in (1, 2, 3, 4, 5, 6, 7, 30)
    for p, objective in ((0.0, "best"), (1.0, "best"), (0.0, "top3"))
]


@pytest.mark.parametrize("n,p,objective", RANGED_CASES)
def test_ranged_draw_matches_contiguous_draw(monkeypatch, n, p, objective):
    # below the cutoff the contiguous path runs; forcing the cutoff down makes
    # the same chunk kernels read the ranges drawn trial by trial instead
    trials, seed = 301, 23
    k = n // 3 if objective == "top3" else max(1, n // 2)
    contiguous = estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)
    monkeypatch.setattr(simulator, "_RANGED_MIN_N", 1)
    draw = simulator._draw_read_ranges
    chunks = []

    def recording(gen, first, rows, n):
        chunks.append(rows)
        return draw(gen, first, rows, n)

    monkeypatch.setattr(simulator, "_draw_read_ranges", recording)
    width = simulator._block_width(n)
    for budget, per_chunk in ((width, 1), (3 * width, 3), (simulator._CHUNK_DOUBLES, trials)):
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", budget)
        chunks.clear()
        ranged = estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)
        assert ranged == contiguous
        assert sum(chunks) == trials
        assert max(chunks) == per_chunk


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 30, 1001])
def test_ranged_draw_is_bit_identical_to_trial_streams(n):
    seed, width = 29, simulator._block_width(n)
    gen = np.random.Generator(np.random.Philox(key=seed))
    # whatever the generator drew before, each chunk starts at its own trials
    gen.random(7)
    for first, rows in ((0, 2), (5, 3), (1, 1)):
        draws = simulator._draw_read_ranges(gen, first, rows, n)
        assert draws.flags is None and draws.coins is None
        for row in range(rows):
            block = trial_stream(seed, first + row, n).random(width)
            assert draws.rank_keys[row].tobytes() == block[:n].tobytes()
            assert draws.shuffle_keys[row].tobytes() == block[2 * n:4 * n].tobytes()


@pytest.mark.parametrize("n", [4, simulator._RANGED_MIN_N - 1, simulator._RANGED_MIN_N])
@pytest.mark.parametrize("p,objective", [(0.0, "best"), (1.0, "best"), (0.0, "top3")])
def test_small_n_draws_one_block_per_chunk(monkeypatch, n, p, objective):
    # a per-trial draw costs about 3 us in calls (20 us under tracemalloc);
    # below the cutoff every chunk must come from one Generator.random call
    calls = []

    class CountingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            calls.append(args)
            return super().random(*args, **kwargs)

    monkeypatch.setattr(simulator.np.random, "Generator", CountingGenerator)
    width = simulator._block_width(n)
    monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 4 * width)  # 4 whole blocks
    estimate(n=n, p=p, k=1, trials=10, seed=3, objective=objective)
    if n < simulator._RANGED_MIN_N:
        assert calls == [((4, width),), ((4, width),), ((2, width),)]
    else:
        assert len(calls) == 2 * 10  # rank keys and shuffle keys, per trial


def test_estimate_refuses_oversized_trial_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew uniforms for an oversized trial")

    monkeypatch.setattr(simulator.np.random, "Philox", refuse)
    with pytest.raises(DomainError, match="n=1000000000"):
        estimate(n=10**9, p=0.5, k=1, trials=1, seed=0)


def test_estimate_reproducible():
    a = estimate(n=30, p=0.4, k=12, trials=2000, seed=11)
    b = estimate(n=30, p=0.4, k=12, trials=2000, seed=11)
    assert a == b


def test_estimate_single_trial():
    r = estimate(n=5, p=0.0, k=2, trials=1, seed=0)
    assert r.successes in (0, 1)
    assert r.estimate in (0.0, 1.0)
    assert r.std_error == 0.0


def test_estimate_argument_errors():
    with pytest.raises(InvalidCombination):
        estimate(n=10, p=0.5, k=3, trials=10, seed=0, objective="top3")
    with pytest.raises(InvalidCombination):
        estimate(n=10, p=0.0, k=3, trials=10, seed=0, objective="worst")
    with pytest.raises(DomainError):
        estimate(n=10, p=0.0, k=3, trials=0, seed=0)
    with pytest.raises(IndexOutOfRange):
        estimate(n=10, p=0.0, k=10, trials=10, seed=0, objective="top3")
    with pytest.raises(IndexOutOfRange):
        estimate(n=10, p=0.0, k=0, trials=10, seed=0, objective="best")


def test_seed_independence_of_mean():
    value = float(build_tables(ProblemSpec(n=100, p=0.0)).f[37])
    trials = 10**4
    seeds = range(100, 120)
    estimates = [estimate(n=100, p=0.0, k=37, trials=trials, seed=s).estimate for s in seeds]
    mean = float(np.mean(estimates))
    se_mean = np.sqrt(value * (1 - value) / (trials * len(estimates)))
    assert abs(mean - value) <= 4 * se_mean


def test_classical_frequency_near_table_value():
    table = build_tables(ProblemSpec(n=100, p=0.0))
    r = estimate(n=100, p=0.0, k=37, trials=10**5, seed=42)
    assert abs(r.estimate - table.f[37]) <= 3 * r.std_error


def test_top3_threshold_zero_frequency():
    # accepting the very first arrival hits the top three 3/n of the time
    r = estimate(n=10, p=0.0, k=0, trials=10**5, seed=21, objective="top3")
    sigma = np.sqrt(0.3 * 0.7 / 10**5)
    assert abs(r.estimate - 0.3) <= 3 * sigma


def test_guaranteed_return_frequency_near_table_value():
    # at p=1 the tables agree exactly with the physical process
    table = build_tables(ProblemSpec(n=100, p=1.0))
    r = estimate(n=100, p=1.0, k=48, trials=10**5, seed=43)
    assert abs(r.estimate - table.f[48]) <= 3 * r.std_error


def test_half_return_frequency_matches_physical_reference():
    r = estimate(n=100, p=0.5, k=57, trials=10**5, seed=44)
    assert abs(r.estimate - PHYSICAL_REF_100_05_57) <= 3 * r.std_error
