"""Every public entry point refuses each malformed input quantity with the
error the README's contract names, before it draws or allocates anything."""

import math

import numpy as np
import pytest

from secretarylab import (
    ArrivalEvent,
    ArrivalSequence,
    ProblemSpec,
    build_tables,
    estimate,
    exact_reappearance,
    exact_top3,
    generate_sequence,
    integrate_limit_system,
    optimal_policy,
    optimal_policy_top3,
    optimal_x_reappearance,
    run_policy_reappearance,
    run_policy_top3,
    success_probability,
    top3_limit,
    top3_limit_derivative,
    top3_table,
    trial_stream,
)
from secretarylab.errors import DomainError, IndexOutOfRange, InvalidSpec

TABLES = build_tables(ProblemSpec(n=10, p=0.5))
SEQ = generate_sequence(5, 0.5, np.random.default_rng(0))
SINGLE = ArrivalSequence.from_ranks((2, 1, 3, 4, 5))
RNG = np.random.default_rng(1)
BIG = np.int64(2**62)  # 67 * BIG, or BIG times a block width, wraps int64

# The integer quantities: (error for a value that is not an integer, a numpy
# integer past int64-safe arithmetic, the error it raises).
N = (InvalidSpec, -BIG, InvalidSpec)  # any n >= 1 is a valid ProblemSpec
N_BUILT = (InvalidSpec, BIG, DomainError)  # past the solver's n limit
K = (DomainError, BIG, IndexOutOfRange)
COUNT = (DomainError, -BIG, DomainError)  # trials, seed, index

ENTRY_POINTS = [
    ("ProblemSpec", ProblemSpec, dict(n=10, p=0.5), {"n": N, "p": InvalidSpec}),
    ("build_tables", lambda n, p: build_tables(ProblemSpec(n, p)), dict(n=10, p=0.5),
     {"n": N_BUILT, "p": InvalidSpec}),
    ("optimal_policy", lambda n, p: optimal_policy(ProblemSpec(n, p)), dict(n=10, p=0.5),
     {"n": N_BUILT, "p": InvalidSpec}),
    ("success_probability", lambda k: success_probability(TABLES, k), dict(k=3), {"k": K}),
    ("ArrivalSequence", lambda n: ArrivalSequence(events=(ArrivalEvent(1, 1, 1),), n=n),
     dict(n=1), {"n": N}),
    ("run_policy_reappearance", lambda k, p: run_policy_reappearance(SEQ, k, p, RNG),
     dict(k=2, p=0.5), {"k": K, "p": InvalidSpec}),
    ("generate_sequence", lambda n, p: generate_sequence(n, p, RNG), dict(n=5, p=0.5),
     {"n": N, "p": InvalidSpec}),
    ("estimate", estimate, dict(n=10, p=0.5, k=3, trials=10, seed=0),
     {"n": N_BUILT, "p": InvalidSpec, "k": K, "trials": COUNT, "seed": COUNT}),
    ("estimate-top3", lambda **kw: estimate(**kw, objective="top3"),
     dict(n=10, p=0.0, k=0, trials=10, seed=0), {"n": N_BUILT, "k": K}),
    ("trial_stream", trial_stream, dict(seed=0, index=0, n=10, p=0.5),
     {"seed": COUNT, "index": COUNT, "n": N, "p": InvalidSpec}),
    ("exact_reappearance", exact_reappearance, dict(n=3, p=0.5, k=1),
     {"n": N_BUILT, "p": InvalidSpec, "k": K}),
    ("run_policy_top3", lambda k: run_policy_top3(SINGLE, k), dict(k=1), {"k": K}),
    ("top3_table", top3_table, dict(n=10), {"n": N_BUILT}),
    ("optimal_policy_top3", optimal_policy_top3, dict(n=10), {"n": N_BUILT}),
    ("exact_top3", exact_top3, dict(n=5, k=1), {"n": N_BUILT, "k": K}),
    ("integrate_limit_system", integrate_limit_system, dict(p=0.5, step=1e-3, epsilon=1e-3),
     {"p": InvalidSpec, "step": DomainError, "epsilon": DomainError}),
    ("top3_limit", top3_limit, dict(x=0.5), {"x": DomainError}),
    ("top3_limit_derivative", top3_limit_derivative, dict(x=0.5), {"x": DomainError}),
    ("optimal_x_reappearance", optimal_x_reappearance, dict(p=0.5), {"p": InvalidSpec}),
]


def _cases():
    for entry, call, valid, quantities in ENTRY_POINTS:
        for name, spec in quantities.items():
            if isinstance(spec, tuple):  # an integer quantity
                error, big, big_error = spec
                bad = [("bool", True, error), ("float", 3.0, error), ("str", "3", error),
                       ("nan", math.nan, error), ("int64", big, big_error)]
            else:  # a real quantity; -2.0, an integral float, lies outside every real domain
                bad = [("bool", True, spec), ("float", -2.0, spec), ("str", "0.5", spec),
                       ("nan", math.nan, spec)]
            for label, value, expected in bad:
                yield pytest.param(call, {**valid, name: value}, expected,
                                   id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("call,arguments,error", list(_cases()))
def test_entry_point_refuses_malformed_quantity(monkeypatch, call, arguments, error):
    def refuse(*args, **kwargs):
        raise AssertionError("drew or allocated before refusing")

    monkeypatch.setattr(np.random, "PCG64DXSM", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(error):
        call(**arguments)


def test_refused_draw_trips_on_valid_arguments(monkeypatch):
    # the refusal tests here and in test_simulator.py patch the bit generator;
    # a valid call must reach it, or they would pass without guarding anything
    def refuse(*args, **kwargs):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(np.random, "PCG64DXSM", refuse)
    drawing = [(call, valid) for entry, call, valid, _ in ENTRY_POINTS
               if entry in ("estimate", "estimate-top3", "trial_stream")]
    assert len(drawing) == 3
    for call, valid in drawing:
        with pytest.raises(AssertionError, match="drew uniforms"):
            call(**valid)
