"""Shared model fixtures (session-scoped: chains are immutable)."""

import numpy as np
import pytest

import beckner_lab as bl


@pytest.fixture(scope="session")
def rt3():
    return bl.build_random_transposition(3)


@pytest.fixture(scope="session")
def rt4():
    return bl.build_random_transposition(4)


@pytest.fixture(scope="session")
def zr33():
    return bl.build_zero_range(3, 3, bl.linear_rate_table(3, 3))


@pytest.fixture(scope="session")
def bl52():
    return bl.build_bernoulli_laplace(5, 2, 1.0)


@pytest.fixture(scope="session")
def bd8():
    return bl.build_birth_death(*bl.mm_infinity_rates(8))


@pytest.fixture(scope="session")
def bd12():
    return bl.build_birth_death(*bl.mm_infinity_rates(12))


@pytest.fixture(scope="session")
def two_state():
    """Rates a=1.5 (0->1), b=0.5 (1->0); pi = (b, a)/(a+b)."""
    a, b = 1.5, 0.5
    return bl.FiniteChain(
        keys=[0, 1], move_names=["swap"],
        targets=np.array([[1, 0]]), inverse=np.array([0]),
        rates=np.array([[a], [b]]), pi=np.array([b, a]) / (a + b),
        meta={"model": "birth_death", "a": [a, 0.0], "b": [0.0, b],
              "n_max": 1})


def model_specs():
    return {
        "zero_range": bl.ModelSpec(
            "zero_range", {"L": 3, "N": 3, "c_x": bl.linear_rate_table(3, 3)}),
        "bernoulli_laplace": bl.ModelSpec(
            "bernoulli_laplace", {"L": 5, "N": 2, "lambda_x": 1.0}),
        "random_transposition_3": bl.ModelSpec(
            "random_transposition", {"n": 3}),
        "random_transposition_4": bl.ModelSpec(
            "random_transposition", {"n": 4}),
        "birth_death": bl.ModelSpec(
            "birth_death", dict(zip(("a", "b"), bl.mm_infinity_rates(8)))),
    }


@pytest.fixture(scope="session")
def specs():
    return model_specs()


@pytest.fixture(scope="session")
def chains(specs):
    return {name: bl.build_model(s) for name, s in specs.items()}


@pytest.fixture(scope="session")
def structures(specs, chains):
    return {name: bl.r_function(chains[name]) for name in specs}
