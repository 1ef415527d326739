import re

import numpy as np
import pytest

from conftest import assert_same_bits
from kdcollide import kdq, model, selftest
from kdcollide.selftest import random_parameters, run_selftest

# (name, bound) of the seven deviation checks, in print order.
CHECKS = [
    ("caption lambda_max values", "5e-04"),
    ("KDQ normalization (1000 draws)", "1e-12"),
    ("resonant closed forms (200 draws)", "1e-10"),
    ("detuned closed forms (200 draws)", "1e-10"),
    ("marginalization", "1e-12"),
    ("TPM limit", "1e-12"),
    ("first law per collision", "1e-10"),
]
DEVIATION = re.compile(r"selftest (PASS|FAIL)  (.+): max deviation (\S+) \(bound (\S+)\)")
BCH = re.compile(r"selftest (PASS|FAIL)  BCH local error ratio in \[6\.5, 9\.5\]: got \[\S+, \S+\]")


@pytest.mark.parametrize(
    "scale, failing",
    [
        (0.0, set()),
        # Every quasiprobability 1e-9 too large: the totals, the resonant
        # entries and the TPM witnesses move by ~1e-9.  The trace averages
        # bypass the kernel, and the marginals and the first law scale with it.
        (1e-9, {"KDQ normalization (1000 draws)", "resonant closed forms (200 draws)", "TPM limit"}),
    ],
)
def test_printed_lines_and_failure(monkeypatch, capsys, scale, failing):
    kernel = kdq._kernel

    def perturbed(*args, **kwargs):
        matrix, levels = kernel(*args, **kwargs)
        return matrix * (1.0 + scale), levels

    monkeypatch.setattr(kdq, "_kernel", perturbed)
    code = run_selftest()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    checks = [DEVIATION.fullmatch(line).groups() for line in lines[:7]]
    assert [(name, bound) for _, name, _, bound in checks] == CHECKS
    assert {name for status, name, _, _ in checks if status == "FAIL"} == failing
    for status, _, worst, bound in checks:
        assert (status == "PASS") == (float(worst) <= float(bound))
    assert BCH.fullmatch(lines[7]).group(1) == "PASS"
    if failing:
        assert code == 2 and lines[8] == f"selftest: {len(failing)} check(s) FAILED"
    else:
        assert code == 0 and lines[8] == "selftest: all checks passed"


def test_random_parameters_are_admissible_and_seeded():
    resonant = np.random.default_rng(3).uniform(size=300) < 0.5
    cfgs, states = random_parameters(np.random.default_rng(20240601), resonant)
    assert len(cfgs) == len(states) == len(resonant)
    assert cfgs.errors() == {} and states.errors() == {}
    assert (cfgs.omega_s == cfgs.omega_a)[resonant].all()
    assert (cfgs.omega_s != cfgs.omega_a)[~resonant].all()
    assert (np.abs(cfgs.lam) <= cfgs.lambda_max).all()
    assert (states.r <= np.sqrt(states.rho11 * (1.0 - states.rho11))).all()
    # One seed, the same draws.
    cfgs_again, states_again = random_parameters(np.random.default_rng(20240601), resonant)
    assert np.array_equal(cfgs.values, cfgs_again.values) and np.array_equal(cfgs.mode, cfgs_again.mode)
    assert np.array_equal(states.values, states_again.values)


# The resonance of each check's draws, in the order in which the checks draw.
CHECK_DRAWS = [
    np.arange(1000) % 2 == 0, np.ones(200, bool), np.zeros(200, bool), np.zeros(50, bool), np.zeros(50, bool),
    np.zeros(25, bool),
]


def test_one_draw_equals_the_checks_draws_in_turn():
    cfgs, states = selftest._draw(np.random.default_rng(20240601), selftest._DRAWS.values())
    rng = np.random.default_rng(20240601)
    parts = [random_parameters(rng, resonant) for resonant in CHECK_DRAWS]
    for ours, theirs in ((cfgs, [c for c, _ in parts]), (states, [s for _, s in parts])):
        assert_same_bits(ours.values, np.concatenate([part.values for part in theirs], axis=1))
    assert cfgs.mode.tolist() == np.concatenate([c.mode for c, _ in parts]).tolist()
    assert_same_bits(cfgs.z_a, np.concatenate([c.z_a for c, _ in parts]))


def test_selftest_takes_each_math_value_once_and_stacks_once(monkeypatch, capsys):
    # Per drawn config: Z_A, then hypot and exp in its operator stack.  The
    # one-config builds of the BCH check are not stacks of parameter arrays.
    elements, stacks = [], []
    elementwise, stack = model._elementwise, model._stack

    def counted_elementwise(f, *args):
        elements.append(len(args[0]))
        return elementwise(f, *args)

    def counted_stack(cfgs):
        stacks.extend([len(cfgs)] if isinstance(cfgs, model._ConfigArrays) else [])
        return stack(cfgs)

    monkeypatch.setattr(model, "_elementwise", counted_elementwise)
    monkeypatch.setattr(model, "_stack", counted_stack)
    assert run_selftest() == 0
    capsys.readouterr()
    assert sum(elements) <= 3 * sum(map(len, CHECK_DRAWS))
    assert len(stacks) <= 3
