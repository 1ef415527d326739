import re

import numpy as np
import pytest

from kdcollide import kdq
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
