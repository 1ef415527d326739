import math
import re

import numpy as np
import pytest

from kdcollide import kdq
from kdcollide.model import partition_function
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


def scalar_draws(rng, resonant):
    """One draw per entry of ``resonant`` with one `rng.uniform(low, high)` call per parameter, in draw order."""
    draws = []
    for is_resonant in resonant:
        omega_a = rng.uniform(0.3, 2.0)
        delta = 0.0 if is_resonant else rng.uniform(-20.0, 20.0)
        g, tau, beta = rng.uniform(0.3, 2.0), rng.uniform(0.02, 1.5), rng.uniform(0.05, 4.0)
        lam_max = 1.0 / partition_function(beta, omega_a)
        lam = rng.uniform(-lam_max, lam_max)
        rho11 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, math.sqrt(rho11 * (1.0 - rho11)))
        draws.append((omega_a + delta, omega_a, g, tau, beta, lam, rho11, r, rng.uniform(0.0, 2.0 * math.pi)))
    return draws


def test_batched_draws_match_scalar_calls():
    # One rng.uniform call per batch gives the doubles, and so the draws and
    # the rng state, of one scalar call per parameter.
    resonant = np.random.default_rng(3).uniform(size=300) < 0.5
    batched, scalar = np.random.default_rng(20240601), np.random.default_rng(20240601)
    cfgs, states = random_parameters(batched, resonant)
    columns = [cfgs.omega_s, cfgs.omega_a, cfgs.g, cfgs.tau, cfgs.beta, cfgs.lam, states.rho11, states.r, states.phi_c]
    assert list(zip(*(c.tolist() for c in columns))) == scalar_draws(scalar, resonant)
    assert batched.uniform() == scalar.uniform()
