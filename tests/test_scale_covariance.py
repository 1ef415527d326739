"""Scale covariance of every output over the admissible parameter space.

The model has two exact covariances:

- hbar -> c*hbar with beta -> beta/c leaves every propagator, state and
  quasiprobability unchanged and scales every energy value by c;
- (omega_s, omega_a, g) -> s*(omega_s, omega_a, g) with tau -> tau/s and
  beta -> beta/s, and lambda_tilde -> lambda_tilde*sqrt(s) in weak mode
  (which keeps lambda_eff = lambda_tilde*sqrt(tau)), does the same with s.

So means scale by the factor, variances by its square, and witnesses and
states are unchanged.  Two rules differ in weak mode, under the second
scaling only:

- The coherent-work weights carry the prefactor lambda_tilde, which the
  scaling multiplies by sqrt(s).  The ``w`` mean scales by s*sqrt(s) and its
  second moment by s^2*sqrt(s), so its variance, second moment less the
  squared mean, has no single factor: every variance is compared as the
  second moment var + mean^2.
- The collision propagator (`evolve`, `find_steady_state`) couples by
  hbar*g/sqrt(tau), while the measurement unitary of the quasiprobabilities
  couples by hbar*g.  The grid outputs read only the measurement unitary and
  take g -> s*g; the collision chains and steady states take g -> sqrt(s)*g,
  which keeps their propagator.

A steady state is compared within the larger of the bound and eps/sigma_2,
sigma_2 the second-smallest singular value of S - I: `find_steady_state`
forms S in floats, whose entries near those of I carry absolute rounding
errors of order eps, so a weakly coupled collision (small sigma_2) fixes
its state only to about eps/sigma_2, while the exact steady states of the
two scalings agree to rounding.
"""

import math
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import admissible_cases
from kdcollide import cli, kdq
from kdcollide.collision import _RECORD_FIELDS, _channel, evolve, find_steady_state
from kdcollide.model import ModelConfig, SystemStateParams, build_system_state

# The largest deviation from a covariance: relative to the scaled energy unit hbar*max(|omega_s|, |omega_a|, g)
# to the power of the quantity's energy dimension, so absolute for witnesses and states.
_BOUND = 1e-12

# Scale factors log-uniform over [1e-30, 1e30].
_scales = st.floats(-30.0, 30.0).map(lambda exponent: 10.0**exponent)

# The mean output of each KDQ quantity, for the second moment of its variance.
_MEAN_OF = {q: name for name, q in cli._MEANS.items()}


def _by_hbar(cfg, c, collision):
    return replace(cfg, hbar=c * cfg.hbar, beta=cfg.beta / c), c, 1.0


def _by_frequency(cfg, s, collision):
    coupling = math.sqrt(s) if collision and cfg.is_weak else s
    scaled = replace(
        cfg, omega_s=s * cfg.omega_s, omega_a=s * cfg.omega_a, g=coupling * cfg.g, tau=cfg.tau / s,
        beta=cfg.beta / s, lam_tilde=math.sqrt(s) * cfg.lam_tilde,
    )
    return scaled, s, math.sqrt(s) if cfg.is_weak else 1.0


def _scaled(cfg, scaling, factor, collision=False):
    """(scaled config, energy factor, factor of the coherent-work weights); skips a config the model rejects."""
    try:
        return scaling(cfg, factor, collision)
    except ValueError:  # a level energy below the smallest normal float
        assume(False)


def _unit(cfg) -> float:
    return cfg.hbar * max(abs(cfg.omega_s), abs(cfg.omega_a), cfg.g)


def _assert_scaled(original, scaled, factor, unit):
    """``scaled`` is ``factor`` times ``original`` within `_BOUND` times ``factor`` * ``unit``; NaN where it is."""
    original, scaled = np.asarray(original, dtype=complex), np.asarray(scaled, dtype=complex)
    assert np.array_equal(np.isnan(original), np.isnan(scaled))
    deviation = np.abs(np.nan_to_num(scaled - factor * original))
    assert np.all(deviation <= _BOUND * factor * unit), (original, scaled, factor)


def _steady_state_accuracy(cfg) -> float:
    """eps/sigma_2 of S - I: how far rounding the entries of a float S can move its fixed point."""
    ops = cfg.operators
    s_minus_i = _channel(ops.u, ops.rho_a) - np.eye(4)
    return sys.float_info.epsilon / np.linalg.svd(s_minus_i, compute_uv=False)[2]


def _columns(cfg, state, outputs) -> dict[str, np.ndarray]:
    """Each output's columns of the one-row grid of ``cfg`` and ``state``."""
    row = cli._grid(cfg, state, []).evaluate(outputs)[0]
    bounds = np.cumsum([0] + [len(cli._OUTPUTS[name].columns) for name in outputs]).tolist()
    return {name: row[lo:hi] for name, lo, hi in zip(outputs, bounds[:-1], bounds[1:])}


def _second_moment(columns, name, source):
    """(Re, Im) of the second moment of a variance output: var + mean^2 with the real mean."""
    variance = columns[name]
    return np.array([variance[0] + columns[_MEAN_OF[source]][0] ** 2, variance[1]])


@pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
@settings(max_examples=150, deadline=None)
@given(case=admissible_cases(), c=_scales, s=_scales)
# Detuned by omega_a = 0; resonant once scaled down, while the resonance test had an absolute floor of 1e-12.
@example(case=(ModelConfig(omega_s=1.0, omega_a=0.0, g=1.0, tau=1.0, beta=0.0), SystemStateParams(0.0)), c=1.0, s=1e-12)
def test_every_output_column_is_scale_covariant(case, c, s):
    cfg, state = case
    # The coherent-work/heat outputs are defined where the split is.
    split = cfg.is_resonant or cfg.is_weak
    outputs = tuple(name for name, output in cli._OUTPUTS.items() if split or output.source not in kdq._WORK_HEAT)
    before, unit = _columns(cfg, state, outputs), _unit(cfg)
    for scaling, factor in ((_by_hbar, c), (_by_frequency, s)):
        scaled, f, k = _scaled(cfg, scaling, factor)
        assert scaled.is_resonant == cfg.is_resonant
        after = _columns(scaled, state, outputs)
        for name in outputs:
            reads, source, _ = cli._OUTPUTS[name]
            weight = k if source == kdq.W else 1.0
            if reads in ("mean", "analytic"):
                _assert_scaled(before[name], after[name], f * weight, unit)
            elif reads == "var":
                second = _second_moment(before, name, source), _second_moment(after, name, source)
                _assert_scaled(*second, f * f * weight, unit * unit)
            else:
                _assert_scaled(before[name], after[name], 1.0, 1.0)


@pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
@settings(max_examples=100, deadline=None)
@given(case=admissible_cases(), c=_scales, s=_scales)
# A weakly coupled collision, sigma_2 = 2.5e-6: its steady states under the two scalings differ by about 4e-12.
@example(
    case=(
        ModelConfig(
            omega_s=0.23094829919343685, omega_a=-0.5181444260398012, g=0.132266785187365, tau=0.012300198697910717,
            beta=2.6495558718436203, lam=-0.31315802551970906,
        ),
        SystemStateParams(0.25, 0.4, 0.7),
    ),
    c=1.0, s=1.901301228823868e-21,
)
def test_evolve_records_and_steady_states_are_scale_covariant(case, c, s):
    cfg, state = case
    rho_s, unit = build_system_state(state), _unit(cfg)
    trajectory, steady = evolve(rho_s, cfg, 3, thermo=True), find_steady_state(cfg)
    steady_unit = max(1.0, _steady_state_accuracy(cfg) / _BOUND)
    for scaling, factor in ((_by_hbar, c), (_by_frequency, s)):
        scaled, f, k = _scaled(cfg, scaling, factor, collision=True)
        scaled_trajectory, scaled_steady = evolve(rho_s, scaled, 3, thermo=True), find_steady_state(scaled)
        _assert_scaled(trajectory.states, scaled_trajectory.states, 1.0, 1.0)
        for record, scaled_record in zip(trajectory.per_step, scaled_trajectory.per_step, strict=True):
            for name in _RECORD_FIELDS:
                value, scaled_value = getattr(record, name), getattr(scaled_record, name)
                assert (value is None) == (scaled_value is None)
                if value is not None:
                    _assert_scaled(value, scaled_value, f, unit)
            assert record.moments.keys() == scaled_record.moments.keys()
            for q, moments in record.moments.items():
                weight = k if q == kdq.W else 1.0
                _assert_scaled(moments.mean, scaled_record.moments[q].mean, f * weight, unit)
                _assert_scaled(moments.second_moment, scaled_record.moments[q].second_moment, f * f * weight, unit**2)
            assert record.nonpositivity.keys() == scaled_record.nonpositivity.keys()
            for q, report in record.nonpositivity.items():
                _assert_scaled(astuple(report), astuple(scaled_record.nonpositivity[q]), 1.0, 1.0)
        assert scaled_steady.converged == steady.converged
        _assert_scaled(steady.state, scaled_steady.state, 1.0, steady_unit)
