import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from kdcollide.model import MODE_EXACT, MODE_WEAK, ModelConfig, SystemStateParams


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def random_case(rng, resonant=False, weak=False, coherent=True):
    """Random constraint-respecting (ModelConfig, SystemStateParams) pair."""
    omega_a = rng.uniform(0.3, 2.0)
    delta = 0.0 if resonant else rng.uniform(-20.0, 20.0)
    g = rng.uniform(0.3, 2.0)
    tau = rng.uniform(0.02, 1.5)
    beta = 0.0 if rng.uniform() < 0.05 else rng.uniform(0.05, 4.0)
    cfg = ModelConfig(
        omega_s=omega_a + delta,
        omega_a=omega_a,
        g=g,
        tau=tau,
        beta=beta,
        mode=MODE_WEAK if weak else "exact",
    )
    lam = rng.uniform(-cfg.lambda_max, cfg.lambda_max) if coherent else 0.0
    if weak:
        cfg = ModelConfig(
            omega_s=cfg.omega_s, omega_a=omega_a, g=g, tau=tau, beta=beta,
            lam_tilde=lam / math.sqrt(tau), mode=MODE_WEAK,
        )
    else:
        cfg = ModelConfig(
            omega_s=cfg.omega_s, omega_a=omega_a, g=g, tau=tau, beta=beta, lam=lam
        )
    rho11 = rng.uniform(0.0, 1.0)
    r_max = math.sqrt(rho11 * (1.0 - rho11))
    r = rng.uniform(0.0, r_max) if (coherent and r_max > 0) else 0.0
    state = SystemStateParams(rho11=rho11, r=r, phi_c=rng.uniform(0.0, 2.0 * math.pi))
    return cfg, state


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes: the arrays agree bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_density_matrix(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


# Frequencies in [-3, 3] with exact zeros, so merged (omega = 0) and reversed
# (omega < 0) level orders are drawn as well.  `ModelConfig` rejects a nonzero
# frequency whose level energy omega/2 is below the smallest normal float.
_omegas = st.one_of(
    st.just(0.0), st.floats(-3.0, 3.0).filter(lambda w: w == 0.0 or abs(0.5 * w) >= sys.float_info.min)
)
_unit = st.floats(0.0, 1.0)


@st.composite
def admissible_cases(draw):
    """Hypothesis strategy over admissible (ModelConfig, SystemStateParams) pairs.

    Exact and weakly coherent modes, resonant and detuned configs, every
    ancilla coherence up to the positivity bound and every system state.
    """
    omega_a = draw(_omegas)
    omega_s = omega_a if draw(st.booleans()) else draw(_omegas)
    weak = draw(st.booleans())
    tau = draw(st.floats(0.01, 1.5))
    cfg = ModelConfig(
        omega_s=omega_s, omega_a=omega_a, g=draw(st.floats(0.1, 2.0)), tau=tau,
        beta=draw(st.floats(0.0, 4.0)), mode=MODE_WEAK if weak else MODE_EXACT,
    )
    lam = draw(st.floats(-1.0, 1.0)) * cfg.lambda_max
    cfg = replace(cfg, lam_tilde=lam / math.sqrt(tau)) if weak else replace(cfg, lam=lam)
    return cfg, draw(system_states())


@st.composite
def system_states(draw):
    """Hypothesis strategy over every system state, coherence up to the positivity bound."""
    rho11 = draw(_unit)
    r = draw(_unit) * math.sqrt(rho11 * (1.0 - rho11))
    return SystemStateParams(rho11, r, draw(st.floats(0.0, 2.0 * math.pi)))
