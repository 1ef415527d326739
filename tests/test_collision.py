import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import _omegas, admissible_cases, random_case, random_density_matrix
from references import exact_steady_state, is_density_matrix, steady_state
from kdcollide import analytic, kdq, model, smalltau
from kdcollide.cli import ExperimentSpec, fig7_config, run
from kdcollide.collision import (
    _UNIQUENESS_BOUND,
    _channel,
    _evolve,
    bch_collide_once,
    collide_once,
    collision_unitary,
    evolve,
    find_steady_state,
)
from kdcollide.linalg import dag, psd_floor, tensor, trace_distance, unitary_from_hamiltonian
from kdcollide.model import (
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
)


def resonant_cfg(**kwargs):
    defaults = dict(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


class TestCollideOnce:
    def test_zero_time_is_identity(self, rng):
        rho = random_density_matrix(rng)
        rho_next, _ = collide_once(rho, resonant_cfg(tau=0.0, lam=0.2))
        assert_allclose(rho_next, rho, atol=1e-14)

    def test_thermal_fixed_point(self):
        cfg = resonant_cfg(lam=0.0)
        _, rho_th, _ = build_ancilla(cfg)
        rho_next, _ = collide_once(rho_th, cfg)
        assert_allclose(rho_next, rho_th, atol=1e-14)

    def test_swap_populations(self):
        # For a diagonal input and thermal ancilla the |0> population after
        # one collision is p0*cos(g tau)^2 + p_th * sin(g tau)^2.
        for gtau in (0.3, 0.9, math.pi / 2):
            cfg = resonant_cfg(tau=gtau, beta=0.8, lam=0.0)
            rho0 = build_system_state(SystemStateParams(0.85))
            rho1, _ = collide_once(rho0, cfg)
            p_th = math.exp(-0.4) / cfg.z_a
            expected = 0.85 * math.cos(gtau) ** 2 + p_th * math.sin(gtau) ** 2
            assert abs(rho1[0, 0].real - expected) < 1e-13
            assert abs(rho1[0, 1]) < 1e-14

    def test_outputs_are_states(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng)
            rho_next, rho_sa = collide_once(build_system_state(state), cfg)
            assert is_density_matrix(rho_next)
            assert is_density_matrix(rho_sa)


class TestFirstLaw:
    @pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
    def test_per_step_energy_balance(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng)
            trajectory = evolve(build_system_state(state), cfg, 3, thermo=True)
            scale = max(1.0, cfg.hbar * abs(cfg.omega_s))
            for record in trajectory.per_step:
                assert abs(record.delta_e_s + record.delta_e_a - record.delta_e_sa) < 1e-10 * scale

    @pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
    def test_resonant_total_energy_conserved(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng, resonant=True)
            trajectory = evolve(build_system_state(state), cfg, 3, thermo=True)
            for record in trajectory.per_step:
                assert abs(record.delta_e_sa) < 1e-10


@pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
@settings(max_examples=60, deadline=None)
@given(case=admissible_cases())
def test_step_record_matches_single_traces(case):
    # Each record entry against the single-trace average on the collision
    # propagator: a common factor or sign slip would still pass the first law.
    # The moments and witnesses are exactly those of the step's own state.
    cfg, state = case
    trajectory = evolve(build_system_state(state), cfg, 3, thermo=True)
    u = collision_unitary(cfg)
    split = cfg.is_weak or cfg.is_resonant
    bound = 1e-12 * max(1.0, cfg.hbar * abs(cfg.omega_s), cfg.hbar * abs(cfg.omega_a))
    for rho_s, record in zip(trajectory.states, trajectory.per_step):

        def avg(quantity):
            return kdq.average_via_trace(quantity, rho_s, cfg, unitary=u).real

        expected = {"delta_e_s": avg(kdq.US), "delta_e_a": avg(kdq.UA), "delta_e_sa": avg(kdq.USA)}
        if split:
            c = math.sqrt(cfg.tau) if cfg.is_weak else 1.0
            expected.update(q_s=avg(kdq.QS), q_a=-avg(kdq.Q), w_s=c * avg(kdq.WS), w_a=-c * avg(kdq.W))
        else:
            assert (record.w_s, record.w_a, record.q_s, record.q_a) == (None,) * 4
        for name, value in expected.items():
            assert abs(getattr(record, name) - value) <= bound, name
        quantities = (kdq.US, kdq.UA, kdq.USA) + ((kdq.W, kdq.Q) if split else ())
        dists = {q: kdq.kdq_distribution(q, rho_s, cfg, unitary=u) for q in quantities}
        assert record.moments == {q: kdq.moments(dist) for q, dist in dists.items()}
        assert record.nonpositivity == {q: kdq.nonpositivity(dist) for q, dist in dists.items() if q != kdq.W}


class TestBch:
    def test_requires_weak_mode(self, rng):
        with pytest.raises(ValueError):
            bch_collide_once(random_density_matrix(rng), resonant_cfg(lam=0.1))

    def test_weak_mode_message(self, rng):
        # The one weak-mode precondition of `model`, shared with `smalltau`.
        with pytest.raises(ValueError, match=r"^this operation requires the weakly coherent mode$"):
            bch_collide_once(random_density_matrix(rng), resonant_cfg(lam=0.1))

    def test_small_tau_limit(self, rng):
        rho = random_density_matrix(rng)
        cfg = resonant_cfg(tau=1e-8, lam_tilde=0.2, mode=MODE_WEAK)
        rho_a, _, _ = build_ancilla(cfg)
        assert np.linalg.norm(bch_collide_once(rho, cfg) - tensor(rho, rho_a)) < 1e-3

    def test_trace_exactly_one(self, rng):
        rho = random_density_matrix(rng)
        cfg = resonant_cfg(tau=0.05, lam_tilde=0.4, mode=MODE_WEAK)
        assert abs(np.trace(bch_collide_once(rho, cfg)) - 1.0) < 1e-14

    def test_third_order_local_error(self, rng):
        # Against the exact exponential of the same scaled Hamiltonian the
        # truncation error is third order: halving tau divides it by ~8.
        # Configs are chosen with g ~ sqrt(tau) and lam_tilde ~ 1/sqrt(tau)
        # so every tau describes the same physical generator.
        rho = random_density_matrix(rng)
        for tau0 in (math.pi / 360, math.pi / 3600):
            errors = []
            for tau in (tau0, tau0 / 2.0):
                cfg = ModelConfig(
                    omega_s=1.0, omega_a=1.0, g=math.sqrt(tau), tau=tau, beta=0.7,
                    lam_tilde=0.2 / math.sqrt(tau), mode=MODE_WEAK,
                )
                _, _, _, h_sa = build_hamiltonians(cfg)
                rho_a, _, _ = build_ancilla(cfg)
                u = unitary_from_hamiltonian(h_sa, tau, cfg.hbar)
                exact = u @ tensor(rho, rho_a) @ dag(u)
                errors.append(np.linalg.norm(exact - bch_collide_once(rho, cfg)))
            assert 6.5 < errors[0] / errors[1] < 9.5

    def test_psd_violation_is_recordable(self):
        # The truncated map may dip slightly below PSD; it is recorded, not
        # repaired.
        cfg = resonant_cfg(tau=0.3, lam_tilde=0.5, mode=MODE_WEAK)
        rho = build_system_state(SystemStateParams(0.25, math.sqrt(3) / 4, 0.3))
        joint = bch_collide_once(rho, cfg)
        assert abs(np.trace(joint) - 1.0) < 1e-14
        assert -0.05 < psd_floor(joint) < 1.0


class TestEvolve:
    def test_regime_checked_once_per_call(self):
        # g*tau = 1 > pi/6: one warning for the four work/heat quantities.
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=1.0, beta=1.0, lam=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", kdq.ValidityWarning)
            evolve(build_system_state(SystemStateParams(0.5)), cfg, 3, thermo=True)
        assert [str(w.message) for w in caught] == [
            "pulse area g*tau = 1 exceeds pi/6: coherent work / incoherent heat enter the strong-coupling regime"
        ]

    def test_single_step_matches_collide_once(self, rng):
        cfg, state = random_case(rng)
        rho0 = build_system_state(state)
        trajectory = evolve(rho0, cfg, 1)
        expected, _ = collide_once(rho0, cfg)
        assert_allclose(trajectory.states[1], expected, atol=1e-15)

    def test_states_stay_physical(self, rng):
        cfg, state = random_case(rng)
        trajectory = evolve(build_system_state(state), cfg, 20)
        for rho in trajectory.states:
            assert is_density_matrix(rho)

    def test_monotone_thermalization(self):
        cfg = resonant_cfg(tau=0.9, lam=0.0)
        _, rho_th, _ = build_ancilla(cfg)
        trajectory = evolve(build_system_state(SystemStateParams(0.9, 0.2, 0.5)), cfg, 60)
        distances = [trace_distance(rho, rho_th) for rho in trajectory.states]
        assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(distances, distances[1:]))
        assert distances[-1] < 1e-6

    def test_markovian_suffix(self, rng):
        cfg, state = random_case(rng)
        full = evolve(build_system_state(state), cfg, 6)
        suffix = evolve(full.states[3], cfg, 3)
        for a, b in zip(full.states[3:], suffix.states):
            assert_allclose(a, b, atol=1e-15)

    @pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
    def test_record_count(self, rng):
        cfg, state = random_case(rng)
        trajectory = evolve(build_system_state(state), cfg, 5, thermo=True)
        assert len(trajectory.per_step) == len(trajectory.states) - 1

    @pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
    def test_split_absent_off_resonance(self, rng):
        cfg, state = random_case(rng, resonant=False)
        record = evolve(build_system_state(state), cfg, 1, thermo=True).per_step[0]
        assert record.w_s is None and record.q_a is None
        assert "w" not in record.moments

    @pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
    def test_split_consistent_at_resonance(self, rng):
        cfg, state = random_case(rng, resonant=True)
        record = evolve(build_system_state(state), cfg, 1, thermo=True).per_step[0]
        assert abs(record.w_s + record.q_s - record.delta_e_s) < 1e-12
        assert abs(record.w_a + record.q_a - record.delta_e_a) < 1e-12
        assert set(record.moments) == {"us", "ua", "usa", "w", "q"}
        assert set(record.nonpositivity) == {"us", "ua", "usa", "q"}

    @pytest.mark.parametrize("delta, resonant", [(5e-11, False), (5e-13, True)])
    def test_resonance_classed_alike_everywhere(self, delta, resonant):
        # One resonance test decides the split in `evolve`, the work/heat
        # distributions and the resonant closed forms.
        cfg = ModelConfig(omega_s=1.0 + delta, omega_a=1.0, g=1.0, tau=0.4, beta=1.0, lam=0.1)
        state = SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 4)
        rho_s = build_system_state(state)
        records = evolve(rho_s, cfg, 2, thermo=True).per_step
        assert len(records) == 2
        assert all((r.w_s is not None) == resonant for r in records)
        checks = (
            lambda: kdq.kdq_distribution(kdq.W, rho_s, cfg),
            lambda: smalltau.operator_approach(rho_s, cfg),
            lambda: analytic.resonant_kdq_us(cfg, state),
        )
        for check in checks:
            if resonant:
                check()
            else:
                with pytest.raises(ValueError, match="detuning"):
                    check()

    def test_warning_points_at_caller(self):
        # The pulse-area warning names the line that called into the package.
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=1.0, beta=1.0, lam=0.2)
        rho_s = build_system_state(SystemStateParams(0.5))
        for call in (lambda: evolve(rho_s, cfg, 3, thermo=True), lambda: kdq.kdq_distribution(kdq.Q, rho_s, cfg)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", kdq.ValidityWarning)
                call()
            assert [w.filename for w in caught] == [__file__]

    def test_rejects_zero_collisions(self, rng):
        cfg, state = random_case(rng)
        with pytest.raises(ValueError):
            evolve(build_system_state(state), cfg, 0)


def sequential_states(rho_s0, cfg, n):
    """S^k rho_s0 for k = 0..n, one application of the collision matrix S at a time."""
    s = _channel(collision_unitary(cfg), cfg.operators.rho_a)
    states = [np.asarray(rho_s0, dtype=complex)]
    for _ in range(n):
        states.append((s @ states[-1].ravel()).reshape(2, 2))
    return np.array(states)


def test_doubled_states_match_sequential_loop(rng):
    # The states by repeated squaring against n single steps, resonant and
    # detuned, exact and weakly coherent; both drift by a few ulps per step.
    cases = [(fig7_config(), SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 4))]
    cases += [random_case(rng, resonant=k % 3 == 0, weak=k % 2 == 1) for k in range(40)]
    for cfg, state in cases:
        rho_s0 = build_system_state(state)
        states = np.array(evolve(rho_s0, cfg, 400).states)
        assert np.max(np.abs(states - sequential_states(rho_s0, cfg, 400))) <= 1e-13


@pytest.mark.filterwarnings("ignore::kdcollide.kdq.ValidityWarning")
@settings(max_examples=40, deadline=None)
@given(cases=st.lists(admissible_cases(), min_size=2, max_size=6), n=st.integers(1, 9))
def test_stacked_chains_match_one_chain_records(cases, n):
    # A stack of resonant and detuned chains (both modes, any level structure)
    # gives each chain the states and records of its own `evolve`, bit for bit.
    cfgs = [cfg for cfg, _ in cases]
    rho_s0 = np.array([build_system_state(state) for _, state in cases])
    chains = _evolve(model._ConfigArrays.of(cfgs), rho_s0, n, thermo=True)
    for m, cfg in enumerate(cfgs):
        trajectory = evolve(rho_s0[m], cfg, n, thermo=True)
        assert np.array_equal(chains.states[m], np.array(trajectory.states))
        split = cfg.is_weak or cfg.is_resonant
        for name, column in chains.columns.items():
            values = [getattr(record, name) for record in trajectory.per_step]
            if split or name.startswith("delta_e"):
                assert column[m].tolist() == values, name
            else:
                assert np.isnan(column[m]).all() and values == [None] * n, name
        for q, stack in chains.moments.items():
            if q in trajectory.per_step[0].moments:
                sets = [kdq.MomentSet(*moments) for moments in zip(*(a[m].tolist() for a in stack))]
                assert sets == [record.moments[q] for record in trajectory.per_step], q
        for q, stack in chains.witnesses.items():
            if q in trajectory.per_step[0].nonpositivity:
                reports = [kdq.NonPositivityReport(*w) for w in stack[m].tolist()]
                assert reports == [record.nonpositivity[q] for record in trajectory.per_step], q


def test_fig7_columns_are_the_step_records():
    # fig7 reads the chain's columns; they are the fields of `evolve`'s records.
    table = run(ExperimentSpec("fig7", None, None, collisions=12))
    state = SystemStateParams(rho11=0.25, r=math.sqrt(3.0) / 4.0, phi_c=math.pi / 4)
    records = evolve(build_system_state(state), fig7_config(), 12, thermo=True).per_step
    expected = [
        [float(step), r.q_s, r.q_a, r.w_s, r.w_a, r.delta_e_s, r.delta_e_a] for step, r in enumerate(records, start=1)
    ]
    assert table.header == ["step", "q_s", "q_a", "w_s", "w_a", "delta_e_s", "delta_e_a"]
    assert np.array_equal(table.rows, expected)


class TestSteadyState:
    def test_thermal_steady_state(self):
        cfg = resonant_cfg(tau=0.5, lam=0.0)
        result = find_steady_state(cfg, tol=1e-12)
        _, rho_th, _ = build_ancilla(cfg)
        assert result.converged
        assert trace_distance(result.state, rho_th) < 1e-10

    def test_coherent_steady_state_has_coherence(self):
        cfg = resonant_cfg(tau=0.5, lam=0.3)
        result = find_steady_state(cfg, tol=1e-12)
        assert result.converged
        assert abs(result.state[0, 1]) > 1e-3
        assert result.residual <= 1e-11

    def test_weak_coupling_converges(self):
        # The population contraction per collision is sin(g tau)^2 = 1e-8.
        result = find_steady_state(resonant_cfg(g=1e-3, tau=0.1, lam=0.1))
        assert result.converged and result.iterations == 0
        assert result.residual <= 1e-11
        # The residual sees an error along the slow direction only times its
        # contraction, so the state itself is checked: without coherence the
        # exact answer is the thermal ancilla state, which the closed form
        # gives to rounding.
        cfg = resonant_cfg(g=1e-3, tau=0.1, lam=0.0)
        assert trace_distance(find_steady_state(cfg).state, build_ancilla(cfg)[1]) <= 1e-14

    @pytest.mark.parametrize("tau", [0.0, math.pi])
    def test_degenerate_maps_flagged(self, tau):
        # tau = 0 and the resonant g*tau = omega*tau = pi both make every
        # state a fixed point; a state is still returned, but not certified.
        result = find_steady_state(resonant_cfg(g=1.0, tau=tau, lam=0.1))
        assert not result.converged
        assert is_density_matrix(result.state)

    def test_rejects_bad_tolerance(self):
        # NaN would leave the result uncertified without a word, and +inf
        # would certify any residual.
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {tol!r}$"):
                find_steady_state(resonant_cfg(), tol=tol)


@settings(max_examples=30, deadline=None)
@given(case=admissible_cases())
def test_steady_state_is_the_fixed_point(case):
    cfg, _ = case
    # Population moved by one collision: |<10|U|01>|^2 in the |s a> basis.
    contraction = abs(collision_unitary(cfg)[2, 1]) ** 2
    assume(contraction >= 1e-6)
    result = find_steady_state(cfg)
    assert result.converged
    assert is_density_matrix(result.state)
    image, _ = collide_once(result.state, cfg)
    assert np.max(np.abs(image - result.state)) <= 1e-11
    if contraction >= 0.2:
        # Coherences shrink by at most sqrt(1 - contraction) per collision.
        rho = np.eye(2, dtype=complex) / 2.0
        for _ in range(400):
            rho, _ = collide_once(rho, cfg)
        assert trace_distance(rho, result.state) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(case=admissible_cases())
@example(case=(resonant_cfg(g=1.0, tau=0.0, lam=0.1), None))
@example(case=(resonant_cfg(g=1.0, tau=math.pi, lam=0.1), None))
def test_steady_state_matches_the_reference_solve(case):
    # The closed form against the SVD null vector of S - I, which fixes the
    # state only to about eps/sigma_2 (sigma_2 the second-smallest singular
    # value of S - I): S's entries near those of I carry rounding of order eps.
    cfg, _ = case
    result, reference = find_steady_state(cfg), steady_state(cfg)
    s_minus_i = _channel(collision_unitary(cfg), cfg.operators.rho_a) - np.eye(4)
    sigma_2 = np.linalg.svd(s_minus_i, compute_uv=False)[2]
    deviation = np.max(np.abs(result.state - reference.state))
    assert deviation <= 1e-14 or deviation * sigma_2 <= sys.float_info.epsilon, (deviation, sigma_2)
    assert result.converged == reference.converged
    assert result.iterations == 0


# Collision pulse areas (coupling*tau, the coupling g/sqrt(tau) in weak mode) log-uniform over [1e-4, 2].
_pulse_areas = st.floats(-4.0, math.log10(2.0)).map(lambda exponent: 10.0**exponent)


@st.composite
def pulse_cases(draw):
    """Configs of either mode, resonant or detuned either way, with a pulse area from `_pulse_areas`."""
    omega_a = draw(_omegas)
    omega_s = omega_a if draw(st.booleans()) else draw(_omegas)
    weak, tau, area = draw(st.booleans()), draw(st.floats(0.01, 1.5)), draw(_pulse_areas)
    cfg = ModelConfig(
        omega_s=omega_s, omega_a=omega_a, g=area / (math.sqrt(tau) if weak else tau), tau=tau,
        beta=draw(st.floats(0.0, 4.0)), mode=MODE_WEAK if weak else "exact",
    )
    lam = draw(st.floats(-1.0, 1.0)) * cfg.lambda_max
    return replace(cfg, lam_tilde=lam / math.sqrt(tau)) if weak else replace(cfg, lam=lam)


@settings(max_examples=150, deadline=None)
@given(cfg=pulse_cases())
# g*tau = 1.6e-3 (sigma_2 = 2.5e-6): the SVD solve was 2.6e-12 from the exact state.
@example(
    cfg=ModelConfig(
        omega_s=0.23094829919343685, omega_a=-0.5181444260398012, g=0.132266785187365, tau=0.012300198697910717,
        beta=2.6495558718436203, lam=-0.31315802551970906,
    )
)
# omega_s*tau = 0 at a detuning: U[0, 0] and U[1, 1] cancel each other's phase, which 1 - U[0, 0] U[1, 1]
# formed as (1 - U[0, 0]) + U[0, 0] (1 - U[1, 1]) loses (3.1e-11 off).
@example(cfg=ModelConfig(omega_s=0.0, omega_a=3.0, g=1e-4 / 1.5, tau=1.5, beta=0.3, lam=0.2))
def test_steady_state_matches_a_50_digit_solve(cfg):
    # A collision that moves no more population than this has no certified fixed point.
    assume(abs(collision_unitary(cfg)[2, 1]) ** 2 > _UNIQUENESS_BOUND)
    result = find_steady_state(cfg)
    assert result.converged
    assert np.max(np.abs(result.state - exact_steady_state(cfg))) <= 1e-12
