"""Coherent qubit-qubit collision models with Kirkwood-Dirac energy statistics."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    MODE_EXACT,
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
    partition_function,
)
from .collision import (  # noqa: F401
    CollisionTrajectory,
    StepRecord,
    SteadyStateResult,
    bch_collide_once,
    collide_once,
    collision_unitary,
    evolve,
    find_steady_state,
)
from .kdq import (  # noqa: F401
    KdqDistribution,
    KdqEntry,
    MomentSet,
    NonPositivityReport,
    TransitionLabel,
    ValidityWarning,
    average_via_trace,
    kdq_distribution,
    marginalize_usa_to_ua,
    marginalize_usa_to_us,
    measurement_unitary,
    moments,
    nonpositivity,
)
from .smalltau import (  # noqa: F401
    OperatorWorkSpectrum,
    coherent_correction_G,
    coherent_work_bch,
    dissipator,
    incoherent_heat_bch,
    integrate_master_equation,
    master_equation_rhs,
    operator_approach,
    work_observables,
)
