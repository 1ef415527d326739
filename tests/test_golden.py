"""Golden fixtures: every preset and two custom sweeps against committed CSVs.

The fixtures pin the numbers, not the bytes: a refactor may move the last
ulp, so each cell must satisfy |new - old| <= 1e-12 |old| + 1e-14, while the
header and the NaN pattern must match exactly.  The absolute floor covers
cells that are zero up to rounding (witnesses of classical distributions,
vanishing work means).  fig7 is in SI units (energies of order 1e-26 J),
so it is compared in units of its quantum hbar*omega: its floor is
1e-14 hbar*omega, and a zeroed or perturbed energy column cannot hide
under the absolute floor.

Regenerate from the repository root, only when a change of the numbers is
intended:

    for p in fig1 fig2 fig3a fig3b fig4 fig5 fig6 fig7; do
        PYTHONPATH=src python -m kdcollide.cli preset $p --points 16 \\
            --collisions 8 --out tests/golden/$p.csv
    done
    for c in custom custom_signs; do
        PYTHONPATH=src python -m kdcollide.cli run tests/golden/$c.cfg \\
            --out tests/golden/$c.csv
    done
    rm tests/golden/*.meta.json
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kdcollide.cli import ExperimentSpec, fig7_config, parse_config, run

GOLDEN = Path(__file__).parent / "golden"
PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7")
# The custom sweeps with a fixture: one that skips rows, and one over frequencies of either sign and zero.
CUSTOM = ("custom", "custom_signs")
REL_TOL = 1e-12
ABS_TOL = 1e-14
# Energy unit of each preset's cells where it is not 1.
UNIT = {"fig7": fig7_config().hbar * fig7_config().omega_s}


def _read(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


def _assert_matches(new_path: Path, name: str, unit: float = 1.0) -> None:
    old_header, old = _read(GOLDEN / f"{name}.csv")
    new_header, new = _read(new_path)
    assert new_header == old_header
    assert new.shape == old.shape
    assert np.array_equal(np.isnan(new), np.isnan(old)), "NaN pattern changed"
    finite = ~np.isnan(old)
    excess = np.abs(new - old) - (REL_TOL * np.abs(old) + ABS_TOL * unit)
    worst = np.unravel_index(np.argmax(np.where(finite, excess, -np.inf)), old.shape)
    assert excess[worst] <= 0.0, (
        f"{name}: row {worst[0]} column {old_header[worst[1]]!r}: "
        f"{new[worst]!r} vs golden {old[worst]!r}"
    )


@pytest.mark.parametrize("name", PRESETS)
def test_preset_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    run(ExperimentSpec(preset=name, cfg=None, state=None, out_path=str(out), points=16, collisions=8))
    _assert_matches(out, name, UNIT.get(name, 1.0))


@pytest.mark.parametrize("name", CUSTOM)
def test_custom_sweep_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    spec = parse_config((GOLDEN / f"{name}.cfg").read_text(encoding="utf-8"))
    run(replace(spec, out_path=str(out)))
    _assert_matches(out, name)
