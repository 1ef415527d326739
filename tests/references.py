"""Dense reference formulas that tests compare the package against.

`dense_kernel` is the KDQ kernel as a block sum over the whole 4x4 product
basis: Q[i, f] = (W U^dag)[i, f] U[f, i] as one broadcast matrix product,
summed over the level of each basis state by the 0/1 matrix G as G^T Q G.
`kdq._kernel` reads only the six entries of U that the swap coupling fills;
this form reads all sixteen.

`csv_text` is the CSV text of a table as one ``%`` call per row, every cell
a Python float under ``%.17g``; `cli.write_csv` formats each distinct value
of a column once instead.
"""

import numpy as np

from kdcollide import kdq
from kdcollide.linalg import dag, tensor
from kdcollide.model import SIGMA_X


def dense_kernel(quantity, rho_s, ops, unitary=None):
    """``(matrix, levels)`` of a (..., 2, 2) stack of system states, as `kdq._kernel` without ``slot``."""
    u = ops.u_bare if unitary is None else unitary
    if quantity in (kdq.US, kdq.UA, kdq.USA):
        weight = tensor(rho_s, ops.rho_a)
    elif quantity in (kdq.Q, kdq.QS):
        weight = tensor(rho_s, ops.rho_a_th)
    else:
        weight = ops.prefactor * tensor(rho_s, SIGMA_X)
    # The level of basis state b = 2 * (system index) + (ancilla index).
    if quantity in (kdq.US, kdq.WS, kdq.QS):
        energies, level = ops.levels_s, np.repeat(ops.index_s, 2, axis=-1)
    elif quantity in (kdq.UA, kdq.W, kdq.Q):
        energies, level = ops.levels_a, np.tile(ops.index_a, 2)
    else:
        energies = (ops.levels_s[..., :, None] + ops.levels_a[..., None, :]).reshape(ops.levels_s.shape[:-1] + (-1,))
        level = ops.index_s[..., :, None] * ops.levels_a.shape[-1] + ops.index_a[..., None, :]
        level = level.reshape(level.shape[:-2] + (4,))
    q = (weight @ dag(u)) * u.swapaxes(-1, -2)
    g = (level[..., :, None] == np.arange(energies.shape[-1])).astype(float)
    return g.swapaxes(-1, -2) @ q @ g, (-1.0 if quantity in (kdq.W, kdq.Q) else 1.0) * energies


def csv_text(header, rows):
    """The CSV text of a (rows, columns) float array under ``header``: one ``%.17g`` format per row."""
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"
