"""Linear-solve backends for the analysis stack.

Every analysis assembles an MNA matrix and hands it to one of the
helpers here instead of calling ``numpy.linalg`` directly.  Two
backends exist:

``dense``
    ``numpy.linalg.solve`` / LAPACK LU — optimal for the tens-of-node
    op-amp benches where factorization cost is negligible and the
    BLAS kernels beat any sparse bookkeeping.

``sparse``
    SuperLU (``scipy.sparse.linalg.splu``) over a CSR/CSC structure
    derived from the scatter patterns the stamp compiler already
    collected (:class:`SparsePattern`).  The pattern — the symbolic
    part of the work — is built once per circuit revision and shared
    by every DC Newton iteration, AC/noise frequency point and
    transient step; linear (MOSFET-free) circuits additionally reuse
    the *numeric* factorization whenever the matrix is constant
    across calls.

Selection is automatic by matrix size (``auto``, the default: sparse
at :data:`SPARSE_AUTO_THRESHOLD` unknowns and above) with an explicit
override via :func:`set_solver_mode`, :func:`solver_override` or the
``REPRO_SOLVER`` environment variable (``dense`` | ``sparse`` |
``auto``).

Error mapping: SuperLU reports an exactly singular matrix with a
``RuntimeError``; every entry point here converts that to
``numpy.linalg.LinAlgError`` so the analyses' existing retry ladders
and ``SimulationError`` wrappers behave identically on both backends.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import scipy.linalg as _dense_la
import scipy.sparse as _sparse
from scipy.sparse.linalg import splu as _splu

__all__ = [
    "SPARSE_AUTO_THRESHOLD",
    "solver_mode",
    "set_solver_mode",
    "solver_override",
    "use_sparse",
    "SparsePattern",
    "DenseFactor",
    "SparseFactor",
    "factorize",
    "sparse_solve",
]

_MODES = ("dense", "sparse", "auto")

#: ``auto`` mode switches to SuperLU at this many unknowns.  Below it
#: (every op-amp bench) dense LAPACK wins outright; above it the O(n^3)
#: dense factorization dominates and the near-banded MNA structure of
#: ladder/module netlists keeps sparse fill-in tiny.
SPARSE_AUTO_THRESHOLD = 128


def _mode_from_env() -> str:
    raw = os.environ.get("REPRO_SOLVER")
    if raw is None:
        return "auto"
    mode = raw.strip().lower()
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_SOLVER={raw!r}: expected one of {', '.join(_MODES)}"
        )
    return mode


_mode = _mode_from_env()


def solver_mode() -> str:
    """The active backend selection mode (``dense``/``sparse``/``auto``)."""
    return _mode


def set_solver_mode(mode: str) -> str:
    """Set the backend selection mode; returns the previous mode."""
    global _mode
    if mode not in _MODES:
        raise ValueError(
            f"unknown solver mode {mode!r}: expected one of {', '.join(_MODES)}"
        )
    previous = _mode
    _mode = mode
    return previous


@contextmanager
def solver_override(mode: str):
    """Run the enclosed block under a fixed backend selection mode."""
    previous = set_solver_mode(mode)
    try:
        yield
    finally:
        set_solver_mode(previous)


def use_sparse(n: int) -> bool:
    """Whether a size-``n`` system should take the sparse backend."""
    if _mode == "dense":
        return False
    if _mode == "sparse":
        return True
    return n >= SPARSE_AUTO_THRESHOLD


class SparsePattern:
    """Fixed sparsity structure shared by every matrix of one circuit.

    Built from (possibly duplicated) scatter positions; the unique
    row-major-sorted positions double as the CSR layout, and a
    precomputed permutation gives the CSC layout SuperLU wants without
    a per-solve format conversion.  Per-matrix work is then a single
    fancy-index gather out of the dense assembly (:meth:`gather`)
    followed by :meth:`csc` — no per-call structure analysis.
    """

    __slots__ = (
        "n",
        "nnz",
        "rows",
        "cols",
        "_csc_perm",
        "_csc_indices",
        "_csc_indptr",
    )

    def __init__(self, rows, cols, n: int) -> None:
        keys = np.unique(
            np.asarray(rows, dtype=np.int64) * n
            + np.asarray(cols, dtype=np.int64)
        )
        self.n = n
        self.nnz = int(keys.shape[0])
        self.rows = (keys // n).astype(np.intc)
        self.cols = (keys % n).astype(np.intc)
        # Column-major view of the same positions, as a permutation of
        # the row-major data order.
        order = np.argsort(
            self.cols.astype(np.int64) * n + self.rows, kind="stable"
        )
        self._csc_perm = order
        self._csc_indices = self.rows[order].astype(np.intc)
        col_keys = self.cols[order].astype(np.int64)
        self._csc_indptr = np.searchsorted(
            col_keys, np.arange(n + 1)
        ).astype(np.intc)

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """The pattern's entries of a dense matrix, in row-major order."""
        return dense[self.rows, self.cols]

    def csc(self, data: np.ndarray):
        """A ``csc_matrix`` from row-major ``data`` (as from gather)."""
        return _sparse.csc_matrix(
            (data[self._csc_perm], self._csc_indices, self._csc_indptr),
            shape=(self.n, self.n),
        )


class DenseFactor:
    """LAPACK LU factorization with forward/transposed solves."""

    __slots__ = ("_lu", "_piv")

    def __init__(self, a: np.ndarray) -> None:
        self._lu, self._piv = _dense_la.lu_factor(a)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _dense_la.lu_solve((self._lu, self._piv), b)

    def solve_t(self, b: np.ndarray) -> np.ndarray:
        """Solve ``a.T @ x = b`` (plain transpose, no conjugation)."""
        return _dense_la.lu_solve((self._lu, self._piv), b, trans=1)


class SparseFactor:
    """SuperLU factorization with forward/transposed solves.

    Accepts a dense array or any scipy sparse matrix; an exactly
    singular input raises ``numpy.linalg.LinAlgError`` like the dense
    path instead of leaking SuperLU's ``RuntimeError``.
    """

    __slots__ = ("_lu",)

    def __init__(self, a) -> None:
        if not _sparse.issparse(a):
            a = _sparse.csc_matrix(a)
        elif a.format != "csc":
            a = a.tocsc()
        try:
            self._lu = _splu(a)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)

    def solve_t(self, b: np.ndarray) -> np.ndarray:
        """Solve ``a.T @ x = b`` (plain transpose, no conjugation)."""
        return self._lu.solve(b, trans="T")


def factorize(a, *, sparse: bool | None = None):
    """Factor ``a`` once for repeated (and transposed) solves.

    With ``sparse=None`` the backend follows the solver mode and the
    matrix size, mirroring :func:`use_sparse`.
    """
    if sparse is None:
        sparse = use_sparse(a.shape[0])
    return SparseFactor(a) if sparse else DenseFactor(a)


def sparse_solve(a, b: np.ndarray) -> np.ndarray:
    """One-shot SuperLU solve with dense-compatible error mapping."""
    if not _sparse.issparse(a):
        a = _sparse.csc_matrix(a)
    elif a.format != "csc":
        a = a.tocsc()
    try:
        return _splu(a).solve(b)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
