"""natvb._linalg against scipy.linalg: same bits, same exception types."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from natvb import _linalg
from natvb.seeding import make_rng

DIMS = (1, 2, 8, 20, 40)
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray}


def frozen(arr, order):
    """A read-only copy of arr in the given memory order (as _Factor stores)."""
    out = LAYOUTS[order](arr).copy(order=order)
    out.setflags(write=False)
    return out


def spd(p, seed=0):
    a = make_rng(seed).standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


def rhs(p, ndim, seed=1):
    b = make_rng(seed).standard_normal((p, 3) if ndim == 2 else p)
    b.setflags(write=False)
    return b


@pytest.mark.parametrize("order", sorted(LAYOUTS))
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("p", DIMS)
def test_factorisations_match_scipy_bitwise(p, lower, order):
    a = frozen(spd(p), order)
    np.testing.assert_array_equal(_linalg.cholesky(a, lower=lower),
                                  scipy.linalg.cholesky(a, lower=lower))
    ours, ref = _linalg.cho_factor(a, lower=lower), scipy.linalg.cho_factor(a, lower=lower)
    np.testing.assert_array_equal(ours[0], ref[0])
    assert ours[1] == ref[1]
    # the raw core, for a matrix its caller scanned, keeps cholesky's bits
    np.testing.assert_array_equal(_linalg.cholesky_unchecked(a, lower),
                                  scipy.linalg.cholesky(a, lower=lower))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("order", sorted(LAYOUTS))
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("p", DIMS)
def test_solves_match_scipy_bitwise(p, lower, order, ndim):
    a, b = spd(p), rhs(p, ndim)
    c = frozen(scipy.linalg.cho_factor(a, lower=lower)[0], order)
    ours = _linalg.cho_solve((c, lower), b)
    np.testing.assert_array_equal(ours, scipy.linalg.cho_solve((c, lower), b))
    assert ours.shape == b.shape
    tri = frozen(scipy.linalg.cholesky(a, lower=lower), order)
    for t, low in ((tri, lower), (tri.T, not lower)):
        np.testing.assert_array_equal(_linalg.solve_triangular(t, b, lower=low),
                                      scipy.linalg.solve_triangular(t, b, lower=low))


def raised(fn, *args, **kwargs) -> type:
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value)


def assert_same_error(name, expected, *args, **kwargs):
    ours = raised(getattr(_linalg, name), *args, **kwargs)
    assert ours is raised(getattr(scipy.linalg, name), *args, **kwargs) is expected


@pytest.mark.parametrize("name", ["cholesky", "cho_factor"])
@pytest.mark.parametrize("order", sorted(LAYOUTS))
def test_not_positive_definite_raises_like_scipy(name, order):
    for a in (-np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 1))):
        for lower in (True, False):
            assert_same_error(name, np.linalg.LinAlgError, frozen(a, order), lower=lower)
            with pytest.raises(np.linalg.LinAlgError):
                _linalg.cholesky_unchecked(frozen(a, order), lower)


@pytest.mark.parametrize("order", sorted(LAYOUTS))
def test_singular_triangular_raises_like_scipy(order):
    tri = np.tril(spd(4))
    tri[2, 2] = 0.0
    b = rhs(4, 1)
    for t, lower in ((tri, True), (tri.T, False)):
        assert_same_error("solve_triangular", np.linalg.LinAlgError,
                          frozen(t, order), b, lower=lower)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arguments_raise_like_scipy(bad):
    a, b = spd(3), rhs(3, 2).copy()
    c = scipy.linalg.cholesky(a, lower=True)
    bad_a, bad_c, bad_b = a.copy(), c.copy(), b.copy()
    bad_a[1, 0] = bad_c[2, 1] = bad_b[0, 1] = bad
    for name in ("cholesky", "cho_factor"):
        assert_same_error(name, ValueError, bad_a, lower=True)
    assert_same_error("cho_solve", ValueError, (bad_c, True), b)
    assert_same_error("cho_solve", ValueError, (c, True), bad_b)
    assert_same_error("solve_triangular", ValueError, bad_c, b, lower=True)
    assert_same_error("solve_triangular", ValueError, c, bad_b, lower=True)


def test_mismatched_shapes_raise_value_error():
    a, c = spd(3), scipy.linalg.cholesky(spd(3), lower=True)
    for name, args in (("cholesky", (a[:2],)), ("cholesky", (a[0],)),
                       ("cho_solve", ((c, True), np.ones(2))),
                       ("solve_triangular", (c, np.ones((4, 2))))):
        assert raised(getattr(_linalg, name), *args) is ValueError


def _imports_scipy_linalg(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
               for name in names):
            return True
    return False


def test_import_scan_sees_every_spelling():
    for code in ("import scipy.linalg", "import scipy.linalg.lapack as la",
                 "from scipy.linalg import cholesky", "from scipy import linalg",
                 "from scipy.linalg.lapack import dpotrf", "def f():\n    import scipy.linalg"):
        assert _imports_scipy_linalg(ast.parse(code)), code
    for code in ("import scipy", "from scipy import special", "from ._linalg import cholesky",
                 "import numpy.linalg"):
        assert not _imports_scipy_linalg(ast.parse(code)), code


def test_linalg_is_the_one_module_importing_scipy_linalg():
    # a direct import elsewhere would bring scipy.linalg's per-call wrappers back
    src = Path(_linalg.__file__).parent
    importers = sorted(path.name for path in src.glob("*.py")
                       if _imports_scipy_linalg(ast.parse(path.read_text())))
    assert importers == ["_linalg.py"]
