"""Shared fixtures.

The acceptance battery and a few unit tests reuse the same generated
problems and computed inverses at n=256.  Building a problem costs ~0.2s
and a rows/cols inversion ~0.16s, so everything is cached once per session
keyed by (n, kappa, seed) and (..., method).
"""
import numpy as np
import pytest

from invlab import (
    InverseMethod,
    InverseResult,
    Matrix,
    ResidualReport,
    RhsPair,
    SolveReport,
    backward_error,
    build_problem,
    forward_error,
    invert,
    lu_gepp,
    matvec,
    make_rhs,
    residuals,
    solve_lu,
)
from invlab import core
from invlab.rng import Rng, child_seed
from invlab.matgen import RHS_STREAMS

ACCEPT_N = 256
SEEDS = tuple(range(10))

# kappa -> (sigma_1, sigma_n) with sigma_1 = sqrt(kappa), sigma_n = 1/sqrt(kappa)
KAPPA_SIGMAS = {
    1e2: (1e1, 1e-1),
    1e4: (1e2, 1e-2),
    1e8: (1e4, 1e-4),
}


class Lab:
    """Session cache of problems, factorizations and inverses."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def problem(self, kappa, seed, n=ACCEPT_N):
        s1, sn = KAPPA_SIGMAS[kappa]
        return self._get(
            ("problem", n, kappa, seed), lambda: build_problem(n, s1, sn, seed)
        )

    def inverse(self, kappa, seed, method, n=ACCEPT_N) -> InverseResult:
        def build():
            p = self.problem(kappa, seed, n)
            return invert(p.a, method, kappa_est=p.kappa)

        return self._get(("inverse", n, kappa, seed, method), build)

    def report(self, kappa, seed, method, n=ACCEPT_N) -> ResidualReport:
        def build():
            p = self.problem(kappa, seed, n)
            res = self.inverse(kappa, seed, method, n)
            return residuals(res.v, p.a, a_inv_ref=p.a_inv)

        return self._get(("report", n, kappa, seed, method), build)

    def lu(self, kappa, seed, n=ACCEPT_N):
        return self._get(
            ("lu", n, kappa, seed), lambda: lu_gepp(self.problem(kappa, seed, n).a)
        )

    def rhs(self, kappa, seed, mode, n=ACCEPT_N) -> RhsPair:
        def build():
            p = self.problem(kappa, seed, n)
            return make_rhs(p, mode, Rng(child_seed(seed, RHS_STREAMS[mode])))

        return self._get(("rhs", n, kappa, seed, mode), build)

    def solve_errors(self, kappa, seed, mode, method, n=ACCEPT_N) -> dict:
        """Forward/backward errors for x = V b and for the GEPP solve."""

        def build():
            p = self.problem(kappa, seed, n)
            pair = self.rhs(kappa, seed, mode, n)
            x_v = matvec(self.inverse(kappa, seed, method, n).v, pair.b)
            x_g = solve_lu(self.lu(kappa, seed, n), pair.b)
            return {
                "fwd_inv": forward_error(x_v, pair.x_ref),
                "bwd_inv": backward_error(p.a, x_v, pair.b),
                "fwd_gepp": forward_error(x_g, pair.x_ref),
                "bwd_gepp": backward_error(p.a, x_g, pair.b),
            }

        return self._get(("solve", n, kappa, seed, mode, method), build)


@pytest.fixture(scope="session")
def lab():
    return Lab()


@pytest.fixture
def announce(capsys):
    """Print one verdict line per acceptance criterion, bypassing capture."""

    def _announce(cid: str, label: str, ok: bool, detail: str):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[acceptance] {cid} {label}: {verdict} ({detail})")

    return _announce


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of norm2's uncached kernel and of the Jacobi sweeps, by name."""
    calls = {"_norm2": 0, "_jacobi_rotate": 0}

    def counting(name):
        fn = getattr(core, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(core, name, counting(name))
    return calls
