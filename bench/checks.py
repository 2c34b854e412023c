"""Output checks against references computed apart from the program.

Every check takes the parsed input object and the parsed report that the
program emitted, recomputes what the report claims with plain numpy, and
returns a list of problems (empty when the output is right).  Nothing
here calls polargrass, except that the chart atlas of ``chart-find`` is
defined over the program's published eigenbasis of the standard triple,
which the caller passes in and :func:`check_split` validates.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for identities recomputed here.
REL_TOL = 1e-9
#: README bound for the Grunsky point of a map that preserves the polarization.
MOBIUS_ZNORM = 1e-6
#: Symmetry budget the program declares for quadrature-made disk points.
GRUNSKY_SYM = 1e-6
#: Agreement of the leading quarter block with the FFT route at 2N.
GRUNSKY_BLOCK = 1e-8
#: Residual gate the program declares for the CAR checks.
CAR_TOL = 1e-12
SUITE_COUNTS = {"total": 20, "passed": 18, "failed": 0, "expected_failures": 2}


def mat(obj) -> np.ndarray:
    """Read the ``{"rows", "cols", "data": [[re, im], ...]}`` wire format."""
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _opnorm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _small(what: str, value: float, bound: float, out: list) -> None:
    if not value <= bound:  # also catches NaN
        out.append(f"{what} = {value:.3e} exceeds {bound:.3e}")


def _sin_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return _opnorm(qa @ qa.conj().T - qb @ qb.conj().T)


def _triple_identities(G, J, Om, out: list, prefix: str) -> None:
    eye = np.eye(G.shape[0])
    _small(f"{prefix} |G - Omega J|", _norm(G - Om @ J), REL_TOL * _norm(G), out)
    _small(f"{prefix} |J^2 + I|", _norm(J @ J + eye), REL_TOL * _norm(J) ** 2, out)
    _small(f"{prefix} |G - G^T|", _norm(G - G.T), REL_TOL * _norm(G), out)
    _small(f"{prefix} |Omega + Omega^T|", _norm(Om + Om.T), REL_TOL * _norm(Om), out)
    if not np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0.0:
        out.append(f"{prefix} G is not positive definite")


def _members(obj) -> dict:
    return {k: mat(obj[k]).real for k in ("g", "J", "omega") if k in obj}


# ---------------------------------------------------------------------------
# one check per verb


def triple_verify(inp, rep) -> list:
    out: list = []
    m = _members(inp)
    _triple_identities(m["g"], m["J"], m["omega"], out, "input")
    if out:
        return ["workload input is not a compatible triple: " + "; ".join(out)]
    if rep.get("pass") is not True:
        out.append("a compatible triple was not passed")
    own_min = float(np.linalg.eigvalsh(m["g"]).min())
    res = rep.get("residuals", {})
    _small("|reported - own| min eigenvalue of g",
           abs(res.get("g_min_eigenvalue", np.nan) - own_min), REL_TOL * max(1.0, own_min), out)
    for key in ("g_from_omega_J", "omega_from_g_J", "J_from_g_omega"):
        _small(f"reported {key}", res.get(key, np.nan), 1e-10, out)
    return out


def triple_complete(inp, rep) -> list:
    out: list = []
    given = _members(inp)
    got = _members(rep["outputs"])
    for key, value in given.items():
        _small(f"|output {key} - input {key}|", _norm(got[key] - value),
               REL_TOL * _norm(value), out)
    _triple_identities(got["g"], got["J"], got["omega"], out, "output")
    if rep.get("pass") is not True:
        out.append("completion not passed")
    return out


def polarize(inp, rep) -> list:
    out: list = []
    m = _members(inp)
    G, J, Om = m["g"], m["J"], m["omega"]
    L = mat(rep["outputs"]["wplus"])
    n = G.shape[0] // 2
    if L.shape != (2 * n, n):
        return [f"wplus has shape {L.shape}, expected {(2 * n, n)}"]
    _small("|J L - i L|", _norm(J @ L - 1j * L), REL_TOL * _norm(J) * _norm(L), out)
    _small("|L^T Omega L|", _norm(L.T @ Om @ L), REL_TOL * _norm(Om) * _norm(L) ** 2, out)
    _small("|L* G L - I|", _norm(L.conj().T @ G @ L - np.eye(n)), REL_TOL * _norm(G), out)
    return out


def siegel_member(inp, rep) -> list:
    out: list = []
    Z = mat(inp)
    if inp["model"] == "disk":
        low = np.eye(Z.shape[0]) - Z.conj().T @ Z
    else:
        low = (Z - Z.conj().T) / 2j
    own_min = float(np.linalg.eigvalsh(0.5 * (low + low.conj().T)).min())
    member = _norm(Z - Z.T) <= 1e-10 * max(1.0, _norm(Z)) and own_min > 1e-12
    if rep.get("pass") is not member:
        out.append(f"membership reported {rep.get('pass')}, recomputed {member}")
    reported = rep.get("residuals", {}).get("min_eigenvalue", np.nan)
    _small("|reported - own| min eigenvalue", abs(reported - own_min),
           REL_TOL * max(1.0, abs(own_min)), out)
    return out


def siegel_act(inp, rep) -> list:
    out: list = []
    a, b, Z = mat(inp["a"]), mat(inp["b"]), mat(inp["Z"])
    Z2 = mat(rep["outputs"]["Z"])
    eye = np.eye(Z.shape[0])
    den = a + b.conj() @ Z
    _small("|Z' (a + conj(b) Z) - (b + conj(a) Z)|",
           _norm(Z2 @ den - (b + a.conj() @ Z)), REL_TOL * _norm(den), out)
    dinv = np.linalg.inv(den)
    rhs = dinv.conj().T @ (eye - Z.conj().T @ Z) @ dinv
    _small("|I - Z'*Z' - D^-*(I - Z*Z)D^-1|", _norm(eye - Z2.conj().T @ Z2 - rhs),
           REL_TOL * max(1.0, _norm(rhs)), out)
    _small("|Z' - Z'^T|", _norm(Z2 - Z2.T), REL_TOL * max(1.0, _norm(Z2)), out)
    _small("opnorm Z'", _opnorm(Z2), 1.0 - 1e-12, out)
    return out


def _flow_phi(coeffs, theta):
    return theta + sum(amp * np.sin(k * theta) for k, amp in coeffs)


def grunsky_reference(coeffs, N: int, K: int) -> np.ndarray:
    """Grunsky point of the flow ``t + sum amp sin(k t)`` by FFT.

    Column k of the composition operator on mode ``-k`` holds the Fourier
    coefficients of ``exp(-i k phi)``; in the g-normalised modes
    ``e_{-k}/sqrt(k)`` the blocks pick up ``sqrt(j/k)`` and
    ``Z = b a^{-1}``.
    """
    theta = 2.0 * np.pi * np.arange(K) / K
    k = np.arange(1, N + 1)
    coef = np.fft.fft(np.exp(-1j * np.outer(_flow_phi(coeffs, theta), k)), axis=0) / K
    scale = np.sqrt(np.outer(k, 1.0 / k))
    a = coef[(-k) % K, :] * scale
    b = coef[k, :] * scale
    return np.linalg.solve(a.T, b.T).T


def grunsky(inp, rep) -> list:
    out: list = []
    spec = inp["diffeo"]
    N = inp["cutoff"]
    Z = mat(rep["outputs"]["Z"])
    if Z.shape != (N, N):
        return [f"Z has shape {Z.shape}, expected {(N, N)}"]
    if spec["kind"] in ("rotation", "mobius"):
        _small("opnorm Z of a polarization-preserving map", _opnorm(Z), MOBIUS_ZNORM, out)
        return out
    _small("|Z - Z^T|", _norm(Z - Z.T), GRUNSKY_SYM * max(1.0, _norm(Z)), out)
    _small("opnorm Z", _opnorm(Z), 1.0 - 1e-12, out)
    q = max(1, N // 4)
    ref = grunsky_reference(spec["coeffs"], 2 * N, 32 * N)
    _small("leading block |Z - Z_fft(2N)|", np.abs(Z[:q, :q] - ref[:q, :q]).max(),
           GRUNSKY_BLOCK, out)
    return out


def check_split(L: np.ndarray) -> list:
    """The eigenbasis the atlas is built on: ``J L = i L`` and ``L* L = I``."""
    out: list = []
    n = L.shape[1]
    J = standard_J(n)
    _small("split |J L - i L|", _norm(J @ L - 1j * L), REL_TOL, out)
    _small("split |L* L - I|", _norm(L.conj().T @ L - np.eye(n)), REL_TOL, out)
    _small("split |L^T L|", _norm(L.T @ L), REL_TOL, out)
    return out


def standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k + 1, 2 * k], J[2 * k, 2 * k + 1] = 1.0, -1.0
    return J


def canonical_lplus(n: int) -> np.ndarray:
    """``(e_x - i e_y)/sqrt 2`` on each plane: the +i eigenvectors of J."""
    L = np.zeros((2 * n, n), dtype=complex)
    for k in range(n):
        L[2 * k, k], L[2 * k + 1, k] = 2**-0.5, -1j * 2**-0.5
    return L


def chart_graph(L: np.ndarray, chart, Z: np.ndarray) -> np.ndarray:
    """Columns ``e_s + sum_i e_perp(i) Z_is`` of the graph of Z over chart S.

    Slot j holds ``e_j`` (a column of L) when j is outside S and its
    conjugate when j is in S; ``perp`` swaps the two.
    """
    n = L.shape[1]
    basis = np.hstack([L, L.conj()])
    slots = np.array([n + j - 1 if j in chart else j - 1 for j in range(1, n + 1)])
    return basis[:, slots] + basis[:, (slots + n) % (2 * n)] @ Z


def chart_find(inp, rep, L: np.ndarray) -> list:
    out = check_split(L)
    W = mat(inp["frame"])
    Z = mat(rep["outputs"]["Z"])
    _small("|Z + Z^T|", _norm(Z + Z.T), REL_TOL * max(1.0, _norm(Z)), out)
    _small("sin angle(graph, input)",
           _sin_angle(chart_graph(L, rep["outputs"]["chart"], Z), W), 1e-8, out)
    if rep.get("pass") is not True:
        out.append("chart not passed")
    return out


def chart_transition(inp, rep) -> list:
    out: list = []
    Z1 = mat(inp["Z"])
    Z2 = mat(rep["outputs"]["Z"])
    L = canonical_lplus(Z1.shape[0])
    _small("|Z2 + Z2^T|", _norm(Z2 + Z2.T), REL_TOL * max(1.0, _norm(Z2)), out)
    _small("sin angle(source graph, target graph)",
           _sin_angle(chart_graph(L, inp["source"], Z1), chart_graph(L, inp["target"], Z2)),
           1e-9, out)
    return out


def torus_period(inp, rep) -> list:
    out: list = []
    tau = complex(*inp["tau"])
    o = rep["outputs"]
    _small("|period_a - 1|", abs(complex(*o["period_a"]) - 1.0), 1e-12, out)
    _small("|period_b - tau|", abs(complex(*o["period_b"]) - tau), 1e-12 * max(1.0, abs(tau)), out)
    if rep.get("pass") is not True:
        out.append("period not passed")
    return out


def fock_car(inp, rep) -> list:
    out: list = []
    o = rep["outputs"]
    modes = inp["cutoff"] + 1
    if (o["modes"], o["dim"], o["cyclicity_rank"]) != (modes, 2**modes, 2**modes):
        out.append(f"modes/dim/rank {o['modes']}/{o['dim']}/{o['cyclicity_rank']}, "
                   f"expected {modes}/{2**modes}/{2**modes}")
    for key, value in rep["residuals"].items():
        _small(key, value, CAR_TOL, out)
    if rep.get("pass") is not True:
        out.append("CAR relations not passed")
    return out


def jw_creation(n: int, k: int) -> np.ndarray:
    """Jordan-Wigner creation of mode k on n modes, basis index = bitmask.

    ``kron`` puts mode 0 in the last factor (lowest bit); the modes below
    k contribute the parity sign ``diag(1, -1)``.
    """
    out = np.ones((1, 1))
    for j in range(n - 1, -1, -1):
        factor = np.eye(2) if j > k else np.diag([1.0, -1.0]) if j < k else np.array([[0.0, 0.0], [1.0, 0.0]])
        out = np.kron(out, factor)
    return out


def fock_creation(creation) -> list:
    """Compare the program's creation matrices with :func:`jw_creation`."""
    n = len(creation)
    out: list = []
    for k, c in enumerate(creation):
        dense = c.toarray() if hasattr(c, "toarray") else np.asarray(c)
        _small(f"|creation[{k}] - JW|", np.abs(dense - jw_creation(n, k)).max(), 0.0, out)
    return out


def suite(inp, rep) -> list:
    out: list = []
    if rep.get("counts") != SUITE_COUNTS or rep.get("pass") is not True:
        out.append(f"suite counts {rep.get('counts')}, expected {SUITE_COUNTS}")
    return out


def rejection(expected: str, rep) -> list:
    if rep.get("error") != expected or rep.get("pass") is not False:
        return [f"expected rejection {expected}, got error={rep.get('error')!r}"]
    return []


VERB_CHECKS = {
    "triple-verify": triple_verify,
    "triple-complete": triple_complete,
    "polarize": polarize,
    "siegel-member": siegel_member,
    "siegel-act": siegel_act,
    "grunsky": grunsky,
    "chart-transition": chart_transition,
    "torus-period": torus_period,
    "fock-car": fock_car,
    "report-suite": suite,
}
