"""Independent reference checker for the benchmark's outputs.

The reference builds the single-particle marginal from the amplitudes on its
own, as rho = Phi Phi^dag / N. Phi[i, S'] is the amplitude of a_i |Psi> on the
(N-1)-tuple S'; its index arrays come from itertools.combinations, which
yields sorted tuples in the documented lexicographic order. Nothing here
imports the package under test, so a fault in its ranking, tables or
contraction cannot cancel out of the comparison.

Every check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

MATRIX_TOL = 1e-12       # rho, purity and spectrum against the reference
ENTROPY_TOL = 1e-10      # entropy sums -l ln l over near-zero eigenvalues
IDENTITY_TOL = 1e-14     # e_l and e_vn are one subtraction away from their inputs
INVARIANCE_TOL = 1e-10   # measures before and after a local unitary


@lru_cache(maxsize=None)
def ranks(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Lexicographic rank of every sorted n-subset of range(d)."""
    return {t: k for k, t in enumerate(combinations(range(d), n))}


@lru_cache(maxsize=None)
def annihilation_table(d: int, n: int):
    """Index arrays (orbital, (N-1)-rank, N-rank, sign) of Phi = a_i |Psi>."""
    small = ranks(d, n - 1)
    rows, cols, src, sign = [], [], [], []
    for k, t in enumerate(combinations(range(d), n)):
        for m, i in enumerate(t):
            rows.append(i)
            cols.append(small[t[:m] + t[m + 1:]])
            src.append(k)
            sign.append(-1.0 if m % 2 else 1.0)
    return (np.array(rows), np.array(cols), np.array(src), np.array(sign), len(small))


def reference_rho(d: int, n: int, amplitudes: np.ndarray) -> np.ndarray:
    """rho_ij = <a_j Psi | a_i Psi> / N from normalized amplitudes."""
    rows, cols, src, sign, width = annihilation_table(d, n)
    phi = np.zeros((d, width), dtype=np.complex128)
    phi[rows, cols] = sign * amplitudes[src]
    return phi @ phi.conj().T / n


def amplitudes_from_document(doc: dict) -> tuple[int, int, np.ndarray, float]:
    """(d, n, normalized amplitudes, input norm) read from a state document."""
    d, n = doc["d"], doc["n"]
    index = ranks(d, n)
    c = np.zeros(len(index), dtype=np.complex128)
    for entry in doc["amplitudes"]:
        c[index[tuple(entry["orbitals"])]] = complex(entry.get("re", 0.0), entry.get("im", 0.0))
    norm = float(np.linalg.norm(c))
    return d, n, c / norm, norm


class Reference:
    """Reference marginal, spectrum, purity and entropy of one state."""

    def __init__(self, d: int, n: int, amplitudes: np.ndarray):
        c = np.asarray(amplitudes, dtype=np.complex128)
        self.d, self.n = d, n
        self.rho = reference_rho(d, n, c / np.linalg.norm(c))
        self.spectrum = np.sort(np.linalg.eigvalsh(self.rho))[::-1]
        self.purity = float(np.sum(np.abs(self.rho) ** 2))
        positive = self.spectrum[self.spectrum > 0.0]
        self.entropy = float(-(positive @ np.log(positive)))


def compare(label: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{label}: got {got!r}, reference {want!r} (tolerance {tol:g})"]
    return []


def check_analysis(
    ref: Reference,
    result: dict,
    *,
    slater: bool,
    rho: np.ndarray | None = None,
) -> list[str]:
    """Compare one analysis result with the reference and the method's laws.

    ``result`` holds the report fields (purity, entropy_nats, e_l, e_vn,
    verdicts) and optionally ``spectrum``; ``rho`` is the program's matrix
    when the caller has it. ``slater`` says whether the input was built as a
    single determinant; otherwise it is a Haar-random state, entangled
    exactly when d >= n + 2.
    """
    n, d = ref.n, ref.d
    ln_n = math.log(n)
    out: list[str] = []
    if rho is not None:
        dev = float(np.max(np.abs(rho - ref.rho)))
        if not dev <= MATRIX_TOL:
            out.append(f"rho differs from the reference by {dev:.3e}")
        out += compare("trace of rho", float(np.trace(rho).real), 1.0, MATRIX_TOL)
    p, s = result["purity"], result["entropy_nats"]
    out += compare("purity", p, ref.purity, MATRIX_TOL)
    out += compare("entropy", s, ref.entropy, ENTROPY_TOL)
    if "spectrum" in result:
        lam = np.asarray(result["spectrum"], dtype=np.float64)
        if lam.shape != ref.spectrum.shape:
            out.append(f"spectrum has {lam.shape[0]} values, expected {d}")
        else:
            dev = float(np.max(np.abs(lam - ref.spectrum)))
            if not dev <= MATRIX_TOL:
                out.append(f"spectrum differs from the reference by {dev:.3e}")
            out += compare("sum of the spectrum", float(lam.sum()), 1.0, MATRIX_TOL)
            if lam.min() < -MATRIX_TOL or lam.max() > 1.0 / n + MATRIX_TOL:
                out.append(f"eigenvalues outside [0, 1/{n}]: [{lam.min()!r}, {lam.max()!r}]")
    if p > 1.0 / n + MATRIX_TOL:
        out.append(f"purity {p!r} above 1/{n}")
    if s < ln_n - ENTROPY_TOL:
        out.append(f"entropy {s!r} below ln {n}")
    out += compare("e_l - (1/N - purity)", result["e_l"], 1.0 / n - p, IDENTITY_TOL)
    out += compare("e_vn - (S - ln N)", result["e_vn"], s - ln_n, IDENTITY_TOL)
    verdicts = result["verdicts"]
    expected = slater or d <= n + 1
    for name in ("purity", "entropy", "idempotency", "separable"):
        if verdicts[name] is not expected:
            kind = "Slater" if slater else f"Haar-random (d={d}, n={n})"
            out.append(f"{kind} state: {name} verdict {verdicts[name]}, expected {expected}")
    return out


def check_invariance(before: Reference, after: Reference) -> list[str]:
    """Purity, entropy and spectrum must not move under a local unitary."""
    out = compare("purity change under rotation", after.purity, before.purity, INVARIANCE_TOL)
    out += compare("entropy change under rotation", after.entropy, before.entropy, INVARIANCE_TOL)
    dev = float(np.max(np.abs(after.spectrum - before.spectrum)))
    if not dev <= INVARIANCE_TOL:
        out.append(f"spectrum moved by {dev:.3e} under rotation")
    return out


def check_report_json(text: str, schema: dict) -> tuple[dict | None, list[str]]:
    """Parse an ``analyze --json`` document and validate it against the schema."""
    import jsonschema

    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc.msg}"]
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(record), key=str)
    return record, [f"schema: {e.message}" for e in errors[:3]]
