"""Output checks for the benchmark workloads, and the reference they use.

Every check returns an Outcome: whether the program's output is right, the
largest deviation seen (reported as `check.max_abs_err`), and how much work
the output shows was done (the numerator of `work_per_s`).

The reduced model is checked against an independent reference: the 3x3 step
is rebuilt here from the paper's formulas and diagonalised once, so that
step t costs one t-vectorised phase sum instead of t matrix products.  The
loop in `reduced.evolve_reduced` and this closed form round differently;
at N = 10^12 over 2.5 M steps they differ by up to about 4e-10, so
REFERENCE_TOL sits ten times above that drift.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The `full-vs-reduced` tolerance of `barrierwalk verify`.
FULL_VS_REDUCED_TOL = 1e-10
REFERENCE_TOL = 5e-9
# Above this N the curve moves by about sigma^2 < 1e-9 per step near the
# peak, below the float drift, so the peak step is not compared.
ARGMAX_MAX_N = 10**9

_CHUNK = 250_000
SAMPLES = 20_000
PEAK_HALF_WIDTH = 10_000
_VERIFY_PASS = re.compile(r"^verify: PASS \((\d+)/\1 checks\)$")
_DEVIATION = re.compile(r"max deviation (\S+) ")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    max_abs_err: float
    work: float
    why: str = ""


def corrected_eta(phi: float, n: int) -> float:
    """Phase solving tan(eta/2) = -tan(phi) (N-1)/(N-2)."""
    return -2.0 * math.atan2(math.sin(phi) * (n - 1), math.cos(phi) * (n - 2))


def step_matrix(n: int, phi: float, eta: float) -> np.ndarray:
    """One corrected walk step in the (ab, ba, bb) basis: shift after coin/oracle."""
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
    shift = math.cos(phi) * swap + 1j * math.sin(phi) * np.eye(3)
    e = np.exp(1j * eta)
    off = (1.0 + e) * math.sqrt(n - 2.0) / (n - 1.0)
    coin_oracle = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, -(n - 2.0 - e) / (n - 1.0), off],
            [0.0, off, ((n - 2.0) * e - 1.0) / (n - 1.0)],
        ],
        dtype=np.complex128,
    )
    return shift @ coin_oracle


def reference_probabilities(n: int, phi: float, eta: float, steps: np.ndarray) -> np.ndarray:
    """Success probability after each of the given step counts, from the eigenbasis."""
    lam, vecs = np.linalg.eig(step_matrix(n, phi, eta))
    start = np.array([1.0, 1.0, math.sqrt(n - 2.0)], dtype=np.complex128) / math.sqrt(n)
    weights = np.linalg.solve(vecs, start) * vecs[0]
    log_lam = np.log(np.abs(lam)) + 1j * np.angle(lam)
    out = np.empty(len(steps))
    for lo in range(0, len(steps), _CHUNK):
        t = np.asarray(steps[lo : lo + _CHUNK], dtype=np.float64)[:, None]
        amp = (np.exp(t * log_lam) * weights).sum(axis=1)
        out[lo : lo + len(t)] = amp.real**2 + amp.imag**2
    return out


def reference_curve(n: int, phi: float, eta: float, last_step: int) -> np.ndarray:
    """Success probability after t = 0..last_step steps."""
    return reference_probabilities(n, phi, eta, np.arange(last_step + 1))


def peak_window(n: int, phi: float, eta: float) -> int:
    """Steps a corrected run covers by default: 1.35 x pi / (2 sigma)."""
    sigma = math.asin(math.sqrt((1.0 + math.cos(eta)) / n))
    return math.ceil(1.35 * math.pi / (2.0 * sigma))


def _read_curve(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != "step,probability":
            raise ValueError(f"unexpected CSV header {header!r}")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"expected 2 columns, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise ValueError("non-finite value in CSV")
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError("step column is not 0, 1, 2, ...")
    return data[:, 1]


def _failed(why: str) -> Outcome:
    return Outcome(ok=False, max_abs_err=math.inf, work=0.0, why=why)


def _exit_ok(returncode: int) -> Outcome | None:
    return None if returncode == 0 else _failed(f"exit code {returncode}")


def check_full(returncode: int, stdout: str, out: Path, *, n: int, beta: float, steps: int) -> Outcome:
    """The full-space CSV matches the program's own reduced model per step."""
    from barrierwalk.phases import corrected_eta as program_eta
    from barrierwalk.reduced import evolve_reduced

    if bad := _exit_ok(returncode):
        return bad
    try:
        probs = _read_curve(out)
    except (OSError, ValueError) as exc:
        return _failed(str(exc))
    if len(probs) != steps + 1:
        return _failed(f"{len(probs)} rows, expected {steps + 1}")
    phi = math.asin(beta)
    expected = evolve_reduced(n, phi, program_eta(phi, n), steps)
    err = float(np.abs(probs - expected).max())
    return Outcome(err <= FULL_VS_REDUCED_TOL, err, float(n * (n - 1) * steps),
                   "" if err <= FULL_VS_REDUCED_TOL else f"full vs reduced {err:.3e}")


def check_reduced(returncode: int, stdout: str, out: Path, *, n: int, beta: float) -> Outcome:
    """The reduced CSV matches the eigenbasis reference at sampled steps and at the peak."""
    if bad := _exit_ok(returncode):
        return bad
    try:
        probs = _read_curve(out)
    except (OSError, ValueError) as exc:
        return _failed(str(exc))
    phi = math.asin(beta)
    eta = corrected_eta(phi, n)
    last = peak_window(n, phi, eta)
    if len(probs) != last + 1:
        return _failed(f"{len(probs)} rows, expected {last + 1}")
    # SAMPLES evenly spaced steps (every step of a shorter run), plus every
    # step within PEAK_HALF_WIDTH of the reported peak.
    peak = int(probs.argmax())
    steps = np.union1d(
        np.linspace(0, last, min(last + 1, SAMPLES)).round().astype(np.int64),
        np.arange(max(0, peak - PEAK_HALF_WIDTH), min(last, peak + PEAK_HALF_WIDTH) + 1),
    )
    expected = reference_probabilities(n, phi, eta, steps)
    err = max(float(np.abs(probs[steps] - expected).max()), float(abs(probs.max() - expected.max())))
    if n <= ARGMAX_MAX_N and peak != int(reference_curve(n, phi, eta, last).argmax()):
        return _failed(f"peak at step {peak} differs from the reference")
    return Outcome(err <= REFERENCE_TOL, err, float(last),
                   "" if err <= REFERENCE_TOL else f"reduced vs reference {err:.3e}")


def check_verify(returncode: int, stdout: str, out: Path | None, *, trajectory_steps: int) -> Outcome:
    """`verify` exits 0, passes every check, and prints finite deviations."""
    if bad := _exit_ok(returncode):
        return bad
    lines = stdout.strip().splitlines()
    if not lines or not _VERIFY_PASS.match(lines[-1]):
        return _failed(f"last line {lines[-1] if lines else ''!r}")
    try:
        deviations = [float(m.group(1)) for m in map(_DEVIATION.search, lines) if m]
    except ValueError as exc:
        return _failed(str(exc))
    if len(deviations) != int(_VERIFY_PASS.match(lines[-1]).group(1)):
        return _failed("one deviation line per check expected")
    if not all(math.isfinite(d) for d in deviations):
        return _failed("non-finite deviation")
    return Outcome(True, max(deviations), float(trajectory_steps))


def check_sweep(
    returncode: int, stdout: str, out: Path, *, n_values: list[int], betas: list[float], max_full_n: int
) -> Outcome:
    """One row per grid point, the right engine per row, and reference peaks."""
    if bad := _exit_ok(returncode):
        return bad
    try:
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        return _failed(str(exc))
    grid = [(n, beta) for n in n_values for beta in betas]
    if len(rows) != len(grid):
        return _failed(f"{len(rows)} rows, expected {len(grid)}")
    err = 0.0
    for row, (n, beta) in zip(rows, grid):
        mode = "dtqw-full" if n <= max_full_n else "dtqw-reduced"
        try:
            fields = int(row["n"]), float(row["beta"]), row["mode"]
            peak, peak_step = float(row["peak_probability"]), int(row["t_star_measured"])
        except (KeyError, TypeError, ValueError) as exc:
            return _failed(f"malformed row {row}: {exc!r}")
        if fields != (n, beta, mode):
            return _failed(f"row {row} is not ({n}, {beta}, {mode})")
        if not math.isfinite(peak):
            return _failed(f"non-finite peak in row {row}")
        phi = math.asin(beta)
        eta = corrected_eta(phi, n)
        expected = reference_curve(n, phi, eta, peak_window(n, phi, eta))
        err = max(err, float(abs(peak - expected.max())))
        if n <= ARGMAX_MAX_N and peak_step != int(expected.argmax()):
            return _failed(f"row {row}: reference peak at step {expected.argmax()}")
    return Outcome(err <= REFERENCE_TOL, err, float(len(rows)),
                   "" if err <= REFERENCE_TOL else f"sweep peak vs reference {err:.3e}")
