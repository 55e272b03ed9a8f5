"""Independent dense-matrix references for cross-checking the package.

Everything here rebuilds operators from their definitions as explicit
matrices, sharing no code with the package: the walk step as an
N(N-1) x N(N-1) unitary assembled entry by entry, and the continuous-time
Hamiltonian as a full N x N matrix.  Feasible only for small N, which is
the point: the package's structural O(N^2) updates must reproduce these.
The 3x3 step is also written out here, for the reduced model's closed form
to be checked against its plain matrix powers, in floats and in 50 digits.
"""

import numpy as np


def pair_index(n, v, w):
    """Flat index of the (vertex v, pointing at w) basis state."""
    assert v != w
    c = w if w < v else w - 1
    return v * (n - 1) + c


def dense_shift(n, phi):
    dim = n * (n - 1)
    swap = np.zeros((dim, dim), dtype=complex)
    for v in range(n):
        for w in range(n):
            if v != w:
                swap[pair_index(n, w, v), pair_index(n, v, w)] = 1.0
    return np.cos(phi) * swap + 1j * np.sin(phi) * np.eye(dim)


def dense_coin(n, eta):
    d = n - 1
    block = (1.0 + np.exp(1j * eta)) / d * np.ones((d, d)) - np.eye(d)
    return np.kron(np.eye(n), block)


def dense_oracle(n, marked, eta):
    diag = np.ones(n * (n - 1), dtype=complex)
    diag[marked * (n - 1) : (marked + 1) * (n - 1)] = -np.exp(-1j * eta)
    return np.diag(diag)


def dense_step(n, phi, eta, marked=0):
    return dense_shift(n, phi) @ dense_coin(n, eta) @ dense_oracle(n, marked, eta)


def dense_evolve_probs(n, phi, eta, steps, marked=0):
    """Success-probability trajectory via repeated dense matvec."""
    dim = n * (n - 1)
    u = dense_step(n, phi, eta, marked)
    state = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    block = slice(marked * (n - 1), (marked + 1) * (n - 1))
    probs = np.empty(steps + 1)
    for t in range(steps + 1):
        if t:
            state = u @ state
        probs[t] = np.sum(np.abs(state[block]) ** 2)
    return probs


def dense_basis_states(n, marked=0):
    """Embedded |ab>, |ba>, |bb> as full-space columns, in that order."""
    dim = n * (n - 1)
    ab = np.zeros(dim)
    ba = np.zeros(dim)
    bb = np.zeros(dim)
    for v in range(n):
        for w in range(n):
            if v == w:
                continue
            i = pair_index(n, v, w)
            if v == marked:
                ab[i] = 1.0
            elif w == marked:
                ba[i] = 1.0
            else:
                bb[i] = 1.0
    columns = [vec / np.linalg.norm(vec) for vec in (ab, ba, bb)]
    return np.stack(columns, axis=1)


def project_to_reduced(matrix, n, marked=0):
    """Compress a dense full-space operator to the 3x3 symmetric-subspace block."""
    basis = dense_basis_states(n, marked)
    return basis.conj().T @ matrix @ basis


def reduced_step(n, phi, eta):
    """The 3x3 step in the (ab, ba, bb) basis, multiplied out entry by entry.

    Shift rows (i sin phi, cos phi, 0), (cos phi, i sin phi, 0) and
    (0, 0, e^{i phi}) times coin/oracle rows (-1, 0, 0), (0, ba_ba, ba_bb)
    and (0, ba_bb, bb_bb).
    """
    e = np.exp(1j * eta)
    c, si = np.cos(phi), 1j * np.sin(phi)
    root = np.sqrt(n - 2.0)
    ba_ba = -(n - 2.0 - e) / (n - 1.0)
    ba_bb = (1.0 + e) * root / (n - 1.0)
    bb_bb = ((n - 2.0) * e - 1.0) / (n - 1.0)
    return np.array(
        [
            [-si, c * ba_ba, c * ba_bb],
            [-c, si * ba_ba, si * ba_bb],
            [0.0, (c + si) * ba_bb, (c + si) * bb_bb],
        ]
    )


def reduced_power_probs(n, phi, eta, steps):
    """Success probability after 0..steps steps, one 3x3 product per step."""
    u = reduced_step(n, phi, eta)
    state = np.array([1.0, 1.0, np.sqrt(n - 2.0)], dtype=complex) / np.sqrt(float(n))
    probs = np.empty(steps + 1)
    for t in range(steps + 1):
        if t:
            state = u @ state
        probs[t] = abs(state[0]) ** 2
    return probs


def reduced_probs_50_digits(n, phi, eta, steps):
    """Success probability after each of the ascending step counts, in 50 digits.

    phi and eta are taken exactly as the floats given; M^t comes from
    repeated squaring of the 3x3 step, so any t costs O(log t) products.
    Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(50):
        e = mp.expj(mp.mpf(eta))
        c, si = mp.cos(mp.mpf(phi)), 1j * mp.sin(mp.mpf(phi))
        root = mp.sqrt(n - 2)
        ba_ba = -(n - 2 - e) / (n - 1)
        ba_bb = (1 + e) * root / (n - 1)
        bb_bb = ((n - 2) * e - 1) / (n - 1)
        u = mp.matrix(
            [
                [-si, c * ba_ba, c * ba_bb],
                [-c, si * ba_ba, si * ba_bb],
                [0, (c + si) * ba_bb, (c + si) * bb_bb],
            ]
        )
        state = mp.matrix([1, 1, root]) / mp.sqrt(n)
        probs, done = [], 0
        for t in steps:
            gap, power = t - done, u
            while gap:
                if gap & 1:
                    state = power * state
                power, gap = power * power, gap >> 1
            done = t
            probs.append(float(abs(state[0]) ** 2))
    return np.array(probs)


def runtimes_60_digits(phi, n):
    """(t*_exact, t*_large_n) of the corrected walk, in 60 digits.

    Evaluated straight from the defining forms pi/(2 asin(sqrt((1 + cos eta)/N)))
    and pi sqrt(N)/(2 sqrt(1 + cos 2 phi)), with phi taken exactly as the
    float given; the extra digits absorb their cancellation near pi/2.
    Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(60):
        phi = mp.mpf(phi)
        eta = -2 * mp.atan2(mp.sin(phi) * (n - 1), mp.cos(phi) * (n - 2))
        sigma = mp.asin(mp.sqrt((1 + mp.cos(eta)) / n))
        large_n = mp.pi * mp.sqrt(n) / (2 * mp.sqrt(1 + mp.cos(2 * phi)))
        return float(mp.pi / (2 * sigma)), float(large_n)


def dense_ctqw_probs(n, epsilon, gamma, times, marked=0):
    """Marked-vertex probability from the full N x N Hamiltonian."""
    adjacency = np.ones((n, n)) - np.eye(n)
    h = -gamma * (1.0 - epsilon) * adjacency
    h[marked, marked] -= 1.0
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.T @ np.full(n, 1.0 / np.sqrt(n))
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), evals))
    return np.abs(phases @ (evecs[marked] * coeff)) ** 2


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)
