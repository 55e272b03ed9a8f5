"""Independent references for cross-checking the package.

Nothing here imports barrierwalk; every operator and formula is rebuilt from
its definition:

- the walk step as an N(N-1) x N(N-1) unitary assembled entry by entry, and
  the continuous-time Hamiltonian as a full N x N matrix.  Feasible only for
  small N, which is the point: the package's structural O(N^2) updates must
  reproduce these;
- the full-space step one operator at a time (apply_oracle, apply_coin,
  apply_lazy_shift), in the floating-point operations the package's fused
  kernel must match bit for bit, at any N;
- the 3x3 step, for the reduced model's closed form to be checked against
  its plain matrix powers, in floats and in 50 digits, and the in-plane
  states of the rotation analysis;
- the tangent form of Hoyer's phase-matching defect and the runtime near
  blocking, against which the package's formulas are checked.
"""

import math

import numpy as np


def pair_index(n, v, w):
    """Flat index of the (vertex v, pointing at w) basis state."""
    assert v != w
    c = w if w < v else w - 1
    return v * (n - 1) + c


def _vertices(state):
    # N for a flat state of length N(N-1).
    arr = np.asarray(state, dtype=np.complex128)
    n = round((1.0 + math.sqrt(1.0 + 4.0 * arr.size)) / 2.0)
    assert arr.ndim == 1 and n >= 3 and n * (n - 1) == arr.size
    return arr, n


def apply_lazy_shift(state, phi):
    """Barrier-afflicted flip-flop shift cos(phi)*S + i*sin(phi)*I."""
    arr, n = _vertices(state)
    # perm[index(v, ->w)] = index(w, ->v), built per call at full size.
    v = np.repeat(np.arange(n), n - 1)
    c = np.tile(np.arange(n - 1), n)
    w = c + (c >= v)
    perm = w * (n - 1) + (v - (v > w))
    return math.cos(phi) * arr[perm] + (1j * math.sin(phi)) * arr


def apply_coin(state, eta=0.0):
    """Per-vertex diffusion coin (1 + exp(i*eta))|s_c><s_c| - I.

    eta = 0 gives the standard Grover diffusion 2|s_c><s_c| - I.
    """
    arr, n = _vertices(state)
    blocks = arr.reshape(n, n - 1)
    mean = blocks.mean(axis=1, keepdims=True)
    return ((1.0 + np.exp(1j * eta)) * mean - blocks).reshape(-1)


def apply_oracle(state, marked, eta=0.0):
    """Multiply the marked vertex's coin block by -exp(-i*eta).

    eta = 0 is the plain sign flip at the marked vertex.
    """
    arr, n = _vertices(state)
    if not 0 <= marked < n:
        raise ValueError(f"marked vertex {marked} outside [0, {n})")
    out = arr.copy()
    out[marked * (n - 1) : (marked + 1) * (n - 1)] *= -np.exp(-1j * eta)
    return out


def apply_step(state, marked, phi, eta):
    """Oracle, then coin, then lazy shift, one operator at a time."""
    return apply_lazy_shift(apply_coin(apply_oracle(state, marked, eta), eta), phi)


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


def s_and_w_states(n):
    """The coin-uniform unmarked state s and the target state w, as (ab, ba, bb).

    Both are orthogonal to the (-1)-eigenvector of the coin/oracle matrix, so
    they live in the plane where the corrected walk rotates.  Their overlap is
    <s|w> = -1/sqrt(2(N-1)), whose magnitude is sin(theta) from the
    phase-matching condition.
    """
    s = np.array(
        [0.0, 1.0 / math.sqrt(n - 1.0), math.sqrt((n - 2.0) / (n - 1.0))],
        dtype=np.complex128,
    )
    w = np.array([1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return s, w


def _perp_within_plane(anchor, other):
    # Gram-Schmidt: unit vector orthogonal to anchor inside span{anchor, other},
    # sign fixed so the bb component is positive.
    vec = other - np.vdot(anchor, other) * anchor
    vec = vec / np.linalg.norm(vec)
    if vec[2].real < 0.0:
        vec = -vec
    return vec


def w_perp_state(n):
    """Unit vector orthogonal to w in the plane of s and w."""
    s, w = s_and_w_states(n)
    return _perp_within_plane(w, s)


def s_perp_state(n):
    """Unit vector orthogonal to s in the plane of s and w."""
    s, w = s_and_w_states(n)
    return _perp_within_plane(s, w)


def reduced_initial_state(n):
    """The uniform full-space state expressed in the (ab, ba, bb) basis."""
    vec = np.array([1.0, 1.0, math.sqrt(n - 2.0)], dtype=np.complex128)
    return vec / math.sqrt(n)


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


def hoyer_residual(phi, eta, theta):
    """Phase-matching defect tan(-phi) - tan(eta/2) * (1 - 2*sin(theta)^2).

    Zero exactly when (phi, eta) satisfy the matching condition for a search
    with overlap angle theta; the sign and size of a nonzero value indicate
    how far off a candidate eta is.  Singular at |phi| = pi/2, |eta| = pi.
    """
    return math.tan(-phi) - math.tan(eta / 2.0) * (1.0 - 2.0 * math.sin(theta) ** 2)


def blocking_regime_runtime(delta, n):
    """Runtime blowup pi*sqrt(N) / (2*sqrt(2)*delta) near total blocking.

    delta = pi/2 - phi measures the distance from the blocking point; the
    corrected walk still works there but slows down as 1/delta.  Valid for
    small delta > 0.
    """
    return math.pi * math.sqrt(n) / (2.0 * math.sqrt(2.0) * delta)


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


def ctqw_probs_mpmath(n, epsilon, gamma, times):
    """Marked-vertex probability from exp(-iHt) of the 2x2 compressed H.

    H is taken in the basis {|m>, |u>}, |u> uniform over the unmarked
    vertices, and exponentiated in log10(sqrt N) + 30 digits, enough for
    the phase t ~ sqrt(N).  gamma None is the corrected rate, whose hop rate
    gamma * (1 - epsilon) is exactly 1/N; otherwise gamma, epsilon and the
    times are taken exactly as the floats given.  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(int(math.log10(n) / 2) + 30):
        hop = mp.mpf(1) / n if gamma is None else mp.mpf(gamma) * (1 - mp.mpf(epsilon))
        root = mp.sqrt(n - 1)
        h = mp.matrix([[-1, -hop * root], [-hop * root, -hop * (n - 2)]])
        start = mp.matrix([1, root]) / mp.sqrt(n)
        return np.array(
            [float(abs((mp.expm(-1j * mp.mpf(t) * h) * start)[0]) ** 2) for t in times]
        )


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)
