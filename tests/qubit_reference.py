"""References of the closed-form qubit kernels of measures: the svd routes
they replaced (the marginal spectrum as the squared singular values of the
amplitude matrix, and the Wootters concurrence as l1 - l2 - ... of the
singular values of L^T (sy x sy) L), and the spectrum of a 2 x m amplitude
matrix in exact rational arithmetic with one 50-digit square root; Cayley's
hyperdeterminant of a 3-qubit amplitude array, which ties the three
concurrence kernels together; and the states with known values they are
tested on: Haar local-unitary copies of a state, and a product qubit times
a Haar state."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from entmono import PureState, random_pure, seed_path
from entmono.states import keep_indices, split_amplitudes

YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def svd_spectra(amps: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Squared singular values of the amplitude matrix of the smaller side."""
    keep = keep_indices(keep, len(dims))
    rest = [i for i in range(len(dims)) if i not in keep]
    side = rest if len(rest) < len(keep) else keep
    s = np.linalg.svd(split_amplitudes(amps, dims, side), compute_uv=False)
    return s * s


def svd_factor_concurrence(factors: np.ndarray) -> np.ndarray:
    """max{0, l1 - l2 - ...} of the singular values of L^T (sy x sy) L."""
    lt_yy = np.swapaxes(factors, -1, -2)[..., ::-1] * YY_SIGNS
    lam = np.linalg.svd(lt_yy @ factors, compute_uv=False)
    c = lam[..., 0]
    for i in range(1, lam.shape[-1]):
        c = c - lam[..., i]
    return np.maximum(0.0, c)


def exact_spectrum(m: np.ndarray) -> tuple:
    """(p1, p2) of M·M† for one 2 x m complex matrix M, as Decimals.

    The entries of M are read exactly as Fractions, so the Gram entries
    a, d and g are exact; p1,2 = (a + d +- sqrt((a - d)² + 4|g|²))/2 then
    takes one square root at 50 digits.
    """
    top, bottom = ([(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m)
    a = sum(x * x + y * y for x, y in top)
    d = sum(x * x + y * y for x, y in bottom)
    g_re = sum(x1 * x2 + y1 * y2 for (x1, y1), (x2, y2) in zip(top, bottom))
    g_im = sum(y1 * x2 - x1 * y2 for (x1, y1), (x2, y2) in zip(top, bottom))
    disc = (a - d) ** 2 + 4 * (g_re ** 2 + g_im ** 2)
    with localcontext() as ctx:
        ctx.prec = 50
        root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
        total = Decimal((a + d).numerator) / Decimal((a + d).denominator)
        return (total + root) / 2, (total - root) / 2


def hyperdeterminant(amps: np.ndarray) -> complex:
    """Cayley's hyperdeterminant of the 2 x 2 x 2 amplitude array a_ijk.

    Det = d1 - 2 d2 + 4 d3 (Miyake, PRA 67, 012108, 2003), with
    d1 = a000² a111² + a001² a110² + a010² a101² + a100² a011²,
    d2 the six products a000 a111 a011 a100 + a000 a111 a101 a010
    + a000 a111 a110 a001 + a011 a100 a101 a010 + a011 a100 a110 a001
    + a101 a010 a110 a001 and d3 = a000 a110 a101 a011 + a111 a001 a010 a100:
    a degree-4 polynomial with no square root.  For a 3-qubit pure state
    the three-tangle is 4|Det| = C²(A|BC) - C²(A,B) - C²(A,C) (Coffman,
    Kundu and Wootters, PRA 61, 052306, 2000).
    """
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return complex(d1 - 2.0 * d2 + 4.0 * d3)


def haar_unitary(rng) -> np.ndarray:
    """A Haar 2 x 2 unitary: the QR of a complex Gaussian, phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_copy(state: PureState, seed) -> PureState:
    """U_1 x ... x U_n applied to a qubit state, each U_i Haar."""
    rng = np.random.default_rng(seed)
    psi = state.amplitudes.reshape(state.dims)
    for i in range(state.n_qubits):
        psi = np.moveaxis(np.tensordot(haar_unitary(rng), psi, axes=([1], [i])), 0, i)
    return PureState(psi.reshape(-1), state.dims)


def product_state(n: int, position: int, seed) -> PureState:
    """A Haar qubit at position times a Haar state of the other n - 1 qubits."""
    one = random_pure(1, seed_path(seed, 0)).amplitudes
    rest = random_pure(n - 1, seed_path(seed, 1)).amplitudes.reshape(2, -1)
    psi = np.moveaxis(np.einsum("a,bc->abc", one, rest).reshape((2,) * n), 0, position)
    amps = psi.reshape(-1)
    return PureState(amps / np.linalg.norm(amps), (2,) * n)
