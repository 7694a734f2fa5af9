"""Kernel tests: the partial trace, partial transpose and trace norm of the
dense test reference, each checked against an independent oracle."""

import numpy as np
import pytest

from entmono import DimensionError

from dense_reference import partial_trace, partial_transpose, trace_norm

RNG = np.random.default_rng(2024)


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(n, rng=RNG):
    m = random_complex((n, n), rng)
    return (m + m.conj().T) / 2


def random_density(dims, rng=RNG):
    d = int(np.prod(dims))
    a = random_complex((d, d), rng)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def mixed_radix_index(digits, dims):
    idx = 0
    for d, dim in zip(digits, dims):
        idx = idx * dim + d
    return idx


def ptrace_by_summation(rho, dims, keep):
    """Direct-summation oracle: explicit sums over dropped basis labels."""
    keep = sorted(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    kdims = [dims[i] for i in keep]
    ddims = [dims[i] for i in drop]
    dk = int(np.prod(kdims))
    out = np.zeros((dk, dk), dtype=complex)
    for a in range(dk):
        arow = np.unravel_index(a, kdims) if kdims else ()
        for b in range(dk):
            brow = np.unravel_index(b, kdims) if kdims else ()
            acc = 0.0 + 0.0j
            for c in range(int(np.prod(ddims)) if ddims else 1):
                crow = np.unravel_index(c, ddims) if ddims else ()
                full_a = [0] * len(dims)
                full_b = [0] * len(dims)
                for pos, i in enumerate(keep):
                    full_a[i] = arow[pos]
                    full_b[i] = brow[pos]
                for pos, i in enumerate(drop):
                    full_a[i] = crow[pos]
                    full_b[i] = crow[pos]
                acc += rho[mixed_radix_index(full_a, dims), mixed_radix_index(full_b, dims)]
            out[a, b] = acc
    return out


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = np.zeros(4, complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = partial_trace(rho, [2, 2], [0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_product_factorization(self):
        rho = random_density([2])
        sigma = random_complex((3, 3))  # deliberately not a state
        out = partial_trace(np.kron(rho, sigma), [2, 3], [0])
        assert np.allclose(out, rho * np.trace(sigma), atol=1e-12)

    def test_trace_preserved_and_matches_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = random_hermitian(8, rng)
            keep = [0, 2]
            out = partial_trace(h, [2, 2, 2], keep)
            assert abs(np.trace(out) - np.trace(h)) < 1e-10
            assert np.allclose(out, ptrace_by_summation(h, [2, 2, 2], keep), atol=1e-12)

    def test_psd_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = random_density([2, 2, 2], rng)
            out = partial_trace(rho, [2, 2, 2], [1])
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), [2, 2], [0])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], [])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], [5])


class TestPartialTranspose:
    def test_product_case(self):
        a = random_density([2])
        b = random_density([2])
        out = partial_transpose(np.kron(a, b), [2, 2], 0)
        assert np.allclose(out, np.kron(a.T, b), atol=1e-14)

    def test_involution_exact(self):
        m = random_complex((8, 8))
        twice = partial_transpose(partial_transpose(m, [2, 2, 2], 1), [2, 2, 2], 1)
        assert np.array_equal(twice, m)

    def test_bell_spectrum(self):
        bell = np.zeros(4, complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        pt = partial_transpose(np.outer(bell, bell.conj()), [2, 2], 0)
        eig = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        h = random_hermitian(4)
        pt = partial_transpose(h, [2, 2], 1)
        assert abs(np.trace(pt) - np.trace(h)) < 1e-12
        assert np.allclose(pt, pt.conj().T, atol=1e-12)


class TestTraceNorm:
    def test_identity(self):
        assert abs(trace_norm(np.eye(4)) - 4.0) < 1e-12

    def test_bell_partial_transpose(self):
        bell = np.zeros(4, complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        pt = partial_transpose(np.outer(bell, bell.conj()), [2, 2], 0)
        assert abs(trace_norm(pt) - 2.0) < 1e-12

    def test_adjoint_symmetry(self):
        m = random_complex((5, 5))
        assert abs(trace_norm(m) - trace_norm(m.conj().T)) < 1e-10

    def test_dominates_trace(self):
        for _ in range(20):
            m = random_complex((4, 4))
            assert trace_norm(m) >= abs(np.trace(m)) - 1e-10
