import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genspace import (
    DensityMatrix,
    ExactDistribution,
    JspsVector,
    MeasurementSet,
    born_probability,
    collapse,
    collapse_jsps,
    jsps_from_distribution,
    measure,
    sample,
    validate_density,
)
from genspace.born import _SAMPLE_BLOCK, format_matrix, parse_matrix
from helpers import (
    gram_schmidt_basis,
    jacobi_eigenvalues,
    random_distribution,
    random_unit_vector,
    reference_measure,
    reference_measurement_set,
    reference_sample,
)

F = Fraction


class TestJspsVector:
    def test_fair_coin_components(self):
        psi = jsps_from_distribution(ExactDistribution([F(1, 2), F(1, 2)]))
        assert psi.components == pytest.approx([math.sqrt(0.5)] * 2)

    def test_bent_coin_squares_back_to_probabilities(self):
        psi = jsps_from_distribution(ExactDistribution([F(2, 3), F(1, 3)]))
        assert psi.probabilities() == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_certainty(self):
        psi = jsps_from_distribution(ExactDistribution([F(1)]))
        assert psi.components.tolist() == [1.0]

    def test_squaring_is_identity_on_random_distributions(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            dist = random_distribution(rng)
            psi = jsps_from_distribution(dist)
            for component, p in zip(psi.components, dist.probs):
                assert component**2 == pytest.approx(float(p), abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="squared norm"):
            JspsVector([0.5, 0.5])

    def test_sign_freedom_allowed(self):
        psi = JspsVector([-math.sqrt(0.5), math.sqrt(0.5)])
        assert born_probability(psi, JspsVector([1.0, 0.0])) == pytest.approx(0.5)

    def test_angles(self):
        psi = JspsVector([1.0, 0.0])
        assert psi.angles() == pytest.approx([0.0, math.pi / 2])

    def test_components_are_read_only(self):
        psi = JspsVector([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.components[0] = 0.0


class TestBornProbability:
    def test_fair_coin_axis(self):
        psi = JspsVector([math.sqrt(0.5), math.sqrt(0.5)])
        assert born_probability(psi, JspsVector([1.0, 0.0])) == pytest.approx(0.5)

    def test_bent_coin_head(self):
        psi = jsps_from_distribution(ExactDistribution([F(2, 3), F(1, 3)]))
        head = JspsVector([1.0, 0.0])
        assert born_probability(psi, head) == pytest.approx(2 / 3, abs=1e-12)

    def test_alignment(self):
        psi = JspsVector([0.6, 0.8])
        assert born_probability(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_probability(JspsVector([1.0]), JspsVector([1.0, 0.0]))


class TestCollapseJsps:
    def test_bent_coin(self):
        psi = collapse_jsps(3, (2, 1))
        assert psi.components == pytest.approx(
            [math.sqrt(2 / 3), math.sqrt(1 / 3)], abs=1e-15
        )

    def test_no_collapse_uniform(self):
        assert collapse_jsps(4, (1, 1, 1, 1)).components == pytest.approx([0.5] * 4)

    def test_dyadic(self):
        psi = collapse_jsps(8, (4, 2, 1, 1))
        expected = [math.sqrt(x) for x in (0.5, 0.25, 0.125, 0.125)]
        assert psi.components == pytest.approx(expected, abs=1e-15)

    def test_squares_match_collapse_exactly_within_float(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d = int(rng.integers(2, 200))
            parts = int(rng.integers(1, min(6, d) + 1))
            cuts = np.sort(rng.choice(d - 1, size=parts - 1, replace=False) + 1)
            counts = tuple(np.diff([0, *cuts.tolist(), d]).tolist())
            psi = collapse_jsps(d, counts)
            dist = collapse(d, counts)
            for component, p in zip(psi.components, dist.probs):
                assert component**2 == pytest.approx(float(p), abs=1e-12)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            collapse_jsps(5, (2, 2))


class TestParsevalNormalization:
    def test_random_bases_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            psi = JspsVector(random_unit_vector(rng, dim))
            basis = gram_schmidt_basis(rng, dim)
            total = sum(
                born_probability(psi, JspsVector(row)) for row in basis
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_scaled_vector_recovers_squared_norm(self):
        # For a vector of norm r the projections squared sum to r^2.
        rng = np.random.default_rng(43)
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            direction = random_unit_vector(rng, dim)
            r = float(rng.uniform(0.1, 5.0))
            scaled = r * direction
            basis = gram_schmidt_basis(rng, dim)
            total = sum(float(row @ scaled) ** 2 for row in basis)
            assert total == pytest.approx(r**2, abs=1e-10 * max(1.0, r**2))


class TestJacobiEigenvalues:
    def test_two_by_two_closed_form(self):
        values = jacobi_eigenvalues(np.array([[0.5, 0.6], [0.6, 0.5]]))
        assert values == pytest.approx([-0.1, 1.1], abs=1e-12)

    def test_diagonal_is_fixed_point(self):
        values = jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert values == pytest.approx([1.0, 2.0, 3.0])

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            m = rng.normal(size=(n, n))
            sym = (m + m.T) / 2
            ours = jacobi_eigenvalues(sym)
            reference = np.sort(np.linalg.eigvalsh(sym))
            assert ours == pytest.approx(reference, abs=1e-9)

    def test_rejects_asymmetric_and_oversized(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.eye(65))


class TestValidateDensity:
    def test_valid_diagonal(self):
        report = validate_density(np.diag([0.5, 0.5]))
        assert report.valid
        assert report.eigenvalues == pytest.approx([0.5, 0.5])

    def test_indefinite_matrix_rejected(self):
        # Closed form: eigenvalues 0.5 +- 0.6.
        report = validate_density(np.array([[0.5, 0.6], [0.6, 0.5]]))
        assert not report.valid and not report.psd
        assert min(report.eigenvalues) == pytest.approx(-0.1, abs=1e-12)

    def test_trace_violation(self):
        report = validate_density(np.diag([0.6, 0.6]))
        assert not report.valid and not report.unit_trace
        assert report.trace_defect == pytest.approx(0.2, abs=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.ones((2, 3)))

    def test_constructor_enforces_validity(self):
        with pytest.raises(ValueError, match="not a density matrix"):
            DensityMatrix([[0.5, 0.6], [0.6, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.diag([0.5, 0.5])
        m[1, 0] = bad
        message = rf"matrix entry \(1, 0\) is {bad}; entries must be finite"
        with pytest.raises(ValueError, match=message):
            validate_density(m)
        with pytest.raises(ValueError, match=message):
            DensityMatrix(m)

    def test_eigenvalues_match_jacobi_oracle(self):
        rng = np.random.default_rng(67)
        for n in [*rng.integers(1, 33, size=12).tolist(), 64]:
            m = rng.normal(size=(n, n))
            report = validate_density(m)
            assert report.eigenvalues == pytest.approx(
                jacobi_eigenvalues((m + m.T) / 2), abs=1e-9
            )

    def test_no_dimension_cap(self):
        rng = np.random.default_rng(71)
        n = 128
        diag = rng.dirichlet(np.ones(n))
        q = gram_schmidt_basis(rng, n)
        rho = DensityMatrix(q @ np.diag(diag) @ q.T)
        assert validate_density(rho.entries).eigenvalues == pytest.approx(
            np.sort(diag), abs=1e-12
        )
        basis = gram_schmidt_basis(rng, n)
        probs = measure(rho, MeasurementSet.von_neumann(basis))
        expected = [float(row @ rho.entries @ row) for row in basis]
        assert probs == pytest.approx(expected, abs=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)
        povm = MeasurementSet([np.outer(b, b) for b in np.eye(n)])
        assert measure(rho, povm) == pytest.approx(np.diag(rho.entries), abs=1e-15)


@pytest.mark.filterwarnings("error")  # a ComplexWarning fails the test
class TestRefusedInput:
    """Complex and empty inputs are refused with a message that names them."""

    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_complex_operator(self, imag):
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) + 1j * imag]
        with pytest.raises(ValueError, match="^operator 1 is complex; entries must be real$"):
            MeasurementSet(ops)
        with pytest.raises(ValueError, match="^basis is complex; entries must be real$"):
            MeasurementSet.von_neumann(np.eye(2) + 1j * imag)

    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_complex_density(self, imag):
        message = "^density matrix is complex; entries must be real$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.diag([0.5, 0.5]) + 1j * imag)
        with pytest.raises(ValueError, match=message):
            validate_density([[0.5, 0.0], [0.0, 0.5 + 1j * imag]])

    def test_empty_operator(self):
        with pytest.raises(ValueError, match="^measurement operators must be at least 1 x 1$"):
            MeasurementSet([np.zeros((0, 0))])

    def test_empty_density(self):
        with pytest.raises(ValueError, match="^density matrix must be at least 1 x 1$"):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("basis", [[], np.zeros((0, 3))])
    def test_empty_basis(self, basis):
        message = "^von Neumann measurement needs at least one basis vector$"
        with pytest.raises(ValueError, match=message):
            MeasurementSet.von_neumann(basis)


class TestMeasure:
    def test_diagonal_density_standard_projectors(self):
        probs = [0.5, 0.25, 0.125, 0.125]
        rho = DensityMatrix(np.diag(probs))
        mset = MeasurementSet.von_neumann(np.eye(4))
        assert measure(rho, mset) == pytest.approx(probs, abs=1e-12)

    def test_standard_basis_projectors_match_born_probability(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            psi = JspsVector(random_unit_vector(rng, dim))
            rho = DensityMatrix.pure(psi)
            probs = measure(rho, MeasurementSet.von_neumann(np.eye(dim)))
            for i, p in enumerate(probs):
                axis = JspsVector(np.eye(dim)[i])
                assert p == pytest.approx(born_probability(psi, axis), abs=1e-12)

    def test_pure_state_reduces_to_born_probability(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            psi = JspsVector(random_unit_vector(rng, dim))
            rho = DensityMatrix.pure(psi)
            basis = gram_schmidt_basis(rng, dim)
            mset = MeasurementSet.von_neumann(basis)
            probs = measure(rho, mset)
            for p, row in zip(probs, basis):
                assert p == pytest.approx(
                    born_probability(psi, JspsVector(row)), abs=1e-12
                )

    def test_maximally_mixed_is_uniform(self):
        rng = np.random.default_rng(59)
        dim = 6
        rho = DensityMatrix(np.eye(dim) / dim)
        mset = MeasurementSet.von_neumann(gram_schmidt_basis(rng, dim))
        assert measure(rho, mset) == pytest.approx([1 / dim] * dim, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            diag = rng.dirichlet(np.ones(dim))
            rho = DensityMatrix(np.diag(diag))
            basis = gram_schmidt_basis(rng, dim)
            before = measure(rho, MeasurementSet.von_neumann(basis))
            q = gram_schmidt_basis(rng, dim)
            rotated_rho = DensityMatrix(q @ rho.entries @ q.T)
            rotated_basis = basis @ q.T  # rows a_i -> Q a_i
            after = measure(rotated_rho, MeasurementSet.von_neumann(rotated_basis))
            assert after == pytest.approx(before, abs=1e-10)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        mset = MeasurementSet.von_neumann(np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            measure(rho, mset)

    def test_incomplete_operator_set_rejected(self):
        half = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="identity"):
            MeasurementSet([half])

    def test_raw_operator_set_accepted_when_valid(self):
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        mset = MeasurementSet(ops)
        assert len(mset) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_operator_rejected(self, bad):
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        ops[1][0, 0] = bad
        with pytest.raises(ValueError, match=rf"operator 1 entry \(0, 0\) is {bad}"):
            MeasurementSet(ops)
        basis = np.eye(2)
        basis[0, 1] = bad
        with pytest.raises(ValueError, match=rf"basis entry \(0, 1\) is {bad}"):
            MeasurementSet.von_neumann(basis)

    def test_indefinite_operator_rejected(self):
        ops = [np.array([[1.0, 0.5], [0.5, 0.0]]), np.array([[0.0, -0.5], [-0.5, 1.0]])]
        with pytest.raises(ValueError, match="positive semidefinite"):
            MeasurementSet(ops)

    @pytest.mark.parametrize(
        "faults, message, reference_message",
        [
            # Operator 0 is asymmetric, operator 1 holds a NaN: finiteness is checked first.
            (("asymmetric", "nan"), r"operator 1 entry \(1, 1\) is nan",
             "operator 0 is not symmetric"),
            # Operator 0 is indefinite, operator 1 asymmetric: symmetry is checked before PSD.
            (("indefinite", "asymmetric"), "operator 1 is not symmetric",
             "operator 0 is not positive semidefinite"),
        ],
    )
    def test_several_faults_name_the_first_failing_check(self, faults, message, reference_message):
        # The checks run over the whole stack in the order finite, symmetric,
        # PSD, so the error names the first operator of the first failing
        # check; the per-operator reference names the first faulty operator.
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        for op, fault in zip(ops, faults):
            if fault == "nan":
                op[1, 1] = math.nan
            elif fault == "asymmetric":
                op[0, 1] = 0.5
            else:
                op -= 0.5
        with pytest.raises(ValueError, match=message):
            MeasurementSet(ops)
        with pytest.raises(ValueError, match=reference_message):
            reference_measurement_set(ops)

    def test_operators_are_read_only_views_of_one_copy(self):
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        mset = MeasurementSet(ops)
        ops[0][0, 0] = 5.0
        assert isinstance(mset.operators, tuple) and len(mset) == 2 and mset.dimension == 2
        assert all(a is b for a, b in zip(mset, mset.operators))
        assert mset.operators[0].tolist() == [[1.0, 0.0], [0.0, 0.0]]
        base = mset.operators[0].base
        for op in mset.operators:
            assert op.shape == (2, 2) and op.base is base and not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 2.0
        for op in MeasurementSet.von_neumann(np.eye(2)).operators:
            assert not op.flags.writeable

    def test_von_neumann_projectors_are_outer_products(self):
        basis = gram_schmidt_basis(np.random.default_rng(83), 5)
        for op, row in zip(MeasurementSet.von_neumann(basis), basis):
            assert np.array_equal(op, np.outer(row, row))


def _povm(rng, n, k):
    """W A_i W for random positive definite A_i, with W = (sum A_i)^(-1/2)."""
    parts = []
    for _ in range(k):
        g = rng.normal(size=(n, n)) / math.sqrt(n)
        parts.append(g @ g.T + np.eye(n) / k)
    w, v = np.linalg.eigh(sum(parts))
    root = v @ np.diag(w**-0.5) @ v.T
    return [(m + m.T) / 2 for m in (root @ a @ root for a in parts)]


@st.composite
def valid_measurements(draw):
    """A valid operator list with n <= 24 and k <= 8, and a density of its dimension.

    Projector splits of a random orthonormal basis, POVMs, or the
    projectors of a von Neumann basis (then n = k).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["split", "povm", "von_neumann"]))
    n = draw(st.integers(1, 8 if kind == "von_neumann" else 24))
    basis = gram_schmidt_basis(rng, n)
    if kind == "von_neumann":
        ops = [np.array(op) for op in MeasurementSet.von_neumann(basis)]
    elif kind == "povm":
        ops = _povm(rng, n, draw(st.integers(1, 8)))
    else:
        k = draw(st.integers(1, min(8, n)))
        labels = rng.permutation(n) % k
        ops = [basis[labels == g].T @ basis[labels == g] for g in range(k)]
    q = gram_schmidt_basis(rng, n)
    rho = DensityMatrix(q @ np.diag(rng.dirichlet(np.ones(n))) @ q.T)
    return ops, rho


@st.composite
def faulty_measurements(draw):
    """A valid operator list with one fault at a drawn operator, and the fault.

    The fault is a NaN or infinite entry, an asymmetric pair, an eigenvalue
    below the floor, a wrong shape, no operators at all, or a sum off the
    identity.  A "near_floor" case moves the smallest eigenvalue to within
    1% of the floor, on either side, and may be valid.
    """
    ops, _ = draw(valid_measurements())
    n, k = ops[0].shape[0], len(ops)
    i = draw(st.integers(0, k - 1))
    op = ops[i]
    faults = ["nan", "inf", "-inf", "indefinite", "near_floor", "shape", "empty", "incomplete"]
    fault = draw(st.sampled_from(faults + (["asymmetric"] if n > 1 else [])))
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault in ("nan", "inf", "-inf"):
        op[r, c] = float(fault)
    elif fault == "asymmetric":
        c = draw(st.integers(0, n - 2))
        c += c >= r
        op[r, c] += draw(st.sampled_from([-1, 1])) * 10.0 ** -draw(st.integers(3, 11))
    elif fault == "indefinite":
        u = random_unit_vector(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
        ops[i] = op - (u @ op @ u + 10.0 ** -draw(st.integers(2, 8))) * np.outer(u, u)
    elif fault == "near_floor":
        w, v = np.linalg.eigh(op)
        ops[i] = op - (w[0] + draw(st.floats(0.99e-10, 1.01e-10))) * np.outer(v[:, 0], v[:, 0])
    elif fault == "shape":
        shape = draw(st.sampled_from([(n + 1, n + 1), (n, n + 1), (n + 1, n), (n,)]))
        ops[i] = np.zeros(shape)
    elif fault == "empty":
        ops = []
    else:
        ops[i] = op * (1 + 10.0 ** -draw(st.integers(1, 5)))
    return ops, fault


def _outcome(build, ops):
    """(exception type, message) of build(ops), or None when it accepts them."""
    try:
        build(ops)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None)
@given(valid_measurements())
def test_valid_measurements_match_reference(case):
    ops, rho = case
    reference = reference_measurement_set(ops)
    mset = MeasurementSet(ops)
    assert [op.tolist() for op in mset] == [op.tolist() for op in reference]
    probs = measure(rho, mset)
    assert probs == pytest.approx(reference_measure(rho, reference), rel=0, abs=1e-14)
    assert all(type(p) is float for p in probs)


@settings(deadline=None)
@given(faulty_measurements())
def test_faulty_measurements_match_reference(case):
    ops, fault = case
    expected = _outcome(reference_measurement_set, ops)
    assert expected is not None or fault == "near_floor"
    assert _outcome(MeasurementSet, ops) == expected


class TestSample:
    def test_certainty(self):
        counts = sample(JspsVector([1.0, 0.0]), seed=7, draws=100)
        assert counts == [100, 0]

    def test_fair_coin_within_binomial_noise(self):
        counts = sample(
            jsps_from_distribution(ExactDistribution([F(1, 2), F(1, 2)])),
            seed=123,
            draws=100_000,
        )
        sigma = math.sqrt(100_000 * 0.25)
        assert sum(counts) == 100_000
        assert abs(counts[0] - 50_000) <= 4 * sigma

    def test_bent_coin_within_binomial_noise(self):
        counts = sample(
            jsps_from_distribution(ExactDistribution([F(2, 3), F(1, 3)])),
            seed=42,
            draws=100_000,
        )
        sigma = math.sqrt(100_000 * 2 / 9)
        assert abs(counts[0] - 66_667) <= 4 * sigma

    def test_deterministic_for_fixed_seed(self):
        psi = jsps_from_distribution(ExactDistribution([F(1, 3), F(1, 3), F(1, 3)]))
        assert sample(psi, 99, 5000) == sample(psi, 99, 5000)
        assert sample(psi, 99, 5000) != sample(psi, 100, 5000)

    def test_draws_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(JspsVector([1.0]), seed=1, draws=0)

    @pytest.mark.parametrize(
        "psi, seed, draws, counts",
        [
            (JspsVector([math.sqrt(0.5)] * 2), 123, 1000, [501, 499]),
            (JspsVector([math.sqrt(2 / 3), math.sqrt(1 / 3)]), 42, 997, [665, 332]),
            (JspsVector([math.sqrt(x) for x in (1 / 6, 1 / 3, 1 / 2)]), 2024, 1, [0, 0, 1]),
            (JspsVector([0.0, 1.0]), 11, 1, [0, 1]),
            (JspsVector([0.6, 0.0, 0.8]), 5, 2000, [723, 0, 1277]),
            (JspsVector([0.0, 0.6, 0.0, 0.8, 0.0]), 17, 3000, [0, 1125, 0, 1875, 0]),
            (
                JspsVector([math.sqrt(1 / 8)] * 8),
                99,
                12345,
                [1546, 1539, 1522, 1495, 1627, 1519, 1504, 1593],
            ),
        ],
    )
    def test_golden_counts(self, psi, seed, draws, counts):
        assert sample(psi, seed, draws) == counts

    def test_draw_on_a_cumulative_bound_counts_for_the_next_outcome(self):
        # Outcome k takes the draws u with c[k-1] <= u < c[k]; a tie between a
        # uniform draw and c[0] is built by making p_0 equal the first draw.
        for seed in range(100):
            u = float(np.random.Generator(np.random.PCG64(seed)).random())
            if math.sqrt(u) ** 2 == u:
                break
        psi = JspsVector([math.sqrt(u), math.sqrt(1 - u)])
        assert psi.probabilities()[0] == u
        assert sample(psi, seed, 1) == reference_sample(psi, seed, 1) == [0, 1]


@st.composite
def state_vectors(draw):
    """Unit vectors from random weights, zero-probability outcomes included."""
    weights = draw(
        st.lists(st.integers(0, 20) | st.floats(0, 1), min_size=1, max_size=12).filter(
            lambda w: sum(w) > 0
        )
    )
    total = math.fsum(weights)
    return JspsVector([math.sqrt(w / total) for w in weights])


@given(state_vectors(), st.integers(0, 2**63 - 1), st.integers(1, 3000))
def test_sample_matches_per_draw_reference(psi, seed, draws):
    assert sample(psi, seed, draws) == reference_sample(psi, seed, draws)


@pytest.mark.parametrize(
    "draws", [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 7]
)
@pytest.mark.parametrize("seed", [0, 17, 2**63 - 1])
def test_sample_across_block_bounds_matches_reference(draws, seed):
    psi = JspsVector([0.0, 0.6, 0.0, 0.8, 0.0])
    counts = sample(psi, seed, draws)
    assert counts == reference_sample(psi, seed, draws)
    assert counts[0] == counts[2] == counts[4] == 0 and sum(counts) == draws


def test_sample_memory_does_not_grow_with_draws():
    psi = JspsVector([math.sqrt(0.5)] * 2)
    tracemalloc.start()
    try:
        counts = sample(psi, 3, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 2_000_000
    assert peak < 4 * 2**20


class TestMatrixText:
    def test_round_trip(self):
        m = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert parse_matrix(format_matrix(m)) == pytest.approx(m)

    def test_parse_example(self):
        parsed = parse_matrix("2\n0.5 0.0\n0.0 0.5\n")
        assert parsed == pytest.approx(np.diag([0.5, 0.5]))

    def test_errors(self):
        with pytest.raises(ValueError, match="size"):
            parse_matrix("x\n1.0\n")
        with pytest.raises(ValueError, match="rows"):
            parse_matrix("2\n0.5 0.5\n")
        with pytest.raises(ValueError, match="entries per row"):
            parse_matrix("2\n0.5\n0.5 0.5\n")

    @pytest.mark.parametrize("size", ["+1", "1_0", "\u0661", "-1", "1.0", "1 1", "0x1"])
    def test_size_is_ascii_digits(self, size):
        with pytest.raises(ValueError, match="malformed matrix size line"):
            parse_matrix(f"{size}\n1.0\n")

    @pytest.mark.parametrize(
        "entry",
        ["+1", "1_0", "\u0661", "nan", "inf", "-inf", "1e400", "-1e999",
         "1e", "e5", ".", "-", "1.0.0", "0x1p0"],
    )
    def test_entry_is_an_ascii_decimal(self, entry):
        # float() takes the first eight of these; 1e400 and -1e999 read as infinities.
        with pytest.raises(ValueError, match="malformed matrix entry"):
            parse_matrix(f"1\n{entry}\n")

    @pytest.mark.parametrize(
        "entry", ["1", "-0.5", ".5", "5.", "1e+16", "2.5E-3", "-0.0", "5e-324"]
    )
    def test_ascii_decimals_parse(self, entry):
        assert parse_matrix(f"1\n{entry}\n")[0, 0] == float(entry)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    def test_every_formatted_matrix_parses(self, values):
        n = math.isqrt(len(values))
        m = np.array(values[: n * n]).reshape(n, n)
        assert np.array_equal(parse_matrix(format_matrix(m)), m)
