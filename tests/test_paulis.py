import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj.paulis import (GAUSSIAN_UNITS, LETTERS, PAULI_MATRICES,
                               PauliString, WeightedPauliSum, decompose_2x2,
                               multiply, multiply_sums, qwc_commutes)

letters_strategy = st.sampled_from(LETTERS)


def strings(num_qubits):
    return st.builds(
        PauliString,
        st.lists(letters_strategy, min_size=num_qubits,
                 max_size=num_qubits).map(tuple),
        st.sampled_from(GAUSSIAN_UNITS))


def test_multiply_xy_is_iz():
    x = PauliString(("X",))
    y = PauliString(("Y",))
    out = multiply(x, y)
    assert out.letters == ("Z",)
    assert out.phase == 1j


def test_multiply_two_qubit_example():
    # positions multiply independently: (I(x)Z) * (Z(x)Z) = Z(x)I
    a = PauliString(("I", "Z"))
    b = PauliString(("Z", "Z"))
    out = multiply(a, b)
    assert out.letters == ("Z", "I")
    assert out.phase == 1


def test_multiply_involution():
    y = PauliString(("Y",))
    out = multiply(y, y)
    assert out.letters == ("I",)
    assert out.phase == 1


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(PauliString(("X",)), PauliString(("X", "X")))


@settings(max_examples=100)
@given(strings(2), strings(2), strings(2))
def test_multiply_associative(a, b, c):
    left = multiply(multiply(a, b), c)
    right = multiply(a, multiply(b, c))
    assert left == right


@settings(max_examples=50)
@given(st.lists(letters_strategy, min_size=1, max_size=4).map(tuple),
       st.sampled_from((1 + 0j, -1 + 0j)))
def test_square_of_hermitian_string_is_identity(letters, phase):
    a = PauliString(letters, phase)
    sq = multiply(a, a)
    assert all(l == "I" for l in sq.letters)
    assert sq.phase in (1 + 0j, -1 + 0j)


@settings(max_examples=100)
@given(strings(2), strings(2))
def test_multiply_matches_dense(a, b):
    dense = a.to_matrix() @ b.to_matrix()
    assert np.allclose(multiply(a, b).to_matrix(), dense, atol=1e-12)


def test_qwc_examples():
    zi = PauliString.from_label("IZ")   # Z on qubit 0
    iz = PauliString.from_label("ZI")   # Z on qubit 1
    xi = PauliString.from_label("IX")
    assert qwc_commutes(zi, iz)
    assert not qwc_commutes(xi, zi)
    assert qwc_commutes(PauliString.identity(2), xi)


@settings(max_examples=100)
@given(strings(3), strings(3))
def test_qwc_implies_dense_commutation(a, b):
    if qwc_commutes(a, b):
        ma, mb = a.to_matrix(), b.to_matrix()
        assert np.allclose(ma @ mb, mb @ ma, atol=1e-12)


def test_phase_must_be_gaussian_unit():
    with pytest.raises(ValueError):
        PauliString(("X",), phase=0.5 + 0.5j)


def test_label_roundtrip():
    p = PauliString.from_label("ZIZY", phase=-1j)
    assert p.letters == ("Y", "Z", "I", "Z")
    assert str(p) == "-i ZIZY"
    assert PauliString.from_label(str(p)) == p


def pauli_matrix(coeffs):
    """The 2x2 matrix sum_m c_m P_m of Pauli coefficients."""
    return sum(c * PAULI_MATRICES[l] for c, l in zip(coeffs, LETTERS))


def test_decompose_identity_and_hadamard():
    ident = decompose_2x2(np.eye(2))
    assert np.allclose(ident, (1, 0, 0, 0), atol=1e-14)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    coeffs = decompose_2x2(h)
    assert np.allclose(coeffs, (0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)),
                       atol=1e-14)


def test_decompose_phase_gate_pi_is_z():
    q = np.diag([1.0, np.exp(1j * np.pi)])
    coeffs = decompose_2x2(q)
    assert np.allclose(coeffs, (0, 0, 0, 1), atol=1e-12)


@settings(max_examples=100)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_decompose_reconstruct_roundtrip(vals):
    m = (np.array(vals[:4]).reshape(2, 2)
         + 1j * np.array(vals[4:]).reshape(2, 2))
    coeffs = decompose_2x2(m)
    assert np.max(np.abs(pauli_matrix(coeffs) - m)) < 1e-12


def test_decompose_roundtrip_random_dense():
    gen = np.random.default_rng(0)
    for _ in range(100):
        m = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        assert np.max(np.abs(pauli_matrix(decompose_2x2(m)) - m)) < 1e-12


def test_decompose_batched_matches_one_by_one():
    gen = np.random.default_rng(1)
    mats = gen.normal(size=(5, 2, 2)) + 1j * gen.normal(size=(5, 2, 2))
    coeffs = decompose_2x2(mats)
    assert coeffs.shape == (5, 4)
    for m, row in zip(mats, coeffs):
        assert np.array_equal(row, decompose_2x2(m))
        assert np.max(np.abs(pauli_matrix(row) - m)) < 1e-12
    with pytest.raises(ValueError):
        decompose_2x2(np.eye(3))


def test_sum_merges_and_drops_tiny_terms():
    z = PauliString(("Z",))
    s = WeightedPauliSum(1, ((1.0, z), (2.0, z), (1e-16, PauliString(("X",)))))
    assert len(s.terms) == 1
    coeff, string = s.terms[0]
    assert coeff == 3.0
    assert string.letters == ("Z",)


def test_sum_folds_phases_into_coefficients():
    s = WeightedPauliSum(1, ((2.0, PauliString(("Y",), phase=1j)),))
    coeff, string = s.terms[0]
    assert string.phase == 1
    assert coeff == 2j


def test_sum_rejects_mixed_qubit_counts():
    with pytest.raises(ValueError):
        WeightedPauliSum(2, ((1.0, PauliString(("X",))),))


def test_sum_json_roundtrip():
    s = WeightedPauliSum(2, (
        (0.5 + 0.25j, PauliString(("X", "Z"))),
        (-1.0, PauliString(("I", "Y"))),
    ))
    again = WeightedPauliSum.from_json(s.to_json())
    assert again == s


def test_multiply_sums_matches_dense():
    gen = np.random.default_rng(5)
    for _ in range(20):
        terms_a = [(complex(gen.normal(), gen.normal()),
                    PauliString(tuple(gen.choice(list(LETTERS), 2))))
                   for _ in range(3)]
        terms_b = [(complex(gen.normal(), gen.normal()),
                    PauliString(tuple(gen.choice(list(LETTERS), 2))))
                   for _ in range(3)]
        a = WeightedPauliSum(2, tuple(terms_a))
        b = WeightedPauliSum(2, tuple(terms_b))
        dense = a.to_matrix() @ b.to_matrix()
        assert np.max(np.abs(multiply_sums(a, b).to_matrix() - dense)) < 1e-10



coefficients = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.tuples(coefficients, coefficients, strings(q)),
                         min_size=1, max_size=12))))
def test_observable_file_roundtrip_property(case):
    q, raw = case
    s = WeightedPauliSum(q, tuple((complex(re, im), string)
                                  for re, im, string in raw))
    again = WeightedPauliSum.from_json(s.to_json(), num_qubits=q)
    assert again == s


@pytest.mark.parametrize("text, message", [
    ('{"coeff_re": 1.0}', "must be a JSON list of terms, got dict"),
    ('"ZZ"', "must be a JSON list of terms, got str"),
    ('[1]', "term 0: need an object"),
    ('[{"coeff_re": 1.0, "string": "+1 ZZ"}]', "term 0: need an object"),
    ('[{"coeff_re": 1, "coeff_im": 0, "string": "ZZ"}, '
     '{"coeff_im": 0, "string": "ZZ"}]', "term 1: need an object"),
    ('[{"coeff_re": NaN, "coeff_im": 0, "string": "ZZ"}]',
     "term 0: coefficients must be finite"),
    ('[{"coeff_re": 1, "coeff_im": Infinity, "string": "ZZ"}]',
     "term 0: coefficients must be finite"),
    ('[{"coeff_re": "1", "coeff_im": 0, "string": "ZZ"}]',
     "term 0: coefficients must be finite"),
    ('[{"coeff_re": true, "coeff_im": 0, "string": "ZZ"}]',
     "term 0: coefficients must be finite"),
    ('[{"coeff_re": 1, "coeff_im": 0, "string": 5}]',
     "term 0: string must be a Pauli label"),
    ('[{"coeff_re": 1, "coeff_im": 0, "string": "+1 QZ"}]',
     "term 0: invalid letters"),
    ('[{"coeff_re": 1, "coeff_im": 0, "string": "+2 ZZ"}]',
     "term 0: unknown phase prefix"),
])
def test_malformed_observable_files_are_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        WeightedPauliSum.from_json(text)
