import pickle

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


# --- the array form ---------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.tuples(coefficients, coefficients, strings(q)),
                         max_size=12))))
def test_terms_and_arrays_round_trip(case):
    q, raw = case
    s = WeightedPauliSum(q, tuple((complex(re, im), string)
                                  for re, im, string in raw))
    assert s.codes.shape == (len(s), q) and s.codes.dtype == np.int8
    assert s.coeffs.shape == (len(s),) and s.coeffs.dtype == complex
    assert WeightedPauliSum.from_arrays(q, s.codes, s.coeffs) == s
    assert WeightedPauliSum(q, s.terms) == s
    assert [c for c, _ in s.terms] == s.coeffs.tolist()
    assert [[LETTERS.index(x) for x in t.letters] for _, t in s.terms] \
        == s.codes.tolist()
    # key order is the order of the sorted letter tuples
    letters = [t.letters for _, t in s.terms]
    assert letters == sorted(set(letters))


def test_from_arrays_merges_and_orders_like_the_constructor():
    codes = [[3, 0], [1, 2], [3, 0], [0, 0]]
    s = WeightedPauliSum.from_arrays(2, codes, [1.0, 2j, 0.5, 1e-15])
    assert s.codes.tolist() == [[1, 2], [3, 0]]
    assert s.coeffs.tolist() == [2j, 1.5]
    assert s == WeightedPauliSum(2, (
        (1.0, PauliString(("Z", "I"))), (2j, PauliString(("X", "Y"))),
        (0.5, PauliString(("Z", "I"))), (1e-15, PauliString.identity(2))))


def test_sum_equality_compares_the_arrays():
    z, x = PauliString(("Z",)), PauliString(("X",))
    s = WeightedPauliSum(1, ((1.0, z),))
    assert s == WeightedPauliSum(1, ((0.5, z), (0.5, z)))
    assert hash(s) == hash(WeightedPauliSum(1, ((0.5, z), (0.5, z))))
    assert s != WeightedPauliSum(1, ((1.0 + 1e-9, z),))
    assert s != WeightedPauliSum(1, ((1.0, x),))
    assert s != WeightedPauliSum(2, ((1.0, PauliString(("Z", "I"))),))
    assert WeightedPauliSum(3) == WeightedPauliSum(3, ())
    assert s != "Z"


def test_sum_arrays_are_read_only():
    s = WeightedPauliSum(2, ((1.0, PauliString(("X", "Z"))),))
    with pytest.raises(ValueError):
        s.codes[0, 0] = 3
    with pytest.raises(ValueError):
        s.coeffs[0] = 2.0
    with pytest.raises(AttributeError):
        s.coeffs = np.zeros(1)
    assert s.terms is s.terms
    source = np.array([[1, 3]], dtype=np.int8)
    t = WeightedPauliSum.from_arrays(2, source, [1.0])
    source[0, 0] = 0
    assert t.codes.tolist() == [[1, 3]]


def test_sums_pickle():
    s = WeightedPauliSum(2, ((0.5 - 1j, PauliString(("X", "Y"))),
                             (2.0, PauliString(("I", "Z")))))
    assert pickle.loads(pickle.dumps(s)) == s


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"),
                                   complex(1, float("-inf")),
                                   complex(float("nan"), 0)])
def test_non_finite_coefficients_are_rejected(coeff):
    z = PauliString(("Z", "I"))
    terms = ((1.0, PauliString.identity(2)), (coeff, z))
    with pytest.raises(ValueError, match=r"term 1 \(\+1 IZ\): coefficient "
                                         "must be finite"):
        WeightedPauliSum(2, terms)
    with pytest.raises(ValueError, match="term 1 .*must be finite"):
        WeightedPauliSum.from_arrays(2, [[0, 0], [3, 0]], [1.0, coeff])
    big = WeightedPauliSum(2, ((1e300, z),))
    with pytest.raises(ValueError, match=r"term 0 \(\+1 II\): coefficient "
                                         "must be finite"):
        multiply_sums(big, big)


@pytest.mark.parametrize("q, codes, coeffs, message", [
    (2, [[0, 1]], [1.0, 2.0], "need \\(2, 2\\) letter codes"),
    (2, [[0, 1, 2]], [1.0], "need \\(1, 2\\) letter codes"),
    (2, [[0, 4]], [1.0], "letter codes must be integers in 0..3"),
    (2, [[-1, 0]], [1.0], "letter codes must be integers in 0..3"),
    (2, [[0.5, 1]], [1.0], "letter codes must be integers in 0..3"),
    (0, np.zeros((0, 0)), [], "num_qubits must lie in 1..31"),
    (32, np.zeros((1, 32), dtype=int), [1.0],
     "num_qubits must lie in 1..31"),
])
def test_malformed_arrays_are_rejected(q, codes, coeffs, message):
    with pytest.raises(ValueError, match=message):
        WeightedPauliSum.from_arrays(q, codes, coeffs)


def test_sum_products_match_python_complex_products():
    gen = np.random.default_rng(8)
    s = WeightedPauliSum(3, tuple(
        (complex(*gen.normal(size=2)),
         PauliString(tuple(gen.choice(list(LETTERS), 3))))
        for _ in range(20)))
    for factor in (0.7, -1.3, 0.3 - 2.1j, 1j):
        product = multiply_sums(WeightedPauliSum.identity(3, factor), s)
        assert [c for c, _ in product.terms] \
            == [factor * c for c, _ in s.terms]


def test_magnitudes_equal_python_abs():
    gen = np.random.default_rng(12)
    s = WeightedPauliSum(4, tuple(
        (complex(*gen.normal(size=2) * 10.0 ** gen.integers(-12, 12, 2)),
         PauliString(tuple(gen.choice(list(LETTERS), 4))))
        for _ in range(200)))
    assert s.magnitudes().tolist() == [abs(c) for c, _ in s.terms]


# --- dense matrices against the Kronecker-product reference ----------------

def reference_string_matrix(string):
    """``PauliString.to_matrix`` as it ran before the bit-mask form: a
    Kronecker product of the letters, qubit q-1 first, times the phase."""
    m = np.array([[string.phase]], dtype=complex)
    for letter in reversed(string.letters):
        m = np.kron(m, PAULI_MATRICES[letter])
    return m


def reference_sum_matrix(obs):
    """``WeightedPauliSum.to_matrix`` as a sum of Kronecker products."""
    dim = 2 ** obs.num_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, string in obs.terms:
        m += coeff * reference_string_matrix(string)
    return m


def dense_test_sums(q, gen):
    """The empty sum, the identity, a Y-only sum, two single strings and
    two random sums, all with complex coefficients."""
    yield WeightedPauliSum(q)
    yield WeightedPauliSum.identity(q, 0.5 - 2j)
    yield WeightedPauliSum(q, [(complex(*gen.normal(size=2)),
                                PauliString.single(q, j, "Y"))
                               for j in range(q)]
                           + [(1.5j, PauliString(("Y",) * q))])
    for size in (1, 1, 5, 40):
        yield WeightedPauliSum.from_arrays(
            q, gen.integers(0, 4, size=(size, q)),
            gen.normal(size=size) + 1j * gen.normal(size=size))


@pytest.mark.parametrize("q", range(1, 7))
def test_to_matrix_matches_the_kronecker_reference(q):
    gen = np.random.default_rng(40 + q)
    for obs in dense_test_sums(q, gen):
        got, want = obs.to_matrix(), reference_sum_matrix(obs)
        assert np.abs(got - want).max(initial=0) <= 1e-12
        if len(obs) == 1:
            assert got.tobytes() == want.tobytes()
    for phase in GAUSSIAN_UNITS:
        string = PauliString(tuple(gen.choice(list(LETTERS), q)), phase)
        # equal values; the Kronecker product also leaves some -0.0 parts
        assert np.array_equal(string.to_matrix(),
                              reference_string_matrix(string))


@pytest.mark.parametrize("q", range(2, 7))
def test_total_spin_matrices_are_the_kronecker_sums(q):
    from shadowproj.projectors import total_spin_matrices
    dim = 2 ** q
    comps = []
    for letter in "XYZ":
        total = np.zeros((dim, dim), dtype=complex)
        for j in range(q):
            total += reference_string_matrix(PauliString.single(q, j, letter))
        comps.append(total / 2)
    s_sq, s_z = total_spin_matrices(q)
    assert s_z.tobytes() == comps[2].tobytes()
    assert s_sq.tobytes() == sum(c @ c for c in comps).tobytes()
