"""Matrix products and the Sylvester test against plain-Fraction references.

The references share no code with `lckverify.linalg`: products are dense
sums over Fractions, and leading minors come from the Leibniz formula.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lckverify import constructions, linalg
from lckverify.hermitian import sylvester_positive
from lckverify.scalars import QQ, Scalar, ScalarField

F = ScalarField(("a", "b"))
#: the same variables in another field object: products must land in the
#: field of their left operand
F2 = ScalarField(("a", "b"))
POINT = {"a": Fraction(3, 2), "b": Fraction(-2, 5)}


def sparse_matrix(rng, field, rows, cols, zero_row=None, zero_col=None):
    """Seeded entries, about two thirds zero, with one row and one column
    that are zero throughout when asked."""
    def entry(i, j):
        if i == zero_row or j == zero_col or rng.random() < 2 / 3:
            return field.zero()
        value = field.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if field.vars and rng.random() < 0.5:
            value = value * field.var(rng.choice(field.vars)) + field.one()
        return value
    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def at_point(matrix, point):
    return [[x.eval(point) for x in row] for row in matrix]


def dense_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("field, other, point", [(QQ, QQ, {}), (F, F2, POINT)],
                         ids=["QQ", "Q(a,b)"])
@pytest.mark.parametrize("seed", range(4))
def test_products_match_a_dense_fraction_reference(field, other, point, seed):
    rng = random.Random(f"linalg:{seed}")
    n, m, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    a = sparse_matrix(rng, field, n, m, zero_row=rng.randrange(n),
                      zero_col=rng.randrange(m))
    b = sparse_matrix(rng, other, m, p, zero_row=rng.randrange(m),
                      zero_col=rng.randrange(p))
    v = [row[0] for row in sparse_matrix(rng, other, m, 1)]

    product = linalg.mat_mul(a, b)
    image = linalg.mat_vec(a, v)
    assert at_point(product, point) == dense_product(at_point(a, point), at_point(b, point))
    assert [x.eval(point) for x in image] == \
        [row[0] for row in dense_product(at_point(a, point), [[x.eval(point)] for x in v])]
    # as identities in the parameters, equal to the dense Scalar sum
    zero = field.zero()
    assert product == [[sum((a[i][k] * b[k][j] for k in range(m)), start=zero)
                        for j in range(p)] for i in range(n)]
    assert all(x.field is field for row in product for x in row)
    assert all(x.field is field for x in image)


def leibniz_det(m):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def sylvester_reference(G, assignment):
    """(positive, residual) from the leading minors by the Leibniz formula."""
    values = at_point(G, assignment)
    for k in range(1, len(values) + 1):
        minor = leibniz_det([row[:k] for row in values[:k]])
        if minor <= 0:
            return False, f"minor {k} = {minor}"
    return True, ""


def symmetric(rng, n, rows, negative=False):
    """B^T D B for a seeded integer B with `rows` rows, where D is the
    identity, or has -1 in its last entry when `negative`."""
    B = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rows)]
    D = [1] * (rows - 1) + [-1 if negative else 1]
    return [[QQ.scalar(sum(D[k] * B[k][i] * B[k][j] for k in range(rows)))
             for j in range(n)] for i in range(n)]


def sylvester_cases():
    rng = random.Random("sylvester")
    cases = []
    for n in (2, 3, 4, 5):
        identity = linalg.identity(QQ, n)
        gram = symmetric(rng, n, n)
        cases.append(("definite", [[x + y for x, y in zip(r1, r2)]
                                   for r1, r2 in zip(gram, identity)]))
        cases.append(("semidefinite", symmetric(rng, n, n - 1)))
        cases.append(("indefinite", symmetric(rng, n, n, negative=True)))
    zero_pivot = [[QQ.scalar(x) for x in row] for row in ([1, 1, 0], [1, 1, 2], [0, 2, 5])]
    cases.append(("zero pivot", zero_pivot))
    for x in (3, 0, -2):
        cases.append(("1x1", [[QQ.scalar(x)]]))
    return cases


CASES = sylvester_cases()


@pytest.mark.parametrize("kind, G", CASES, ids=[f"{kind}-{len(G)}" for kind, G in CASES])
def test_sylvester_elimination_matches_leibniz_minors(kind, G):
    got = sylvester_positive(G, {})
    assert got == sylvester_reference(G, {})
    if kind == "definite":
        assert got[0]
    if kind == "zero pivot":
        assert got == (False, "minor 2 = 0")


def test_sylvester_on_a_parametric_matrix():
    G = [[F.parse("a"), F.parse("b")], [F.parse("b"), F.parse("a^2")]]
    for point in ({"a": 2, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 2}, {"a": -1, "b": 0}):
        point = {k: Fraction(v) for k, v in point.items()}
        assert sylvester_positive(G, point) == sylvester_reference(G, point), point


# -- mechanism: zero factors and determinants are skipped -----------------------------------


def test_mat_vec_makes_no_product_with_a_zero_factor(monkeypatch):
    _, s = constructions.ot_algebra(5, [Fraction(k, 2) for k in range(1, 6)])
    P = s.J.P
    v = [QQ.scalar(k % 3) for k in range(len(P))]  # with zeros of its own
    zero_factors = []
    real = Scalar.__mul__

    def counted(x, y):
        if x.is_zero() or (isinstance(y, Scalar) and y.is_zero()):
            zero_factors.append((x, y))
        return real(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    image = linalg.mat_vec(P, v)
    monkeypatch.undo()
    assert image == [sum((row[k] * v[k] for k in range(len(v))), start=QQ.zero())
                     for row in P]
    assert zero_factors == []


def test_positivity_computes_no_determinant(monkeypatch):
    _, s = constructions.ot_algebra(3, [1, 2, 3])
    calls = []
    real = linalg.det
    monkeypatch.setattr(linalg, "det", lambda a: calls.append(len(a)) or real(a))
    positive = sylvester_positive(s.metric, {})
    assert calls == []
    assert positive == (True, "")


def test_mat_eq_compares_shapes():
    assert linalg.mat_eq(linalg.identity(QQ, 2), linalg.identity(QQ, 2))
    assert not linalg.mat_eq(linalg.identity(QQ, 2), linalg.identity(QQ, 3))
    assert not linalg.mat_eq(linalg.identity(QQ, 3), linalg.identity(QQ, 2))
    assert not linalg.mat_eq([[QQ.one(), QQ.zero()]], [[QQ.one(), QQ.zero(), QQ.zero()]])
