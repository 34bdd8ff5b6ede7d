"""References shared by more than one test module, as fixtures: the test
modules are not a package and do not import each other."""

import itertools
import operator

import pytest


@pytest.fixture(scope="session")
def reference_tree():
    """The tree whose ``json.dumps(indent=2)`` text ``algebra.poly_to_json``
    writes: one dict per term, terms sorted descending in the order."""

    def tree(f, order) -> dict:
        monos = sorted(f.terms, key=order.key, reverse=True)
        return {
            "n": f.n,
            "terms": [{"exps": list(m), "coeff": str(f.terms[m])} for m in monos],
        }

    return tree


@pytest.fixture(scope="session")
def assert_antichain():
    """Asserts that no generator repeats or divides another, by plain
    exponent comparison; a divisor of b other than b has lower degree, so
    each pair is tested once, the lower degree first."""

    def check(gens, case) -> None:
        assert len(set(gens)) == len(gens), case
        for a, b in itertools.combinations(sorted(gens, key=sum), 2):
            assert not all(map(operator.le, a, b)), (case, a, b)

    return check
