"""References shared by more than one test module, as fixtures: the test
modules are not a package and do not import each other."""

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
