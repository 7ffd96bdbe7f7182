import pytest

from rcorona import generate


@pytest.fixture(scope="session")
def catalog():
    """Connected catalog graphs used across suites."""
    return {
        "K3": generate("complete", 3),
        "K4": generate("complete", 4),
        "K5": generate("complete", 5),
        "P2": generate("path", 2),
        "P4": generate("path", 4),
        "C4": generate("cycle", 4),
        "C5": generate("cycle", 5),
        "C6": generate("cycle", 6),
        "C8": generate("cycle", 8),
        "K33": generate("complete_bipartite", 3, 3),
        "K13": generate("complete_bipartite", 1, 3),
        "petersen": generate("petersen"),
        "Q3": generate("hypercube", 3),
        "shrikhande": generate("shrikhande"),
        "rook4x4": generate("rook4x4"),
    }


@pytest.fixture(scope="session")
def regular_catalog(catalog):
    return {name: g for name, g in catalog.items() if g.regular_degree is not None}
