"""Content fingerprints of the lifting generators, for pinning the generating
families byte for byte.

    python tests/generator_fingerprints.py

prints one line per family, its name and the sha256 of its generators.
"""
import hashlib

from ssw.core import EZ
from ssw.fibration import (
    GeneratorFamily,
    boundary_family,
    edge_horn,
    inner_horn_family,
    outer_anodyne_family,
    outer_horn_family,
    scaled_anodyne_family,
    weak_fibration_family,
)

BOUNDS = range(6)
EDGE_DIMENSIONS = range(2, 6)
ANCHOR = EZ("01", (0, 1))


def families():
    """(label, family) pairs: every family at bounds 0-5, then the three
    edge flavors at n = 2..5 anchored on one edge."""
    for bound in BOUNDS:
        yield f"weak-fibration {bound}", weak_fibration_family(bound)
        yield f"inner-horns {bound}", inner_horn_family(bound)
        yield f"outer-horns {bound}", outer_horn_family(bound)
        yield f"boundaries {bound}", boundary_family(bound)
        yield f"boundaries marked {bound}", boundary_family(bound, marked_generator=True, scaled_generator=False)
        yield f"boundaries both {bound}", boundary_family(bound, marked_generator=True, scaled_generator=True)
        yield f"outer-cartesian-anodyne {bound}", outer_anodyne_family(bound)
        yield f"scaled-anodyne {bound}", scaled_anodyne_family(bound)
    for flavor in ("cartesian", "weak", "strong"):
        for n in EDGE_DIMENSIONS:
            label = f"{flavor}-edge {n}"
            yield label, GeneratorFamily(label, (edge_horn(flavor, n, ANCHOR),), n)


def complex_content(X):
    """Cells, faces and decorations of a marked-scaled complex."""
    return (X.base.cells, sorted(X.base.faces.items()), sorted(X.marked), sorted(X.thin))


def fingerprint(family) -> str:
    """sha256 of a family's name and, per generator, its name, A, B, the
    images of its left map and its top and filler pins."""
    content = [family.name] + [
        (
            g.name,
            complex_content(g.A),
            complex_content(g.B),
            sorted(g.left.images.items()),
            sorted(g.top_pins.items()),
            sorted(g.filler_pins.items()),
        )
        for g in family.generators
    ]
    return hashlib.sha256(repr(content).encode()).hexdigest()


def fingerprints() -> dict[str, str]:
    return {label: fingerprint(family) for label, family in families()}


if __name__ == "__main__":
    for label, digest in fingerprints().items():
        print(f"{label}\t{digest}")
