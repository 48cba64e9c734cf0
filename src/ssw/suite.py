"""The acceptance suite: every criterion as a runnable check with a verdict line.

The CLI `suite` command and tests/test_acceptance.py share this module.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (
    EZ,
    SMap,
    constant_map,
    identity_map,
    opposite_map,
    product,
    simplex_map,
    standard_simplex,
)
from .decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    decorate,
    decorated_isomorphisms,
    scale,
)
from .fibration import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    check_limit_cone,
    classify_edge,
    cocar_witness_check,
    empty_cone,
    has_outer_anodyne_rlp,
    is_P_fibered,
    is_var_cartesian_fibration,
    is_weak_fibration,
    is_outer_fibration,
    lax_lift_filtration,
    locally_cocartesian_edges,
    q_complex,
    weak_cartesian_via_slice,
)
from .ops import idop
from .slices import (
    fiber_ms,
    fun_coc_subcat,
    fun_space,
    slice_over_vertex,
    thick_slice_over_vertex,
)
from .tensor import (
    flat_ms,
    gray_marked_n,
    gray_scaled,
    gray_variant_scalings,
    interval_sharp,
    join_eq_homotopies,
    join_eq_witnesses,
    marked_variants_witness,
)


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d} [{mark}] {self.title}: {self.detail}"


def _c1_gray_example():
    g = gray_scaled(scale(standard_simplex(1)), scale(standard_simplex(1)))
    P = g.scaled.base
    tris = P.level(2)
    if len(tris) != 2 or len(g.scaled.thin) != 1:
        return False, f"expected 2 triangles with 1 thin, got {len(tris)}/{len(g.scaled.thin)}"
    thin_cell = next(iter(g.scaled.thin))
    mid = P.vertices_of(EZ(thin_cell, idop(2)))[1]
    if mid != "(1,0)":
        return False, f"the thin triangle passes through {mid}, not (1,0)"
    for pair in (
        (interval_sharp(), flat_ms(1)),
        (flat_ms(1), interval_sharp()),
        (interval_sharp(), interval_sharp()),
    ):
        gm = gray_marked_n(list(pair))
        if len(gm.scaled.thin) != 2:
            return False, "a sharp-marked variant does not have both triangles thin"
    return True, "oplax square has one thin triangle; sharp variants have both"


def _c2_variant_scalings():
    d1, d2 = standard_simplex(1), standard_simplex(2)
    d1_decs = [decorate(d1, m, s) for m in (FLAT, SHARP) for s in (FLAT, SHARP)]
    d2_decs = [decorate(d2, m, s) for m in (FLAT, SHARP) for s in (FLAT, SHARP)]
    pairs = [(X, Y) for X in d1_decs for Y in d1_decs]
    pairs += [(X, flat_ms(1)) for X in d2_decs]
    witnesses = 0
    for X, Y in pairs:
        v = gray_variant_scalings(X, Y)
        if not (v.minus.thin <= v.gr.thin <= v.plus.thin):
            return False, "scaling chain is not nested"
        for t in sorted(v.plus.thin - v.gr.thin):
            w = marked_variants_witness(v, X, Y, t, "plus")
            if not w.ok:
                return False, f"plus-witness fails at {t!r}"
            witnesses += 1
        for t in sorted(v.gr.thin - v.minus.thin):
            w = marked_variants_witness(v, X, Y, t, "gr")
            if not w.ok:
                return False, f"gr-witness fails at {t!r}"
            witnesses += 1
    return True, f"chain nested on {len(pairs)} pairs; {witnesses} witnesses verified"


def _c3_join_comparison():
    checked = 0
    for p in range(3):
        for q in range(3):
            data, order = join_eq_witnesses(p, q)
            cmp = data.cmp  # compare_r at cap 6: thin-preservation checked inside
            J = cmp.join.scaled.base
            for n in range(5):
                hit = {cmp.r(pair) for pair in cmp.tj.total.base.simplices(n)}
                if set(J.simplices(n)) - hit:
                    return False, f"comparison not surjective on {n}-simplices at ({p},{q})"
            if {w.sigma for w in order} != set(data.Tprime - data.T):
                return False, f"witnesses incomplete at ({p},{q})"
            report = join_eq_homotopies(p, q)
            if not report.ok:
                return False, f"homotopy verification fails at ({p},{q})"
            checked += 1
    return True, f"comparison, witnesses and homotopies verified on {checked} pairs"


def _catalog_slice_bases():
    Q = q_complex()
    return [
        ("d1_sharp", scale(standard_simplex(1), SHARP)),
        ("d2_sharp", scale(standard_simplex(2), SHARP)),
        ("q_sharp", Scaled(Q, frozenset(Q.level(2)))),
    ]


def _c4_slice_fibrations(bound: int = 4):
    good, bad = [], []
    for name, C in _catalog_slice_bases():
        for x in sorted(C.base.level(0)):
            sl = slice_over_vertex(C, x, cap=bound)
            verdict, table = is_var_cartesian_fibration(
                sl.projection, sl.scaled, C, "out", co=False, bound=bound
            )
            if verdict.status != VERIFIED:
                bad.append(f"slice({name},{x}): {verdict.status}")
            elif table != sl.total.marked:
                bad.append(f"slice({name},{x}): cartesian table differs from marking")
            else:
                good.append(f"slice({name},{x})")
    if bad:
        return False, (
            f"{', '.join(good)} verified at bound {bound}, but {', '.join(bad)} "
            "(the Q member cannot pass: Q with full scaling is not an "
            "infinity-bicategory, so its slices are not weak fibrations)"
        )
    return True, f"outer cartesian at bound {bound} with marked tables: {', '.join(good)}"


def _c5_outer_anodyne(bound: int = 4):
    good, bad = [], []
    for name, C in _catalog_slice_bases():
        for x in sorted(C.base.level(0)):
            sl = slice_over_vertex(C, x, cap=bound)
            v = has_outer_anodyne_rlp(sl.projection, sl.total, C, bound=bound)
            if v.status != VERIFIED:
                bad.append(f"slice({name},{x}): {v.status}")
            else:
                good.append(f"slice({name},{x})")
    C = scale(standard_simplex(2), SHARP)
    sl = slice_over_vertex(C, "2", cap=3)
    corrupted = MarkedScaled(sl.total.base, frozenset(), sl.total.thin)
    v = has_outer_anodyne_rlp(sl.projection, corrupted, C, bound=2)
    if v.status != REFUTED:
        bad.append("corrupted marking was not refuted")
    if bad:
        return False, (
            f"{', '.join(good)} verified at bound {bound}, but {', '.join(bad)} "
            "(the Q member cannot pass for the same reason as criterion 4)"
        )
    return True, f"all six families verified at bound {bound}; corrupted marking refuted"


def _c6_fibered_equivalence(bound: int = 3):
    cases = []
    d1 = standard_simplex(1)
    cases.append(("identity over flat interval", identity_map(d1), Scaled(d1)))
    P, pr1, pr2 = product(d1, d1)
    cases.append(("product projection", pr2, Scaled(d1)))
    C = scale(standard_simplex(1), SHARP)
    under = thick_slice_over_vertex(C, "0", "inn", cap=3, side="under")
    cases.append(("inner slice projection", under.projection, C))
    for name, p, S in cases:
        good = locally_cocartesian_edges(p, S, bound=bound)
        X = MarkedScaled(p.source, good, frozenset())
        fibered = is_P_fibered(p, X, S, bound=bound)
        thinX = frozenset(t for t in p.source.level(2) if S.is_thin(p(EZ(t, idop(2)))))
        inner, table = is_var_cartesian_fibration(
            p, Scaled(p.source, thinX), S, "inn", co=True, bound=bound
        )
        if fibered.status != inner.status:
            return False, f"{name}: predicates disagree ({fibered.status} vs {inner.status})"
        if inner.status == VERIFIED and table != good:
            return False, f"{name}: cocartesian table differs from locally cocartesian edges"
    return True, f"both predicates agree on {len(cases)} fibrations at bound {bound}"


def _c7_edge_taxonomy(bound: int = 4):
    cases = []
    pt = Scaled(standard_simplex(0))
    for n in (1, 2):
        C = scale(standard_simplex(n), SHARP)
        cases.append((f"d{n}_sharp->pt", constant_map(C.base, pt.base, "0"), C, pt))
    for n, x in ((1, "1"), (2, "2")):
        C = scale(standard_simplex(n), SHARP)
        sl = slice_over_vertex(C, x, cap=3)
        cases.append((f"slice(d{n}_sharp,{x})", sl.projection, sl.scaled, C))
    checked = 0
    for name, p, X, Y in cases:
        wf = is_weak_fibration(p, X, Y, bound=3)
        if wf.status != VERIFIED:
            return False, f"{name} is not a weak fibration"
        outer = is_outer_fibration(p, X, Y, bound=3).status == VERIFIED
        for e in sorted(X.base.level(1)):
            pair = EZ(e, (0, 1))
            verdicts = {
                fl: classify_edge(p, X, Y, pair, fl, bound=bound).status
                for fl in ("strong", "cartesian", "weak")
            }
            if verdicts["strong"] == VERIFIED and verdicts["cartesian"] != VERIFIED:
                return False, f"{name}:{e}: strong without cartesian"
            if verdicts["cartesian"] == VERIFIED and verdicts["weak"] != VERIFIED:
                return False, f"{name}:{e}: cartesian without weak"
            if outer and len(set(verdicts.values())) != 1:
                return False, f"{name}:{e}: outer fibration flavors disagree: {verdicts}"
            via = weak_cartesian_via_slice(p, X, Y, pair, cap=2)
            if via.status != verdicts["weak"]:
                return False, f"{name}:{e}: slice criterion disagrees with lifting"
            dual = classify_edge(
                opposite_map(p), X.op(), Y.op(), pair, "cocartesian", bound=bound
            )
            if dual.status != verdicts["cartesian"]:
                return False, f"{name}:{e}: op-duality fails"
            checked += 1
    return True, f"taxonomy coherent on {checked} edges over {len(cases)} fibrations"


def _c8_filtration_and_witness():
    for n in range(4):
        steps = lax_lift_filtration(n)
        if not all(s.pushout_ok and s.scaling_ok for s in steps):
            return False, f"filtration fails at n={n}"
    if cocar_witness_check().status != VERIFIED:
        return False, "cocartesian witness fails"
    if cocar_witness_check(use_opposite=True).status != VERIFIED:
        return False, "opposite-transported witness fails"
    if cocar_witness_check(perturb=True).status != REFUTED:
        return False, "perturbed witness was not refuted"
    return True, "filtration verified for n <= 3; witness, opposite and negative control pass"


def _c9_fiber_isomorphism(cap: int = 2):
    C = scale(standard_simplex(2), SHARP)
    K = flat_ms(1)
    # the diagram f: the edge 12 of the sharp triangle
    f = simplex_map(C.base, EZ("12", (0, 1)))
    # left side: fibers over constant diagrams of the outer thick slice of the
    # Gray functor space at f
    S = fun_space(K, C, "gray_left", cap=cap + 1)

    def find_vertex(target: SMap) -> str:
        for c in S.total.base.level(0):
            if S.cell_maps[c].images == target.images:
                return c
        raise RuntimeError("vertex not found in the functor space")

    g0 = S.shape.object(0).data
    proj_k = g0.projections[1]
    f_images = {c: f(proj_k.images[c]) for c in g0.scaled.base.dim_of}
    fv = find_vertex(SMap(g0.scaled.base, C.base, f_images, validate=False))
    lhs_slice = thick_slice_over_vertex(S.scaled, fv, "out", cap=cap)
    summaries = []
    for x in sorted(C.base.level(0)):
        x_images = {
            c: EZ(x, tuple(0 for _ in range(g0.scaled.base.dim_of[c] + 1)))
            for c in g0.scaled.base.dim_of
        }
        xv = find_vertex(SMap(g0.scaled.base, C.base, x_images, validate=False))
        lhs, _ = fiber_ms(lhs_slice.total, lhs_slice.projection, xv)
        # right side: cocartesian-edge-respecting functors into the inner coslice
        under = thick_slice_over_vertex(C, x, "inn", cap=cap + 1, side="under")
        q = under.projection
        verdict, good = is_var_cartesian_fibration(q, under.scaled, C, "inn", co=True, bound=3)
        if verdict.status != VERIFIED:
            return False, f"inner coslice at {x!r} is not an inner cocartesian fibration"
        rhs = fun_coc_subcat(K, q, under.scaled, f, good, cap=cap)
        if lhs.base.counts() != rhs.total.base.counts():
            return False, (
                f"at {x!r}: simplex counts differ: "
                f"{lhs.base.counts()} vs {rhs.total.base.counts()}"
            )
        left_cmp = MarkedScaled(lhs.base, lhs.marked, frozenset())
        right_cmp = MarkedScaled(rhs.total.base, rhs.total.marked, frozenset())
        if lhs.base.counts() != () and not decorated_isomorphisms(left_cmp, right_cmp):
            return False, f"at {x!r}: sides are not isomorphic as marked objects"
        if set(lhs.thin) != set(lhs.base.level(2)):
            return False, f"at {x!r}: left fiber has a non-thin triangle"
        summaries.append(f"{x}:{lhs.base.counts() or '()'}")
    return True, f"sides isomorphic at cap {cap} over every object ({'; '.join(summaries)})"


def _c10_limits(cap: int = 4):
    for n in (1, 2):
        C = scale(standard_simplex(n), SHARP)
        K, g = empty_cone(C, str(n), "inn")
        v = check_limit_cone(C, K, g, "inn", cap=cap, bound=3)
        if v.status != VERIFIED:
            return False, f"final vertex of d{n}_sharp not verified: {v.render()}"
    C = scale(standard_simplex(1), SHARP)
    K, g = empty_cone(C, "0", "inn")
    v = check_limit_cone(C, K, g, "inn", cap=cap, bound=3)
    if v.status != REFUTED:
        return False, "vertex 0 of the interval was not refuted"
    from .catalog import j_truncated

    J3 = j_truncated(3)
    CJ = Scaled(J3, frozenset(J3.level(2)))
    K, g = empty_cone(CJ, "1", "inn")
    v = check_limit_cone(CJ, K, g, "inn", cap=2, bound=2)
    if v.status != INCONCLUSIVE:
        return False, f"truncated input did not come out inconclusive: {v.render()}"
    return True, "VERIFIED at the final vertices, REFUTED at 0, INCONCLUSIVE on truncated input"


def _c11_infrastructure():
    from .catalog import catalog
    from .doc import complex_to_doc, doc_to_complex, parse, serialize

    entries = catalog(check_goldens=True)
    for name, ms in sorted(entries.items()):
        text = serialize(complex_to_doc(ms, name))
        again = serialize(complex_to_doc(doc_to_complex(parse(text)), name))
        if text != again:
            return False, f"document for {name!r} does not round-trip"
    from .cli import run_command

    code1, out1 = run_command(["gray", "--flat", "d1", "d1"])
    code2, out2 = run_command(["gray", "--flat", "d1", "d1"])
    if out1 != out2 or code1 != 0:
        return False, "CLI output is not deterministic"
    code, _ = run_command(["check-bicat", "d2_flat", "--bound", "2"])
    if code != 1:
        return False, "REFUTED exit code is not 1"
    first = [(r.ok, r.detail) for r in run_suite([1, 2])]
    second = [(r.ok, r.detail) for r in run_suite([1, 2])]
    if first != second:
        return False, "suite output differs between consecutive runs"
    return True, f"{len(entries)} catalog entries round-trip; CLI and suite deterministic with correct exit codes"


CRITERIA = [
    (1, "Gray oplax square and sharp variants", _c1_gray_example),
    (2, "variant scalings with prescribed witnesses", _c2_variant_scalings),
    (3, "thick-to-ordinary join comparison", _c3_join_comparison),
    (4, "slice projections are outer cartesian", _c4_slice_fibrations),
    (5, "outer anodyne characterization", _c5_outer_anodyne),
    (6, "fibered objects match inner cocartesian fibrations", _c6_fibered_equivalence),
    (7, "cartesian edge taxonomy", _c7_edge_taxonomy),
    (8, "lax-lift filtration and cocartesian witness", _c8_filtration_and_witness),
    (9, "lax transformation fiber isomorphism", _c9_fiber_isomorphism),
    (10, "limit cones: all three verdicts", _c10_limits),
    (11, "infrastructure, documents and determinism", _c11_infrastructure),
]


def run_suite(numbers=None) -> list:
    out = []
    for number, title, fn in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"error: {exc}"
        out.append(CriterionResult(number, title, ok, detail, time.perf_counter() - t0))
    return out
