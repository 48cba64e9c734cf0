"""Command-line workbench.

Exit codes: 0 all verified, 1 any refuted, 2 any inconclusive, 3 usage or
parse error.  Output is byte-deterministic for fixed inputs and flags, and
verdicts always show their bounds and caps.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .core import EZ, SMap, SSetError
from .decor import MarkedScaled, Scaled
from .tensor import cone, gray_marked_n, join_ms, thick_join

# The lifting engine, documents and json are imported inside the commands that
# use them, so that start-up does not pay for them.
if TYPE_CHECKING:
    from .fibration import Verdict

EXIT_OK, EXIT_REFUTED, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3
# The largest --bound, SSW_DEFAULT_BOUND and --cap; `hom d2_sharp 0 2 --cap 12` took 20 s and 620 MB on a 2-core VM.
MAX_BOUND = 12


class CliError(Exception):
    pass


def check_bound(value: int, source: str) -> int:
    if value < 0:
        raise CliError(f"{source} must be a non-negative integer, got {value}")
    if value > MAX_BOUND:
        raise CliError(f"{source} must be at most {MAX_BOUND}, got {value}")
    return value


def default_bound() -> int:
    """The lifting bound when --bound is absent: SSW_DEFAULT_BOUND, else 4."""
    raw = os.environ.get("SSW_DEFAULT_BOUND", "")
    if not raw:
        return 4
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"SSW_DEFAULT_BOUND must be a non-negative integer, got {raw!r}") from None
    return check_bound(value, "SSW_DEFAULT_BOUND")


def resolve(spec: str) -> MarkedScaled:
    """A catalog name or @path to a complex document."""
    if spec.startswith("@"):
        from .doc import doc_to_complex, read

        return doc_to_complex(read(spec[1:]))
    from .catalog import catalog

    entries = catalog(check_goldens=False)
    if spec not in entries:
        raise CliError(f"unknown object {spec!r} (catalog: {', '.join(sorted(entries))})")
    return entries[spec]


def _scaled_with_vertices(spec: str, *vertices: str) -> Scaled:
    """resolve(spec) as a scaled complex that has the given vertices."""
    S = resolve(spec).scaled()
    for v in vertices:
        if v not in S.base.level(0):
            raise CliError(f"no vertex {v!r} in {spec!r}")
    return S


def _emit_complex(ms: MarkedScaled, fmt: str, name: str | None = None, header: dict | None = None) -> str:
    """The complex as a document or a table; the header's entries become keys
    of the document or "key: value" lines above the table."""
    header = header or {}
    if fmt == "json":
        from .doc import complex_to_doc, serialize

        return serialize({**complex_to_doc(ms, name), **header})
    lines = [f"{key}: {value}" for key, value in header.items()]
    if name:
        lines.append(f"name: {name}")
    lines.append(f"counts: {ms.base.counts()}")
    for n in range(ms.base.dim + 1):
        lines.append(f"cells[{n}]: {' '.join(sorted(ms.base.level(n)))}")
    lines.append(f"marked: {' '.join(sorted(ms.marked)) or '-'}")
    lines.append(f"thin: {' '.join(sorted(ms.thin)) or '-'}")
    return "\n".join(lines) + "\n"


def _verdict_exit(v: Verdict) -> int:
    from .fibration import INCONCLUSIVE, REFUTED, VERIFIED

    return {VERIFIED: EXIT_OK, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE}[v.status]


def _verdict_doc(v: Verdict, **extra) -> dict:
    return {"status": v.status, "bound": v.bound, "evidence": v.evidence, **extra}


def _emit_verdict(v: Verdict, fmt: str, **extra) -> str:
    if fmt == "json":
        import json

        return json.dumps(_verdict_doc(v, **extra), sort_keys=True) + "\n"
    return v.render() + "\n"


def _slice_for(args) -> tuple:
    from .slices import slice_over_vertex

    S = _scaled_with_vertices(args.object, args.vertex)
    sl = slice_over_vertex(S, args.vertex, cap=args.cap)
    return sl, S


def cmd_build(args) -> tuple[int, str]:
    ms = resolve(args.object)
    return EXIT_OK, _emit_complex(ms, args.format, args.object)


def cmd_gray(args) -> tuple[int, str]:
    xs = [resolve(s) for s in args.objects]
    if args.flat:
        xs = [x.scaled().flat_marked() for x in xs]
    g = gray_marked_n(xs)
    out = g.scaled.flat_marked()
    summary = f"triangles: {len(g.scaled.base.level(2))}\nthin: {len(g.scaled.thin)}\n"
    if args.format == "json":
        summary = ""
    return EXIT_OK, summary + _emit_complex(out, args.format)


def cmd_join(args) -> tuple[int, str]:
    X, Y = resolve(args.objects[0]), resolve(args.objects[1])
    j = join_ms(X, Y)
    out = j.scaled.flat_marked()
    return EXIT_OK, _emit_complex(out, args.format)


def cmd_thick_join(args) -> tuple[int, str]:
    X, Y = resolve(args.objects[0]), resolve(args.objects[1])
    tj = thick_join(args.variance, X, Y)
    out = tj.total.flat_marked()
    return EXIT_OK, _emit_complex(out, args.format)


def cmd_cone(args) -> tuple[int, str]:
    K = resolve(args.object)
    c = cone(args.variance, args.side, K)
    return EXIT_OK, _emit_complex(c.ms, args.format)


def cmd_slice(args) -> tuple[int, str]:
    sl, _ = _slice_for(args)
    header = {"provenance": sl.provenance, "saturated": sl.saturated}
    return EXIT_OK, _emit_complex(sl.total, args.format, header=header)


def cmd_hom(args) -> tuple[int, str]:
    from .slices import hom_category

    C = _scaled_with_vertices(args.object, args.source, args.target)
    hom = hom_category(C, args.source, args.target, cap=args.cap)
    header = {"provenance": hom.provenance, "saturated": hom.saturated}
    return EXIT_OK, _emit_complex(hom.total, args.format, header=header)


def _on_slice(v: Verdict, sl, args) -> Verdict:
    """A refutation on a slice the cap cut before saturation, with the bound
    above the cap, may rest only on the cells the cap left out: INCONCLUSIVE."""
    from .fibration import INCONCLUSIVE, REFUTED, Verdict

    if v.status != REFUTED or sl.saturated or args.bound <= args.cap:
        return v
    return Verdict(INCONCLUSIVE, f"slice not saturated at cap {args.cap} < bound {args.bound}: {v.evidence}")


def cmd_classify_edges(args) -> tuple[int, str]:
    from .fibration import classify_edge

    sl, S = _slice_for(args)
    verdicts = {
        e: _on_slice(classify_edge(sl.projection, sl.scaled, S, EZ(e, (0, 1)), args.flavor, args.bound), sl, args)
        for e in sorted(sl.total.base.level(1))
    }
    worst = max((_verdict_exit(v) for v in verdicts.values()), default=EXIT_OK)
    if args.format == "json":
        import json

        return worst, json.dumps({e: _verdict_doc(v) for e, v in verdicts.items()}, sort_keys=True) + "\n"
    return worst, "\n".join(f"{e}: {v.render()}" for e, v in verdicts.items()) + "\n"


def cmd_check_fibration(args) -> tuple[int, str]:
    from .fibration import VERIFIED, is_inner_fibration, is_outer_fibration, is_var_cartesian_fibration, is_weak_fibration

    sl, S = _slice_for(args)
    p = sl.projection
    if args.kind == "weak":
        v = is_weak_fibration(p, sl.scaled, S, args.bound)
    elif args.kind == "inner":
        v = is_inner_fibration(p, sl.scaled, S, args.bound)
    elif args.kind == "outer":
        v = is_outer_fibration(p, sl.scaled, S, args.bound)
    else:  # "outer-cartesian" or "inner-cartesian", the other kinds argparse admits
        variance = "out" if args.kind.startswith("outer") else "inn"
        v, table = is_var_cartesian_fibration(p, sl.scaled, S, variance, False, args.bound)
        v = _on_slice(v, sl, args)
        edges = sorted(table) if v.status == VERIFIED else None
        text = _emit_verdict(v, args.format, cartesian_edges=edges)
        if edges is not None and args.format == "table":
            text += f"cartesian edges: {' '.join(edges) or '-'}\n"
        return _verdict_exit(v), text
    v = _on_slice(v, sl, args)
    return _verdict_exit(v), _emit_verdict(v, args.format)


def cmd_check_bicat(args) -> tuple[int, str]:
    from .fibration import is_infty_bicategory

    X = resolve(args.object).scaled()
    v = is_infty_bicategory(X, args.bound)
    return _verdict_exit(v), _emit_verdict(v, args.format)


def cmd_check_limit_cone(args) -> tuple[int, str]:
    from .fibration import check_limit_cone, empty_cone

    C = _scaled_with_vertices(args.object, args.vertex)
    K, g = empty_cone(C, args.vertex, args.variance)
    v = check_limit_cone(C, K, g, args.variance, cap=args.cap, bound=args.bound)
    return _verdict_exit(v), _emit_verdict(v, args.format)


def _entry(doc: dict, key: str, kind: type = dict, default=None):
    """doc[key] of a certificate document or step, else the default if one is
    given; a missing key or a value not of the given kind is a usage error."""
    if not isinstance(doc, dict):
        raise CliError("a certificate document and its steps must be JSON objects")
    value = doc.get(key, default)
    if value is None:
        raise CliError(f"certificate document has no {key!r} entry")
    if not isinstance(value, kind):
        raise CliError(f"certificate entry {key!r} must be a {kind.__name__}")
    return value


def cmd_check_certificate(args) -> tuple[int, str]:
    from .doc import doc_to_complex, ez_from_doc, read
    from .fibration import CertificateStep, certificate_check, rescale_generator

    doc = read(args.file)
    start = doc_to_complex(_entry(doc, "start"))
    claimed = doc_to_complex(_entry(doc, "claimed"))
    steps = []
    for raw in _entry(doc, "steps", list, default=[]):
        if _entry(raw, "kind", str, default="") != "rescale":
            raise CliError("only rescale certificate steps are supported in documents")
        A = doc_to_complex(_entry(raw, "from"))
        B = doc_to_complex(_entry(raw, "to"))
        gen = rescale_generator(raw.get("name", "step"), A, B)
        images = {
            x: ez_from_doc(e, f"attach image of {x!r}") for x, e in _entry(raw, "attach").items()
        }
        attach = SMap(A.base, start.base, images)
        attach._validate()
        steps.append(CertificateStep(gen, attach))
    v = certificate_check(start, steps, claimed)
    return _verdict_exit(v), _emit_verdict(v, args.format)


def cmd_suite(args) -> tuple[int, str]:
    from .suite import CRITERIA, run_suite

    known = [number for number, _, _ in CRITERIA]
    unknown = sorted(set(args.only or ()) - set(known))
    if unknown:
        raise CliError(f"unknown criterion {unknown[0]} (criteria are {known[0]} to {known[-1]})")
    numbers = set(args.only) if args.only else None
    results = run_suite(numbers)
    lines = [r.line() for r in results]
    ok = all(r.ok for r in results)
    lines.append(f"suite: {'PASS' if ok else 'FAIL'} ({sum(r.ok for r in results)}/{len(results)})")
    return (EXIT_OK if ok else EXIT_REFUTED), "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssw", description="workbench for marked and scaled simplicial sets"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cap=False, bound=False):
        p.add_argument("--format", choices=("table", "json"), default="table")
        if cap:
            p.add_argument("--cap", type=int, default=3)
        if bound:
            p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("build", help="print a catalog object")
    p.add_argument("object")
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("gray", help="Gray product of decorated objects")
    p.add_argument("objects", nargs="+")
    p.add_argument("--flat", action="store_true", help="ignore markings")
    common(p)
    p.set_defaults(fn=cmd_gray)

    p = sub.add_parser("join", help="decorated join")
    p.add_argument("objects", nargs=2)
    common(p)
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("thick-join", help="inner or outer thick join")
    p.add_argument("variance", choices=("inn", "out"))
    p.add_argument("objects", nargs=2)
    common(p)
    p.set_defaults(fn=cmd_thick_join)

    p = sub.add_parser("cone", help="marked cone on an object")
    p.add_argument("variance", choices=("inn", "out"))
    p.add_argument("side", choices=("left", "right"))
    p.add_argument("object")
    common(p)
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("slice", help="slice over a vertex")
    p.add_argument("object")
    p.add_argument("vertex")
    common(p, cap=True)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("hom", help="mapping category between two vertices")
    p.add_argument("object")
    p.add_argument("source")
    p.add_argument("target")
    common(p, cap=True)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("classify-edges", help="classify slice edges")
    p.add_argument("object")
    p.add_argument("vertex")
    p.add_argument("--flavor", default="cartesian",
                   choices=("cartesian", "weak", "strong", "cocartesian", "weak_co", "strong_co"))
    common(p, cap=True, bound=True)
    p.set_defaults(fn=cmd_classify_edges)

    p = sub.add_parser("check-fibration", help="fibration predicates for a slice projection")
    p.add_argument("--kind", required=True,
                   choices=("weak", "inner", "outer", "outer-cartesian", "inner-cartesian"))
    p.add_argument("object")
    p.add_argument("vertex")
    common(p, cap=True, bound=True)
    p.set_defaults(fn=cmd_check_fibration)

    p = sub.add_parser("check-bicat", help="extension property against scaled anodyne maps")
    p.add_argument("object")
    common(p, bound=True)
    p.set_defaults(fn=cmd_check_bicat)

    p = sub.add_parser("check-limit-cone", help="empty-diagram limit cone at a vertex")
    p.add_argument("object")
    p.add_argument("vertex")
    p.add_argument("--variance", choices=("inn", "out"), default="inn")
    common(p, cap=True, bound=True)
    p.set_defaults(fn=cmd_check_limit_cone)

    p = sub.add_parser("check-certificate", help="replay a pushout certificate document")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check_certificate)

    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--only", type=int, nargs="*", help="criterion numbers")
    p.set_defaults(fn=cmd_suite)

    return ap


def run_command(argv) -> tuple[int, str]:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE, "usage error\n"
    try:
        if hasattr(args, "bound"):
            args.bound = default_bound() if args.bound is None else check_bound(args.bound, "--bound")
        if hasattr(args, "cap"):
            check_bound(args.cap, "--cap")
        return args.fn(args)
    except (CliError, SSetError, OSError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
