"""Command-line surface: fixture checking, theory constructions, homology
and cohomology runs, classical oracles, spectral pages, and the
reproducible acceptance suite.

Exit codes: 0 success, 1 computation failure (named check), 2 usage
error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebras import AlgebraError, BudgetExhausted, NotFiniteWithinBound
from .beck import XModule
from .dsl import DslSyntaxError, parse_file, parse_theory, print_theory
from .fixtures import (
    FixtureError,
    builtin_theory,
    declared_theory,
    load_algebra,
    load_module,
    load_sres,
    load_xmodule,
)
from .rings import CoefficientModule, Ring, RingDescriptorError, parse_ring
from .simplicial import SimplicialIdentityError, SimplicialTheta
from .theories import (
    TheoryError,
    abelianization_theory,
    comma_theory,
    module_theory,
    product_theory,
)


class UsageError(Exception):
    """A command-line option whose value names no valid input."""


def _degree(text):
    """The value of a degree bound (--max-degree, --range, --smax,
    --tmax): an integer >= 0, else a usage error (exit 2) that names the
    flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, not {text!r}")
    return value


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="aq",
        description="Andre-Quillen (co)homology of algebras over "
                    "finitely presented theories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a fixture file")
    p_check.add_argument("path")
    p_check.add_argument("--range", type=_degree, default=1,
                         help="certificate range for .sres fixtures")
    p_check.add_argument("--json", dest="json_path")

    p_theory = sub.add_parser("theory", help="derived theory constructions")
    p_theory.add_argument("construction",
                          choices=["abelianize", "comma", "module", "product"])
    p_theory.add_argument("--theory", required=True,
                          help="builtin name (gp, ab, mod:...) or .thy path")
    p_theory.add_argument("--algebra", help=".alg path (comma/module)")
    p_theory.add_argument("--phi", help="builtin name or .thy path (product)")
    p_theory.add_argument("--json", dest="json_path")

    for name in ("cohomology", "homology"):
        pp = sub.add_parser(name)
        pp.add_argument("--theory", required=True)
        pp.add_argument("--algebra", required=True)
        pp.add_argument("--over", help=".alg path (defaults to the algebra)")
        pp.add_argument("--coeffs", help=".xmod path or moduli like 2,4")
        pp.add_argument("--max-degree", type=_degree, default=1)
        pp.add_argument("--method", choices=["cochain", "em", "both"],
                        default="cochain")
        pp.add_argument("--resolution", help="user-supplied .sres path")
        pp.add_argument("--classical-indexing", action="store_true")
        pp.add_argument("--json", dest="json_path")

    p_oracle = sub.add_parser("oracle", help="independent classical oracles")
    p_oracle.add_argument("kind", choices=["bar", "factor-set", "ext", "tor"])
    p_oracle.add_argument("--group", help=".alg path (bar/factor-set)")
    p_oracle.add_argument("--coeffs", help=".xmod path or moduli")
    p_oracle.add_argument("--ring", help="the --module's ring (ext/tor)")
    p_oracle.add_argument("--module", help=".alg presentation path (ext/tor)")
    p_oracle.add_argument("--max-degree", type=_degree, default=2)
    p_oracle.add_argument("--degree", type=int, default=2,
                          help="1 or 2 for factor-set")
    p_oracle.add_argument("--budget", type=int, default=10**6,
                          help="search budget: nodes of the factor-set "
                               "search, cochain cells of the bar complex")
    p_oracle.add_argument("--json", dest="json_path")

    p_ss = sub.add_parser("ss", help="spectral sequence E2 pages")
    p_ss.add_argument("kind", choices=["uct", "tor", "rev-adams"])
    p_ss.add_argument("--ring", help="the --module's ring; with --h, Z or as given")
    p_ss.add_argument("--module",
                      help=".alg presentation (concentrated in degree 0)")
    p_ss.add_argument("--h", action="append", default=[],
                      help="graded component DEG:moduli, e.g. 0:4 or 1:2,2 "
                           "(repeatable; alternative to --module)")
    p_ss.add_argument("--coeffs", required=True, help="moduli like 2 or 0,2")
    p_ss.add_argument("--smax", type=_degree, default=3)
    p_ss.add_argument("--tmax", type=_degree, default=2)
    p_ss.add_argument("--variant", choices=["homology", "cohomology"],
                      default="homology")
    p_ss.add_argument("--check", action="store_true",
                      help="compare against directly computed groups")
    p_ss.add_argument("--json", dest="json_path")

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--quick", action="store_true",
                       help="smaller fixture sets (same checks)")
    p_acc.add_argument("--json", dest="json_path")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "theory":
            return cmd_theory(args)
        if args.command in ("cohomology", "homology"):
            return cmd_invariants(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "ss":
            return cmd_ss(args)
        if args.command == "accept":
            return cmd_accept(args)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except NotFiniteWithinBound as exc:
        print(f"not finite within bound: {exc}", file=sys.stderr)
        return 3
    except (FixtureError, DslSyntaxError, TheoryError, OSError,
            UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def _emit(args, payload, human_lines):
    for line in human_lines:
        print(line)
    if getattr(args, "json_path", None):
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _load_theory_arg(ref):
    if ref.endswith(".thy"):
        return parse_file(ref, parse_theory)
    return builtin_theory(ref)


def cmd_check(args):
    path = args.path
    if path.endswith(".thy"):
        t = parse_file(path, parse_theory)
        return _emit(args, {"kind": "theory", "name": t.name,
                            "sorts": list(t.sorts),
                            "ops": len(t.ops), "equations": len(t.equations)},
                     [f"theory {t.name}: {len(t.sorts)} sorts, "
                      f"{len(t.ops)} ops, {len(t.equations)} equations: ok"])
    if path.endswith(".alg"):
        try:
            alg = load_algebra(path)
        except NotFiniteWithinBound:
            # a module presentation need not be finite: the commands read
            # it as a module, and so does this check
            if declared_theory(path).ring is None:
                raise
            mod = load_module(path)
            inv = mod.invariants()
            return _emit(args, {"kind": "module", "name": mod.name,
                                "ring": repr(mod.ring),
                                "invariants": inv.to_json()},
                         [f"module {mod.name} over {mod.ring!r}: "
                          f"underlying group {inv}: ok"])
        sizes = {s: len(e) for s, e in alg.carriers.items()}
        return _emit(args, {"kind": "algebra", "name": alg.name,
                            "carriers": sizes},
                     [f"algebra {alg.name}: carriers {sizes}: ok"])
    if path.endswith(".xmod"):
        km = load_xmodule(path)
        return _emit(args, {"kind": "xmodule", "name": km.name,
                            "carrier": km.invariants().to_json()},
                     [f"xmodule {km.name}: carrier {km.invariants()}: ok"])
    if path.endswith(".sres"):
        v = load_sres(path)
        try:
            v.check_identities()
        except SimplicialIdentityError as exc:
            print(f"simplicial identity failure: {exc}", file=sys.stderr)
            return 1
        payload = {"kind": "sres", "truncation": v.truncation,
                   "identities": "ok"}
        lines = [f"sres: truncation {v.truncation}, simplicial identities ok"]
        if isinstance(v, SimplicialTheta) and v.augmentation is not None:
            from .resolutions import check_certificate

            cert = check_certificate(v, v.target, rng=min(
                args.range, v.truncation - 1))
            payload["certificate"] = {k: bool(ok) for k, ok in
                                      cert.checks.items()}
            lines.append(f"certificate: {cert.checks}")
            if not cert.valid:
                for line in lines:
                    print(line)
                failing = [k for k, ok in cert.checks.items() if not ok]
                print(f"certificate failed: {failing}", file=sys.stderr)
                return 1
        return _emit(args, payload, lines)
    print(f"unknown fixture extension: {path}", file=sys.stderr)
    return 2


def cmd_theory(args):
    theory = _load_theory_arg(args.theory)
    if args.construction == "abelianize":
        out = abelianization_theory(theory)
    elif args.construction == "product":
        if not args.phi:
            print("product needs --phi", file=sys.stderr)
            return 2
        out = product_theory(_load_theory_arg(args.phi), theory)
    else:
        if not args.algebra:
            print(f"{args.construction} needs --algebra", file=sys.stderr)
            return 2
        alg = load_algebra(args.algebra)
        ctor = comma_theory if args.construction == "comma" else module_theory
        out = ctor(theory, alg)
    text = print_theory(out)
    return _emit(args, {"theory": text}, [text.rstrip()])


def _ring_option(text):
    try:
        return parse_ring(text)
    except RingDescriptorError as exc:
        raise UsageError(f"--ring: {exc}") from exc


def _module_ring(args, mod):
    """The ring of the --module `mod`, which a --ring must name."""
    if args.ring is not None:
        ring = _ring_option(args.ring)
        if ring != mod.ring:
            raise UsageError(f"--ring {args.ring} is the ring {ring!r}, but "
                             f"--module {args.module} is over {mod.ring!r}")
    return mod.ring


def _moduli_option(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(
            f"--coeffs: expected moduli like 2,4, not {text!r}") from None


def _trivial_coefficients(kind, base, text):
    """kind.trivial(base, moduli) for the moduli of a --coeffs value."""
    try:
        return kind.trivial(base, _moduli_option(text))
    except AlgebraError as exc:
        raise UsageError(f"--coeffs {text}: {exc}") from exc


def _parse_coeffs(args, theory, base_algebra):
    ref = args.coeffs
    if ref is None:
        raise UsageError("missing --coeffs")
    if ref.endswith(".xmod"):
        return load_xmodule(ref, base=base_algebra)
    return _trivial_coefficients(CoefficientModule, theory.ring or Ring("Z"),
                                 ref)


def cmd_invariants(args):
    from .invariants import (
        cohomology,
        cohomology_via_em,
        homology,
        homology_with_coeffs,
    )
    from .resolutions import check_certificate, loop_group_resolution, \
        resolve_module

    theory = _load_theory_arg(args.theory)
    group = theory.class_tag == "group"
    for flag, path, what in (("--over", args.over, "a base algebra"),
                             ("--resolution", args.resolution,
                              "a resolution")):
        if path and not group:
            raise UsageError(f"{flag} {path}: only a group theory reads "
                             f"{what}, and --theory {args.theory} is not one")
    for path in filter(None, (args.algebra, args.over)):
        declared = declared_theory(path)
        if declared is not theory and \
                print_theory(declared) != print_theory(theory):
            raise UsageError(
                f"--theory {args.theory} (theory {theory.name}) does not "
                f"match theory {declared.name} declared by {path}")
    top = args.max_degree
    degrees = range(top + 1)
    if group:
        y = load_algebra(args.algebra)
        x = target = load_algebra(args.over) if args.over else y
        if args.resolution:
            v = load_sres(args.resolution)
        else:
            v = loop_group_resolution(y, truncation=top + 1)
    else:
        # resolve the presented module through level top + 1, the last one
        # that the certificate and every route read
        x = None
        target = load_module(args.algebra)
        v = resolve_module(target, length=top + 1)
    cert = check_certificate(v, target, rng=min(top, v.truncation - 1))
    if not cert.valid:
        failing = [k for k, ok in cert.checks.items() if not ok]
        print(f"resolution certificate failed: {failing}", file=sys.stderr)
        return 1
    if args.command == "cohomology":
        k = _parse_coeffs(args, theory, x)
        values = cohomology(v, k, degrees, x=x, certificate=cert)
        em_values = {}
        if args.method in ("em", "both"):
            em_values = cohomology_via_em(v, k, range(1, top + 1), x=x)
            if args.method == "both":
                for n in em_values:
                    if em_values[n] != values[n]:
                        print(f"route disagreement at degree {n}",
                              file=sys.stderr)
                        return 1
        return _report_values(args, values, em_values)
    if args.coeffs:
        k = _parse_coeffs(args, theory, x)
        values = homology_with_coeffs(v, k, degrees, x=x, certificate=cert)
        return _report_values(args, values, {})
    if args.over:
        values, actions = homology(v, degrees, x=x, certificate=cert,
                                   with_action=True)
        return _report_values(args, values, {}, actions=actions)
    return _report_values(args, homology(v, degrees, certificate=cert), {})


def _report_values(args, values, em_values, actions=None):
    shift = 1 if getattr(args, "classical_indexing", False) else 0
    sup = "^" if args.command == "cohomology" else "_"
    lines = []
    payload = []
    for n in sorted(values):
        label = n + shift if args.command == "cohomology" and n >= 1 else n
        entry = {"degree": n, "rank": values[n].rank,
                 "torsion": list(values[n].torsion)}
        line = f"H{sup}{label} = {values[n]}"
        if n in em_values:
            entry["em_route"] = em_values[n].to_json()
            line += f"   (em route: {em_values[n]})"
        if actions is not None and n in actions:
            entry["action"] = {el: mat for el, mat in sorted(actions[n].items())}
        payload.append(entry)
        lines.append(line)
    return _emit(args, payload, lines)


def cmd_oracle(args):
    from .resolutions import (
        bar_resolution_group,
        ext_oracle,
        factor_set_cohomology,
        tor_oracle,
    )

    if args.kind in ("bar", "factor-set"):
        if not args.group:
            print("needs --group", file=sys.stderr)
            return 2
        if args.kind == "factor-set" and args.degree not in (1, 2):
            raise UsageError(
                f"--degree: factor-set computes degree 1 or 2, not {args.degree}")
        g = load_algebra(args.group)
        if args.coeffs and args.coeffs.endswith(".xmod"):
            k = load_xmodule(args.coeffs, base=g)
        else:
            k = _trivial_coefficients(XModule, g, args.coeffs or "2")
        if args.kind == "bar":
            values = bar_resolution_group(g, k, args.max_degree,
                                          budget=args.budget)
            lines = [f"H^{n}({g.name}) = {v}" for n, v in enumerate(values)]
            payload = [{"degree": n, **v.to_json()}
                       for n, v in enumerate(values)]
            return _emit(args, payload, lines)
        value = factor_set_cohomology(g, k, args.degree, budget=args.budget)
        return _emit(args, {"degree": args.degree, **value.to_json()},
                     [f"H^{args.degree}({g.name}) = {value}"])
    if not args.module:
        print("needs --module", file=sys.stderr)
        return 2
    mod = load_module(args.module)
    coeff = _trivial_coefficients(CoefficientModule, _module_ring(args, mod),
                                  args.coeffs or "2")
    fn = ext_oracle if args.kind == "ext" else tor_oracle
    values = fn(mod, coeff, args.max_degree)
    name = "Ext" if args.kind == "ext" else "Tor"
    lines = [f"{name}^{n} = {v}" for n, v in enumerate(values)]
    payload = [{"degree": n, **v.to_json()} for n, v in enumerate(values)]
    return _emit(args, payload, lines)


def cmd_ss(args):
    from .invariants import cohomology, homology_with_coeffs
    from .resolutions import resolve_module
    from .spectral import GradedModule, reverse_adams_e2, tor_e2, uct_e2

    if args.module:
        mod = load_module(args.module)
        ring = _module_ring(args, mod)
        graded = GradedModule.concentrated(mod)
    elif args.h:
        from .rings import RModulePresentation

        ring = _ring_option(args.ring or "Z")
        components = {}
        for spec in args.h:
            try:
                deg_text, moduli_text = spec.split(":")
                deg = int(deg_text)
                divisors = [int(x) for x in moduli_text.split(",")]
            except ValueError:
                raise UsageError(
                    f"--h: expected DEG:moduli like 1:2,2, not {spec!r}") from None
            cols = [
                [ring.from_int(d if gi == i else 0) for gi in range(len(divisors))]
                for i, d in enumerate(divisors) if d != 0
            ]
            components[deg] = RModulePresentation(
                ring, len(divisors), cols
            )
        graded = GradedModule(ring, components)
        mod = None
    else:
        print("ss needs --module or --h", file=sys.stderr)
        return 2
    coeff = _trivial_coefficients(CoefficientModule, ring, args.coeffs)
    direct = None
    if args.check and mod is None:
        print("--check needs --module (degree-0 concentrated)", file=sys.stderr)
        return 2
    if args.check:
        v = resolve_module(mod, length=args.smax + 1)
        if args.kind == "uct" or (args.kind == "rev-adams"
                                  and args.variant == "cohomology"):
            direct = cohomology(v, coeff, range(args.smax + 1))
        else:
            direct = homology_with_coeffs(v, coeff, range(args.smax + 1))
    if args.kind == "uct":
        page = uct_e2(graded, coeff, args.smax, args.tmax,
                      cohomology_values=direct)
    elif args.kind == "tor":
        page = tor_e2(graded, coeff, args.smax, args.tmax,
                      homology_values=direct)
    else:
        page = reverse_adams_e2(graded, coeff, args.variant, args.smax,
                                comparison=direct)
    lines = [page.description]
    for (s, t) in sorted(page.grid):
        lines.append(f"  E2[{s},{t}] = {page.grid[(s, t)]}")
    for row in page.convergence:
        lines.append(
            f"  degree {row['degree']}: "
            f"{'consistent' if row['consistent'] else 'INCONSISTENT'}"
        )
    code = 0 if (not page.convergence or page.consistent()) else 1
    _emit(args, page.to_json(), lines)
    return code


def cmd_accept(args):
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    ok = True
    lines = []
    for rec in results:
        status = "pass" if rec["pass"] else "FAIL"
        ok = ok and rec["pass"]
        lines.append(f"[{status}] {rec['name']} ({rec['seconds']:.1f}s)"
                     + (f" - {rec['detail']}" if rec.get("detail") else ""))
    _emit(args, results, lines)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
