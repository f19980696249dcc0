"""Command line front end for batch experiments.

All commands read the Cartan datum from one config file (JSON, or TOML on
Python >= 3.11) and are deterministic given (config, seed).  Reports are
JSON with a format_version, a config echo and the library version; count
tables can also be written as CSV.  Exit codes: 0 success, 2 validation
failure, 3 budget exceeded, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import cartan, flagvar, gendecomp, hmod, homext, reduction
from . import exactlinalg as la
from .cartan import RankVector, euler_form
from .errors import (
    BudgetExceeded,
    CartanQuiverError,
    InternalCheckError,
    KTooSmall,
    NonIntegerCoefficient,
    OverdeterminedMismatch,
    ValidationError,
)

REPORT_FORMAT_VERSION = 1


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValidationError(f"{what} must be integers: {text!r}") from exc


def _parse_rank(text: str) -> RankVector:
    return RankVector(_parse_ints(text, "rank"))


def _parse_brseq(text: str) -> list[RankVector]:
    return [_parse_rank(part) for part in text.split(";") if part]


def _read_json(path: str, what: str):
    """The JSON value in a file; ValidationError when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}"
                              ) from exc


def _write(path: str, text: str, what: str) -> None:
    """Write text to a file; ValidationError when it cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} file {path}: {exc}"
                              ) from exc


def _load(args) -> tuple:
    toml = args.config.endswith(".toml")
    cfg = None if toml else _read_json(args.config, "config")
    datum, k, p = (cartan.load_config(args.config) if toml
                   else cartan.datum_from_dict(cfg))
    echo = cfg if args.config.endswith(".json") else None
    if getattr(args, "k", None):
        k = cartan.read_int(args.k, "--k", 0, KTooSmall)
    if getattr(args, "p", None) is not None:
        p = args.p
    la.check_prime(p)
    return datum, k, p, echo


def _emit(args, payload: dict) -> None:
    payload = {"format_version": REPORT_FORMAT_VERSION,
               "library_version": __version__, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if getattr(args, "output", None):
        _write(args.output, text + "\n", "report")
    else:
        print(text)


def cmd_algebra_check(args) -> int:
    datum, k, p, echo = _load(args)
    quiver = cartan.build_quiver(datum, k)
    pairs = datum.oriented_pairs()
    n = datum.n
    euler_matrix = [[euler_form(datum, RankVector.unit(n, i),
                                RankVector.unit(n, j), k=k)
                     for j in range(n)] for i in range(n)]
    _emit(args, {
        "command": "algebra-check",
        "config": echo,
        "k": k,
        "p": p,
        "vertices": n,
        "loop_orders": list(quiver.loop_orders),
        "arrows": [{"target": i + 1, "source": j + 1, "copy": g + 1}
                   for i, j, g in quiver.arrows],
        "g_table": {f"{i + 1},{j + 1}": datum.g(i, j) for i, j in pairs},
        "f_table": {f"{i + 1},{j + 1}": datum.f(i, j) for i, j in pairs}
        | {f"{j + 1},{i + 1}": datum.f(j, i) for i, j in pairs},
        "euler_form_on_units": euler_matrix,
    })
    return 0


def cmd_decomp(args) -> int:
    datum, k, p, echo = _load(args)
    r = _parse_rank(args.rank)
    if args.kmax:
        report = gendecomp.k_independence_check(
            datum, p, r, args.kmax, samples=args.samples, seed=args.seed)
        body = report.to_dict()
    else:
        body = gendecomp.canonical_decomposition(
            datum, k, p, r, samples=args.samples, seed=args.seed).to_dict()
    _emit(args, {"command": "decomp", "config": echo, "seed": args.seed,
                 "report": body})
    return 0


def cmd_rigid(args) -> int:
    datum, k, p, echo = _load(args)
    r = _parse_rank(args.rank)
    search = homext.find_rigid(datum, k, p, r, trials=args.trials,
                               seed=args.seed)
    body = {"found": search.found(), "trials_used": search.trials_used,
            "exhaustive": search.exhaustive,
            "none_exists": search.none_exists}
    if search.found() and args.module_out:
        _write(args.module_out,
               json.dumps(hmod.module_to_dict(search.module), indent=2),
               "module")
        body["module_file"] = args.module_out
    elif search.found():
        body["module"] = hmod.module_to_dict(search.module)
    else:
        body["message"] = (f"none found in {search.trials_used} trials"
                           + ("; scan was exhaustive, no rigid module of "
                              "this rank exists over F_p"
                              if search.none_exists else ""))
    _emit(args, {"command": "rigid", "config": echo, "seed": args.seed,
                 "rank": list(r), "k": k, "p": p, "report": body})
    return 0


def _load_module(datum, path: str) -> hmod.HModule:
    return hmod.module_from_dict(datum, _read_json(path, "module"))


def cmd_flag_count(args) -> int:
    datum, k, p, echo = _load(args)
    module = _load_module(datum, args.module)
    if args.k and module.k != args.k:
        module = reduction.module_at_level(module, args.k)
    brseq = _parse_brseq(args.brseq)
    primes = _parse_ints(args.primes, "primes") if args.primes \
        else flagvar.DEFAULT_PRIMES
    table = flagvar.counting_polynomial(module, brseq, primes=primes)
    if args.csv:
        _write(args.csv, table.to_csv(), "CSV")
    _emit(args, {"command": "flag-count", "config": echo,
                 "seed": args.seed, "primes_used": sorted(table.counts),
                 "report": table.to_dict()})
    return 0


def cmd_reduce(args) -> int:
    datum, k, p, echo = _load(args)
    module = _load_module(datum, args.module)
    to_k = module.k - 1 if args.to_k is None else args.to_k
    if not 1 <= to_k < module.k:
        raise ValidationError(
            f"--to-k must be in [1, {module.k - 1}], got {to_k}")
    rank_before = list(hmod.rank_vector(module))
    rigid_before = homext.is_rigid(module)
    current = module
    while current.k > to_k:
        current = reduction.reduce(current).module
    body = {
        "rank_before": rank_before,
        "rank_after": list(hmod.rank_vector(current)),
        "rigid_before": rigid_before,
        "rigid_after": homext.is_rigid(current),
        "k_before": module.k,
        "k_after": current.k,
        "module": hmod.module_to_dict(current),
    }
    if args.module_out:
        _write(args.module_out, json.dumps(body.pop("module"), indent=2),
               "module")
        body["module_file"] = args.module_out
    _emit(args, {"command": "reduce", "config": echo, "seed": args.seed,
                 "report": body})
    return 0


def cmd_bundle_check(args) -> int:
    datum, k, p, echo = _load(args)
    r = _parse_rank(args.rank)
    brseq = _parse_brseq(args.brseq)
    # refused before any search, as bundle_ratio_check refuses them only
    # on a rigid module the search found
    primes = flagvar.check_primes(
        _parse_ints(args.primes, "primes") if args.primes else (2, 3))
    k_max = cartan.read_int(max(k, 2) if args.kmax is None else args.kmax,
                            "--kmax", 2)

    def check_level(level: int):
        search = homext.find_rigid(datum, level, p, r, trials=args.trials,
                                   seed=args.seed)
        if not search.found():
            return {"k": level, "found_rigid": False}
        report = flagvar.bundle_ratio_check(search.module, brseq,
                                            primes=primes)
        return {"k": level, "found_rigid": True,
                "fiber_exponent": report.fiber_exponent,
                "rows": list(report.rows),
                "ok_for_rigid": report.ok_for_rigid}

    rows = [check_level(level) for level in range(2, k_max + 1)]
    _emit(args, {"command": "bundle-check", "config": echo,
                 "seed": args.seed, "rank": list(r),
                 "primes": list(primes), "report": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanquiver",
        description="Exact computations with quiver algebras of "
                    "symmetrizable Cartan matrices over prime fields.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_k=True):
        sp.add_argument("--config", required=True,
                        help="Cartan datum config file (JSON or TOML)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", help="write the JSON report here")
        if with_k:
            sp.add_argument("--k", type=int, default=0,
                            help="override the config's symmetrizer level")
            sp.add_argument("--p", type=int, default=None,
                            help="override the config's prime")

    sp = sub.add_parser("algebra-check",
                        help="validate the datum and print quiver summary")
    common(sp)
    sp.set_defaults(func=cmd_algebra_check)

    sp = sub.add_parser("decomp", help="canonical decomposition of a rank "
                                       "vector (optionally swept over k)")
    common(sp)
    sp.add_argument("--rank", "-r", required=True, help="e.g. 1,2")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--kmax", type=int, default=0,
                    help="sweep k = 1..kmax and compare")
    sp.set_defaults(func=cmd_decomp)

    sp = sub.add_parser("rigid", help="search a rigid module of given rank")
    common(sp)
    sp.add_argument("--rank", "-r", required=True)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--module-out", help="write the found module here")
    sp.set_defaults(func=cmd_rigid)

    sp = sub.add_parser("flag-count",
                        help="count flags of a module over several primes")
    common(sp)
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.add_argument("--brseq", required=True,
                    help="semicolon-separated rank vectors, e.g. 1,0;0,1")
    sp.add_argument("--primes", default="")
    sp.add_argument("--csv", help="also write the q,count table here")
    sp.set_defaults(func=cmd_flag_count)

    sp = sub.add_parser("reduce", help="apply the reduction functor")
    common(sp, with_k=False)
    sp.add_argument("--module", required=True)
    sp.add_argument("--to-k", type=int, default=None, dest="to_k")
    sp.add_argument("--module-out")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("bundle-check",
                        help="check the fiber-bundle count ratio between "
                             "levels k and k-1 for rigid modules")
    common(sp)
    sp.add_argument("--rank", "-r", required=True)
    sp.add_argument("--brseq", required=True)
    sp.add_argument("--primes", default="")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--trials", type=int, default=200)
    sp.set_defaults(func=cmd_bundle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonIntegerCoefficient, OverdeterminedMismatch) as exc:
        print(f"error: no counting polynomial at this degree bound: {exc}",
              file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except CartanQuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
