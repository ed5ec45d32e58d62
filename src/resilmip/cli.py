"""Command-line front end.

Subcommands: eval (forward pass), bounds (the intervals every query is
encoded over, optionally window-tightened), verify (local robustness; exit
code carries the verdict), phi (maximum-perturbation bound), xi (network
resilience), max-alpha (best attainable dominance ratio), export (write a
query as an MPS file).

Exit codes: 0 success (for verify: ROBUST), 10 verify found a violation,
20 the verdict or bound could not be settled within the solver's limits,
1 runtime failure, 2 usage error. All numbers print with 6 significant
digits; --json-out writes the same result as a machine-readable sidecar.
Each command takes the parsed arguments and the loaded network, prints its
result and returns (exit code, payload); main loads the network once and
writes the payload as the sidecar, so a command that fails leaves none.
COMMANDS maps each command to its help, handler and flag groups; main
builds only the invoked command's parser from it, once per process, and the
full tree only for -h, a missing or unknown command, or to report
unrecognized arguments.
The RESILMIP_WORKERS environment variable sets the default --workers, the
number of processes that run independent sub-solves side by side.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import zoo
from .dataflow import write_bounds_dump
from .encoder import EncodingError, QueryKind, QuerySpec, encode_query
from .mipmodel import ModelError, export_mps
from .network import (
    Network,
    NetworkFormatError,
    NetworkValidationError,
    class_scores,
    forward,
    load_network,
    real_array,
)
from .resilience import (
    Verdict,
    check_local_robustness,
    compute_max_alpha,
    compute_phi,
    compute_xi,
    prepare_bounds,
    query_bounds,
)
from .solver import SolveConfig, SolveStatus

EXIT_OK = 0
EXIT_VIOLATED = 10
EXIT_UNKNOWN = 20
EXIT_ERROR = 1


def _g(x: float) -> str:
    return f"{x:.6g}"


def _vec(v) -> str:
    return "(" + ", ".join(_g(float(t)) for t in v) + ")"


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("RESILMIP_WORKERS", "1")))
    except ValueError:
        return 1


def _at_least(kind, least):
    """An argparse type: a finite `kind` (int or float) no smaller than least."""
    def parse(text: str):
        v = kind(text)  # a ValueError here is argparse's "invalid value"
        if not (math.isfinite(v) and v >= least):
            raise argparse.ArgumentTypeError(f"must be finite and >= {least}: {text!r}")
        return v
    parse.__name__ = kind.__name__
    return parse


def _load_net(ref: str) -> Network:
    if ref in zoo.FIXTURES:
        return zoo.FIXTURES[ref]()
    path = Path(ref)
    if path.exists():
        return load_network(path)
    raise NetworkFormatError(
        f"{ref!r} is neither a readable file nor one of the built-in nets "
        f"({', '.join(sorted(zoo.FIXTURES))})"
    )


def _parse_input(text: str, dim: int) -> np.ndarray:
    """An input point: inline comma/space-separated reals, or a file holding a
    JSON array of numbers or whitespace-separated numbers."""
    path = Path(text)
    from_file = path.is_file()
    raw = path.read_text().strip() if from_file else text
    what = f"cannot parse input point {text!r}"
    try:
        items = (json.loads(raw) if from_file and raw.startswith("[")
                 else [float(t) for t in raw.replace(",", " ").split()])
    except ValueError as e:
        raise NetworkFormatError(f"{what}: {e}") from None
    vals = real_array(items, what, 1)
    if len(vals) != dim:
        raise NetworkFormatError(
            f"input point {text!r} has {len(vals)} values, expected {dim}")
    if not np.all(np.isfinite(vals)):
        raise NetworkFormatError(f"input point {text!r} has a non-finite value")
    return vals


def _lookback_config(args) -> SolveConfig:
    """The config of bounds and export, which solve only lookback's probes."""
    return SolveConfig(workers=args.workers, time_limit=args.time_limit)


def _solve_config(args) -> SolveConfig:
    return replace(_lookback_config(args), node_limit=args.node_limit,
                   mip_gap=args.mip_gap, log_interval=1.0 if args.verbose else None)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(t) for t in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2) + "\n")


def _print_solve(solve) -> None:
    """The nodes and time lines of a result's solve record, if it has one."""
    if solve is not None:
        print(f"nodes    {solve.nodes_explored}")
        print(f"time     {_g(solve.wall_time)}s")


def _solve_payload(solve) -> dict:
    return {"nodes": solve.nodes_explored if solve else 0,
            "wall_time": solve.wall_time if solve else 0.0}


def cmd_eval(args, net: Network) -> tuple[int, dict]:
    point = _parse_input(args.input, net.input_dim)
    trace = forward(net, point)
    out = trace.outputs
    scores = class_scores(net, point)
    top = int(np.argmax(scores)) + 1
    print(f"input    {_vec(point)}")
    print(f"scores   {_vec(scores)}")
    if net.ends_in_softmax:
        print(f"probs    {_vec(out)}")
    print(f"class    {top}")
    return EXIT_OK, {"input": point, "scores": scores,
                     "outputs": out, "top_class": top}


def cmd_bounds(args, net: Network) -> tuple[int, dict]:
    bounds = prepare_bounds(net, None, args.lookback, _lookback_config(args))
    buf = io.StringIO()
    write_bounds_dump(net, bounds, buf)
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK, {"layers": [
        {"lo": lb.lo, "hi": lb.hi, "im_lo": lb.im_lo, "im_hi": lb.im_hi}
        for lb in bounds.layers
    ]}


def cmd_verify(args, net: Network) -> tuple[int, dict]:
    point = _parse_input(args.input, net.input_dim)
    res = check_local_robustness(
        net, point, args.delta, m=args.cls, k=args.k,
        config=_solve_config(args), lookback=args.lookback)
    print(f"verdict  {res.verdict.value}")
    print(f"class    {res.m}")
    print(f"delta    {_g(res.delta)}")
    if res.eps is not None and res.verdict is Verdict.VIOLATED:
        print(f"eps      {_vec(res.eps)}")
        print(f"point    {_vec(res.perturbed)}")
        print(f"cost     {_g(float(np.sum(np.abs(res.eps))))}")
    if res.note:
        print(f"note     {res.note}")
    if args.witness_out and res.eps is not None:
        _write_json(args.witness_out, {"eps": res.eps, "perturbed": res.perturbed,
                                       "anchor": point})
        print(f"witness  {args.witness_out}")
    _print_solve(res.solve)
    code = {Verdict.ROBUST: EXIT_OK, Verdict.VIOLATED: EXIT_VIOLATED}.get(
        res.verdict, EXIT_UNKNOWN)
    return code, {"verdict": res.verdict.value, "class": res.m,
                  "delta": res.delta, "k": res.k, "eps": res.eps,
                  "perturbed": res.perturbed, "note": res.note,
                  **_solve_payload(res.solve)}


def _print_phi(res) -> None:
    print(f"phi      {_g(res.phi)}")
    print(f"status   {res.status.value}")
    print(f"exact    {'yes' if res.exact else 'no'}")
    if not res.exact and math.isfinite(res.lower_bound):
        print(f"bound    {_g(res.lower_bound)}")
    if math.isinf(res.phi) and res.status is SolveStatus.INFEASIBLE:
        print(f"note     infeasible at alpha={_g(res.alpha)}: no input is "
              "strongly classified (or no overlap point exists); "
              "phi is vacuously infinite")
    if res.anchor is not None:
        print(f"anchor   {_vec(res.anchor)}")
        print(f"eps      {_vec(res.eps)}")
        print(f"point    {_vec(res.perturbed)}")
    if res.witness_exact is not None:
        print(f"witness  {'validated' if res.witness_exact else 'envelope-relaxed'}")
    _print_solve(res.solve)


def _phi_payload(res) -> dict:
    return {
        "m": res.m, "alpha": res.alpha, "k": res.k, "phi": res.phi,
        "status": res.status.value, "exact": res.exact,
        "witness_exact": res.witness_exact,
        "lower_bound": res.lower_bound,
        "anchor": res.anchor, "eps": res.eps, "perturbed": res.perturbed,
        **_solve_payload(res.solve),
    }


def cmd_phi(args, net: Network) -> tuple[int, dict]:
    res = compute_phi(net, args.cls, args.alpha, args.k,
                      config=_solve_config(args), lookback=args.lookback)
    _print_phi(res)
    return EXIT_OK if res.exact else EXIT_UNKNOWN, _phi_payload(res)


def cmd_xi(args, net: Network) -> tuple[int, dict]:
    res = compute_xi(net, args.alpha, args.k, config=_solve_config(args),
                     lookback=args.lookback)
    print(f"xi       {_g(res.xi)}")
    print(f"status   {res.status.value}")
    if res.weakest_class is not None:
        print(f"weakest  class {res.weakest_class}")
    if res.excluded:
        print(f"excluded {', '.join(str(m) for m in res.excluded)} (never strongly classified)")
    for m, r in sorted(res.per_class.items()):
        print(f"  phi[{m}] {_g(r.phi)} ({r.status.value})")
    return EXIT_OK if res.status is SolveStatus.OPTIMAL else EXIT_UNKNOWN, {
        "xi": res.xi, "status": res.status.value,
        "weakest_class": res.weakest_class, "excluded": res.excluded,
        "per_class": {str(m): _phi_payload(r) for m, r in res.per_class.items()}}


def cmd_max_alpha(args, net: Network) -> tuple[int, dict]:
    res = compute_max_alpha(net, args.cls, config=_solve_config(args),
                            lookback=args.lookback)
    print(f"alpha    {_g(res.alpha_max)}")
    print(f"log      {_g(res.t_star)}")
    print(f"status   {res.status.value}")
    if res.status is not SolveStatus.OPTIMAL and math.isfinite(res.upper_bound):
        print(f"bound    {_g(res.upper_bound)}")
    if res.attainable is False:
        print("note     class never tops every rival (alpha < 1)")
    if res.anchor is not None:
        print(f"anchor   {_vec(res.anchor)}")
    _print_solve(res.solve)
    code = EXIT_OK if res.status is SolveStatus.OPTIMAL else EXIT_UNKNOWN
    return code, {"alpha_max": res.alpha_max, "t_star": res.t_star,
                  "attainable": res.attainable, "status": res.status.value,
                  "upper_bound": res.upper_bound, "anchor": res.anchor,
                  **_solve_payload(res.solve)}


def cmd_export(args, net: Network) -> tuple[int, dict]:
    kind = {"phi": QueryKind.MAX_PERTURBATION,
            "robustness": QueryKind.LOCAL_ROBUSTNESS,
            "max-alpha": QueryKind.MAX_ALPHA}[args.query]
    anchor = None
    if args.input is not None:
        if kind is QueryKind.MAX_ALPHA:
            raise EncodingError("--query max-alpha takes no --input")
        # phi then exports its fixed-anchor model, fixed_min_m<class>
        anchor = _parse_input(args.input, net.input_dim)
    elif kind is QueryKind.LOCAL_ROBUSTNESS:
        raise EncodingError("--query robustness needs --input")
    q = QuerySpec(kind, m=args.cls, alpha=args.alpha, k=args.k,
                  a=anchor, delta=args.delta)
    # the bounds the query's solver would encode it over
    enc = encode_query(net, query_bounds(net, q, None, args.lookback,
                                         _lookback_config(args)), q)
    text = export_mps(enc.model)
    Path(args.out).write_text(text)
    rows = enc.model.num_constraints
    cols = enc.model.num_variables
    bins = len(enc.model.binary_ids)
    print(f"wrote {args.out} ({rows} rows, {cols} columns, {bins} binaries)")
    return EXIT_OK, {"out": args.out, "rows": rows, "columns": cols, "binaries": bins}


# name: (help, handler, flag groups in the order its help lists them)
COMMANDS = {
    "eval": ("exact forward pass at a point", cmd_eval, "common eval"),
    "bounds": ("per-node activation intervals", cmd_bounds, "common lookback bounds"),
    "verify": ("local robustness at a point (exit 0 robust, 10 violated, 20 unknown)",
               cmd_verify, "common solver k verify"),
    "phi": ("maximum-perturbation bound of one class", cmd_phi, "common solver cls alpha k"),
    "xi": ("network resilience (worst finite phi)", cmd_xi, "common solver alpha k"),
    "max-alpha": ("largest attainable dominance ratio", cmd_max_alpha, "common solver cls"),
    "export": ("write a query model as fixed-format MPS", cmd_export,
               "common lookback cls alpha k export"),
}


def _add_flags(p: argparse.ArgumentParser, groups: str) -> None:
    """Add the named flag groups to p, in order; every flag is defined here once."""
    for group in groups.split():
        if group == "common":
            p.add_argument("--net", required=True,
                           help="network JSON file or built-in fixture name")
            p.add_argument("--json-out", default=None, metavar="FILE",
                           help="also write the result as JSON")
            p.add_argument("--verbose", action="store_true", help="log solver progress")
        elif group in ("solver", "lookback"):  # lookback: no limits its probes fix
            p.add_argument("--workers", type=_at_least(int, 1), default=_default_workers(),
                           help="processes for independent sub-solves: lookback's "
                           "window MIPs and xi's classes, at most the CPU count "
                           "(default from RESILMIP_WORKERS)")
            if group == "solver":
                p.add_argument("--node-limit", type=_at_least(int, 0), default=None)
            p.add_argument("--time-limit", type=_at_least(float, 0.0), default=None,
                           help="seconds")
            if group == "solver":
                p.add_argument("--mip-gap", type=_at_least(float, 0.0), default=1e-6)
            p.add_argument("--lookback", type=int, nargs="?", const=2, default=None,
                           metavar="DEPTH", help="tighten bounds with window models "
                           "of this depth before encoding (default depth 2)")
        elif group == "cls":
            p.add_argument("--class", dest="cls", type=int, required=True,
                           help="1-based class")
        elif group == "alpha":
            p.add_argument("--alpha", type=float, default=1.0, help="dominance ratio (>= 1)")
        elif group == "k":
            p.add_argument("--k", "-k", type=int, default=1,
                           help="how many rivals must reach the class's score")
        elif group == "eval":
            p.add_argument("--input", required=True,
                           help="input point: inline values or a file")
        elif group == "bounds":
            p.add_argument("--out", default=None, metavar="FILE", help="write TSV here")
        elif group == "verify":
            p.add_argument("--input", required=True, help="anchor point: inline or file")
            p.add_argument("--delta", type=float, required=True, help="1-norm budget")
            p.add_argument("--class", dest="cls", type=int, default=None,
                           help="1-based class to protect (default: the anchor's top class)")
            p.add_argument("--witness-out", default=None, metavar="FILE",
                           help="write the violating perturbation as JSON")
        elif group == "export":
            p.add_argument("--out", required=True, help="output .mps path")
            p.add_argument("--query", choices=("phi", "robustness", "max-alpha"),
                           default="phi")
            p.add_argument("--input", default=None,
                           help="anchor point, fixed in the phi or robustness model")
            p.add_argument("--delta", type=float, default=0.0)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with no command the full tree of all seven."""
    if command is not None:
        p = argparse.ArgumentParser(prog=f"resilmip {command}")
        _add_flags(p, COMMANDS[command][2])
        return p
    ap = argparse.ArgumentParser(
        prog="resilmip",
        description="perturbation-resilience analysis of small feed-forward "
                    "networks by mixed-integer programming")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, _, groups) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=summary), groups)
    return ap


_PARSERS: dict[str, argparse.ArgumentParser] = {}  # built by main's first call of each command


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cmd = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser() if cmd is None else _PARSERS.get(cmd)
    if parser is None:
        parser = _PARSERS[cmd] = build_parser(cmd)
    if parser.get_default("workers") is not None:  # RESILMIP_WORKERS may have changed
        parser.set_defaults(workers=_default_workers())
    args, extra = parser.parse_known_args(argv[1:] if cmd else argv)
    if cmd is None or extra:  # -h, no known command or a stray argument: the full tree reports it
        args = build_parser().parse_args(argv)
        cmd = args.command
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s %(message)s")
    try:
        code, payload = COMMANDS[cmd][1](args, _load_net(args.net))
        if args.json_out:
            _write_json(args.json_out, payload)
        return code
    except (NetworkFormatError, NetworkValidationError, EncodingError,
            ModelError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
