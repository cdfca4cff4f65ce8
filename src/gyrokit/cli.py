"""Command line verification front end.

One suite per invocation. Reports go to stdout as canonical JSON (or to
--out); a short human-readable line per check goes to stderr. Exit code
0 means every check passed, 1 means some verification check failed,
2 is a usage problem, 3 an I/O or table parse problem.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from .core import check_axioms, check_identities
from .errors import (
    AxiomViolationError,
    ChainConditionError,
    ResourceLimitError,
    SamplingError,
    TableFormatError,
    UsageError,
)
from .models import EinsteinModel, MobiusModel, ProductModel, check_strong_base
from .prenorm import (
    DEFAULT_DEPTH,
    FiniteChain,
    RadialChain,
    check_metric_properties,
    check_prenorm_properties,
    parse_chain_spec,
    validate_admissible_chain,
)
from .report import canonical_json, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig
from .tables import (
    BUILTIN_TABLE_NAMES,
    TableModel,
    builtin_table,
    check_cosets,
    check_search,
    check_subgyrogroups,
    load_table,
    product_table,
    validate_table,
)

# the exit code of each error that stops a run; a finished run exits 0
# when its report passes and 1 when it fails
EXIT_CODES = {
    UsageError: 2, SamplingError: 2, ResourceLimitError: 2,
    TableFormatError: 3, OSError: 3,
    ChainConditionError: 1, AxiomViolationError: 1,
}


@dataclass
class RunConfig:
    suite: str
    model: str = "mobius"
    samples: int = 10000
    seed: int = 42
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)
    chain: dict | None = None
    subgyrogroup: list | None = None
    depth: int | None = None
    order: int | None = None
    max_results: int | None = None


def _resolve_table(token: str):
    if token.lower() in BUILTIN_TABLE_NAMES or (
        token.lower().startswith("z") and token[1:].isdigit()
    ):
        return builtin_table(token)
    return load_table(token)


def _resolve_model(spec: str):
    spec = spec.strip()
    if spec == "mobius":
        return MobiusModel()
    if spec == "einstein":
        return EinsteinModel()
    if spec.startswith("table:"):
        return TableModel(_resolve_table(spec[len("table:"):]))
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if "+" not in body:
            raise UsageError("product model needs the form product:<a>+<b>")
        left, right = (_resolve_operand(s.strip()) for s in body.split("+", 1))
        if left.is_exact and right.is_exact:
            return TableModel(product_table(left.source, right.source))
        # ProductModel refuses a table factor beside a continuous one
        return ProductModel(left, right)
    raise UsageError(
        f"unknown model {spec!r}; expected mobius, einstein, "
        "table:<name-or-path> or product:<a>+<b>"
    )


def _resolve_operand(spec: str):
    """Product factors may name a table without the table: prefix."""
    if not spec:
        raise UsageError("product model has an empty factor; expected product:<a>+<b>")
    if spec in ("mobius", "einstein") or spec.startswith(("table:", "product:")):
        return _resolve_model(spec)
    return TableModel(_resolve_table(spec))


def _require_table(cfg: RunConfig):
    if not cfg.model.startswith("table:"):
        raise UsageError(f"suite {cfg.suite!r} needs --model table:<name-or-path>")
    return _resolve_table(cfg.model[len("table:"):])


def _required(cfg: RunConfig, option: str):
    value = getattr(cfg, option)
    if value is None:
        raise UsageError(f"{cfg.suite} needs --{option.replace('_', '-')}")
    return value


def _build_chain(cfg: RunConfig, model):
    if cfg.chain is not None:
        spec = cfg.chain
        if spec["kind"] == "radial_rapidity":
            return RadialChain(model, spec["t0"], spec["ratio"], spec["depth"])
        return FiniteChain(_resolve_table(spec["table"]), spec["subgyrogroup"])
    if model.is_exact:
        if cfg.subgyrogroup is None:
            raise UsageError("finite chains need --subgyrogroup or --chain")
        return FiniteChain(model, cfg.subgyrogroup)
    return RadialChain(model, depth=DEFAULT_DEPTH if cfg.depth is None else cfg.depth)


def _on_model(check, chain=False):
    """Runner of a sampled suite over --model, or over the chain built on it;
    a table without unique identity or inverses gives a failing report."""

    def run(cfg: RunConfig):
        try:
            model = _resolve_model(cfg.model)
        except AxiomViolationError as exc:
            with suite_report(cfg.suite, cfg.model) as report:
                report.checks.append(witness_check("table_structure", {"error": str(exc)}))
            return report
        target = _build_chain(cfg, model) if chain else model
        return check(target, sampler=Sampler(cfg.seed), n_samples=cfg.samples, tol=cfg.tol)

    return run


# suite name -> (description, runner taking a RunConfig and returning its report)
SUITE_TABLE = {
    "axioms": ("gyrogroup axioms on a sampled or exhaustive carrier", _on_model(check_axioms)),
    "identities": (
        "derived cancellation and decomposition identities", _on_model(check_identities)
    ),
    "strong-base": (
        "gyration stability of balls, norms and commuted sums", _on_model(check_strong_base)
    ),
    "prenorm": (
        "dyadic scale family: sandwich, invariance, subadditivity",
        _on_model(check_prenorm_properties, chain=True),
    ),
    "metric": (
        "pseudometric and quotient separation axioms",
        _on_model(check_metric_properties, chain=True),
    ),
    "admissible": (
        "level-by-level double-sum admissibility of a chain",
        _on_model(validate_admissible_chain, chain=True),
    ),
    "table-validate": (
        "exhaustive axiom check of a finite table",
        lambda cfg: validate_table(_require_table(cfg)),
    ),
    "subgyrogroups": (
        "enumerate closed subsets of a finite table",
        lambda cfg: check_subgyrogroups(_require_table(cfg)),
    ),
    "cosets": (
        "left coset partition induced by an invariant subset",
        lambda cfg: check_cosets(_require_table(cfg), _required(cfg, "subgyrogroup")),
    ),
    "search": (
        "exhaustive search for tables of a small order",
        lambda cfg: check_search(_required(cfg, "order"), cfg.max_results),
    ),
}
SUITES = {name: description for name, (description, _) in SUITE_TABLE.items()}


def run_suite(cfg: RunConfig):
    """Execute one suite; returns (report, exit_code)."""
    if cfg.suite not in SUITE_TABLE:
        raise UsageError(f"unknown suite {cfg.suite!r}")
    report = SUITE_TABLE[cfg.suite][1](cfg)
    return report, 0 if report.passed else 1


def _human_lines(report, stream):
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        kind = c.samples if isinstance(c.samples, str) else f"{c.samples} samples"
        print(
            f"[{status}] {c.name:32s} max_residual {c.max_residual:.3e}  ({kind})",
            file=stream,
        )
    n_ok = sum(1 for c in report.checks if c.passed)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: suite {report.suite} on {report.model}: "
        f"{n_ok}/{len(report.checks)} checks passed ({report.wall_time_s:.2f} s)",
        file=stream,
    )


def _at_least(low, kind):
    """argparse type: a finite number of the given kind that is at least ``low``."""

    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _indices(text):
    """argparse type: comma-separated nonnegative element indices."""
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects comma-separated indices: {exc}") from None
    if not indices or min(indices) < 0:
        raise argparse.ArgumentTypeError(f"expects nonnegative indices, got {text!r}")
    return indices


def build_parser() -> argparse.ArgumentParser:
    count = _at_least(1, int)
    p = argparse.ArgumentParser(
        prog="gyro",
        description="Verification suites for gyrogroup models, finite tables "
        "and the dyadic prenorm construction.",
    )
    p.add_argument("suite", nargs="?", choices=sorted(SUITES), help="suite to run")
    p.add_argument("--model", default="mobius",
                   help="mobius | einstein | table:<name-or-path> | product:<a>+<b>")
    p.add_argument("--samples", type=count, default=10000, help="sample count (default 10000)")
    p.add_argument("--seed", type=int, default=42, help="root seed (default 42)")
    p.add_argument("--tol", type=_at_least(0.0, float), default=None,
                   help="override both absolute and relative tolerance")
    p.add_argument("--chain", default=None,
                   help='chain spec JSON, e.g. {"kind":"radial_rapidity","ratio":0.25}')
    p.add_argument("--subgyrogroup", type=_indices, default=None,
                   help="comma-separated element indices, e.g. 0,2")
    p.add_argument("--depth", type=count, default=None,
                   help=f"chain depth (default {DEFAULT_DEPTH})")
    p.add_argument("--order", type=count, default=None, help="table order for search")
    p.add_argument("--max-results", type=count, default=None, help="cap search results")
    p.add_argument("--out", default=None, help="write the JSON report to this path")
    p.add_argument("--list-suites", action="store_true", help="list suites and exit")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return exc.code

    if args.list_suites:
        for name in sorted(SUITES):
            print(f"{name:16s} {SUITES[name]}")
        return 0
    if args.suite is None:
        parser.print_usage(sys.stderr)
        print("gyro: a suite name is required (see --list-suites)", file=sys.stderr)
        return 2

    try:
        cfg = RunConfig(
            suite=args.suite,
            model=args.model,
            samples=args.samples,
            seed=args.seed,
            tol=ToleranceConfig() if args.tol is None else ToleranceConfig(
                abs_tol=args.tol, rel_tol=args.tol
            ),
            chain=None if args.chain is None else parse_chain_spec(args.chain),
            subgyrogroup=args.subgyrogroup,
            depth=args.depth,
            order=args.order,
            max_results=args.max_results,
        )
        report, code = run_suite(cfg)
        _human_lines(report, sys.stderr)
        payload = canonical_json(report.to_dict()) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except tuple(EXIT_CODES) as exc:
        print(f"gyro: {exc}", file=sys.stderr)
        return next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
