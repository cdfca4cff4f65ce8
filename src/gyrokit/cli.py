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
from dataclasses import dataclass, replace

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
    chain_condition_report,
    check_metric_properties,
    check_prenorm_properties,
    parse_chain_spec,
    validate_admissible_chain,
)
from .report import canonical_json, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig, suite_prologue
from .tables import (
    CayleyTable,
    TableModel,
    _is_builtin_name,
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
    UsageError: 2, SamplingError: 2, ResourceLimitError: 2, MemoryError: 2,
    TableFormatError: 3, OSError: 3,
    AxiomViolationError: 1,
}


@dataclass
class RunConfig:
    suite: str
    model: str = "mobius"
    samples: int = 10000
    seed: int = 42
    tol: ToleranceConfig | None = None
    chain: dict | None = None
    subgyrogroup: list | None = None
    depth: int | None = None
    order: int | None = None
    max_results: int | None = None


def _resolve_table(token: str):
    if not token:
        raise UsageError("empty table name; expected a built-in name or a path")
    return builtin_table(token) if _is_builtin_name(token) else load_table(token)


_BALLS = {"mobius": MobiusModel, "einstein": EinsteinModel}


def _carrier(spec: str):
    """The carrier a --model spec names: a continuous model, or a CayleyTable
    that TableModel has not admitted yet. A factor of ``product:`` may name a
    table without ``table:``. A product of tables is ``product_table`` of
    their tables, admitted once as a whole: its left translation by (a, b),
    its identities and the inverses of (a, b) are the pairs of the factors'
    ones, so it has bijective left translations, a unique identity and
    unique inverses, and is admitted, exactly when both factors are."""
    spec = spec.strip()
    if spec in _BALLS:
        return _BALLS[spec]()
    if spec.startswith("table:"):
        return _resolve_table(spec[len("table:"):])
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if "+" not in body:
            raise UsageError("product model needs the form product:<a>+<b>")
        factors = [s.strip() for s in body.split("+", 1)]
        if "" in factors:
            raise UsageError("product model has an empty factor; expected product:<a>+<b>")
        left, right = (
            _carrier(s) if s in _BALLS or s.startswith(("table:", "product:"))
            else _resolve_table(s) for s in factors
        )
        if isinstance(left, CayleyTable) and isinstance(right, CayleyTable):
            return product_table(left, right)
        return ProductModel(left, right)  # refuses a table factor
    raise UsageError(f"unknown model {spec!r}; expected mobius, einstein, "
                     "table:<name-or-path> or product:<a>+<b>")


def _resolve_model(spec: str):
    """The model a --model spec names, a table admitted by TableModel."""
    return TableModel(c) if isinstance(c := _carrier(spec), CayleyTable) else c


def _table(cfg: RunConfig):
    """The table --model names, a product of tables included, not admitted."""
    if isinstance(table := _carrier(cfg.model), CayleyTable):
        return table
    raise UsageError(f"suite {cfg.suite!r} needs --model table:<name-or-path> or a table product")


def _refuse_unread(cfg: RunConfig, option: str, reader: str):
    """UsageError when ``option`` is given although ``reader`` does not read it."""
    if getattr(cfg, option) is not None:
        raise UsageError(f"{reader} does not read --{option.replace('_', '-')}")


def _required(cfg: RunConfig, option: str):
    value = getattr(cfg, option)
    if value is None:
        raise UsageError(f"{cfg.suite} needs --{option.replace('_', '-')}")
    return value


def _build_chain(cfg: RunConfig, carrier):
    """The chain of a chain suite on the carrier --model names, the one place
    that picks a chain kind. A table refuses --depth before TableModel admits
    it, a ball refuses --subgyrogroup. --chain is radial (run_suite rewrote a
    finite spec) and refuses a table; else a table gives a finite chain."""
    if isinstance(carrier, CayleyTable):
        _refuse_unread(cfg, "depth", "a finite chain")
        carrier = TableModel(carrier)
    else:
        _refuse_unread(cfg, "subgyrogroup", "a radial chain")
    if cfg.chain is not None:
        return RadialChain(carrier, cfg.chain["t0"], cfg.chain["ratio"], cfg.chain["depth"])
    if not carrier.is_exact:
        return RadialChain(carrier, depth=DEFAULT_DEPTH if cfg.depth is None else cfg.depth)
    if cfg.subgyrogroup is None:
        raise UsageError("finite chains need --subgyrogroup or --chain")
    return FiniteChain(carrier, cfg.subgyrogroup)


def _sampled(check):
    """Runner of a sampled suite on the model --model names."""
    return lambda cfg: check(_resolve_model(cfg.model), sampler=Sampler(cfg.seed),
                             n_samples=cfg.samples, tol=cfg.tol)


def _chained(check):
    """Runner of a chain suite on the chain ``_build_chain`` builds. A finite
    chain whose subset lacks the identity or is not closed gives a failing
    report with the one check ``chain_condition``."""

    def run(cfg: RunConfig):
        carrier = _carrier(cfg.model)
        sampler, tol = suite_prologue(Sampler(cfg.seed), cfg.tol)
        try:
            chain = _build_chain(cfg, carrier)
        except ChainConditionError as exc:
            return chain_condition_report(cfg.suite, "chain_condition", exc, carrier, sampler, tol)
        return check(chain, sampler=sampler, n_samples=cfg.samples, tol=tol)

    return run


_CHAIN_SUITES = ("prenorm", "metric", "admissible")
_SAMPLED_SUITES = ("axioms", "identities", "strong-base") + _CHAIN_SUITES


# suite name -> (description, runner); the runner takes the RunConfig and
# returns the report
SUITE_TABLE = {
    "axioms": ("gyrogroup axioms on a sampled or exhaustive carrier", _sampled(check_axioms)),
    "identities": ("derived cancellation and decomposition identities",
                   _sampled(check_identities)),
    "strong-base": ("gyration stability of balls, norms and commuted sums",
                    _sampled(check_strong_base)),
    "prenorm": ("dyadic scale family: sandwich, invariance, subadditivity",
                _chained(check_prenorm_properties)),
    "metric": ("pseudometric and quotient separation axioms", _chained(check_metric_properties)),
    "admissible": ("level-by-level double-sum admissibility of a chain",
                   _chained(validate_admissible_chain)),
    "table-validate": ("exhaustive axiom check of a finite table",
                       lambda cfg: validate_table(_table(cfg))),
    "subgyrogroups": ("enumerate closed subsets of a finite table",
                      lambda cfg: check_subgyrogroups(TableModel(_table(cfg)).source)),
    "cosets": ("left coset partition induced by an invariant subset", lambda cfg: check_cosets(
        TableModel(_table(cfg)).source, _required(cfg, "subgyrogroup"))),
    "search": ("exhaustive search for tables of a small order",
               lambda cfg: check_search(_required(cfg, "order"), cfg.max_results)),
}
SUITES = {name: row[0] for name, row in SUITE_TABLE.items()}

# the suites that read each suite-specific option; the others refuse it
_READERS = {
    "chain": _CHAIN_SUITES,
    "subgyrogroup": _CHAIN_SUITES + ("cosets",),
    "depth": _CHAIN_SUITES,
    "order": ("search",),
    "max_results": ("search",),
    "tol": _SAMPLED_SUITES,
}


def run_suite(cfg: RunConfig):
    """Execute one suite; returns (report, exit_code). In a chain suite a
    finite chain spec is short for ``--model table:<table> --subgyrogroup
    <indices>`` and becomes them before the runner starts; a value given
    twice is a UsageError, and so is an option the suite does not read. An
    ``AxiomViolationError`` from the runner, a table that TableModel
    refuses, gives a failing report on that model with the one check
    ``table_structure``."""
    if cfg.suite not in SUITE_TABLE:
        raise UsageError(f"unknown suite {cfg.suite!r}")
    for option, readers in _READERS.items():
        if cfg.suite not in readers:
            _refuse_unread(cfg, option, f"suite {cfg.suite!r}")
    chain = cfg.chain
    if chain is not None and cfg.depth is not None:
        raise UsageError("the depth is given twice: by --depth and by --chain")
    if chain is not None and chain["kind"] == "finite_discrete":
        if cfg.subgyrogroup is not None:
            raise UsageError("the subgyrogroup is given twice: by --subgyrogroup and by --chain")
        cfg = replace(cfg, model=f"table:{chain['table']}", subgyrogroup=chain["subgyrogroup"],
                      chain=None)
    try:
        report = SUITE_TABLE[cfg.suite][1](cfg)
    except AxiomViolationError as exc:
        with suite_report(cfg.suite, cfg.model) as report:
            report.checks.append(witness_check("table_structure", {"error": str(exc)}))
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
                   help='chain spec JSON, e.g. {"kind":"radial_rapidity","ratio":0.25}; '
                   '{"kind":"finite_discrete","table":T,"subgyrogroup":S} is short for '
                   "--model table:T --subgyrogroup S")
    p.add_argument("--subgyrogroup", type=_indices, default=None,
                   help="comma-separated element indices, e.g. 0,2")
    p.add_argument("--depth", type=count, default=None,
                   help=f"radial chain depth without --chain (default {DEFAULT_DEPTH})")
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
            tol=None if args.tol is None else ToleranceConfig(abs_tol=args.tol, rel_tol=args.tol),
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
