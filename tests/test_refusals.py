"""Every library suite behind ``cli.SUITE_TABLE`` refuses a bad request
before it opens a stream, and runs the requests it read no count for.

A row is ``(suite, id, run, outcome)``: ``run(sampler)`` calls the suite's
library function with a sampler that records each stream it opens. An
outcome ``(error, message)`` asserts that exact class and message and that
no stream was opened; the table suites take no sampler, so for them the
second assertion holds by construction. A callable outcome gets the report
and the opened streams of a call that must keep running.
"""

import re

import numpy as np
import pytest

from gyrokit.cli import SUITE_TABLE
from gyrokit.core import WITNESSES, check_axioms, check_identities
from gyrokit.errors import AxiomViolationError, ResourceLimitError, SamplingError, UsageError
from gyrokit.models import EinsteinModel, MobiusModel, check_strong_base
from gyrokit.prenorm import (
    FiniteChain,
    RadialChain,
    check_metric_properties,
    check_prenorm_properties,
    validate_admissible_chain,
)
from gyrokit.sampling import MAX_SAMPLE_VALUES, Sampler
from gyrokit.tables import (
    CayleyTable,
    TableModel,
    check_cosets,
    check_search,
    check_subgyrogroups,
    cyclic_table,
    validate_table,
)


class Recording(Sampler):
    def __init__(self, seed=1):
        super().__init__(seed)
        self.opened = []

    def stream(self, suite, check):
        self.opened.append(check)
        return super().stream(suite, check)


def _too_large(rows, dim):
    return ResourceLimitError, f"{rows} samples of dimension {dim} are too large"


BELOW_ONE = (SamplingError, "sample count must be >= 1")


def _radial(check, **chain):
    return lambda n: lambda s: check(RadialChain(MobiusModel(), **chain), s, n_samples=n)


def _finite(check):
    return lambda s: check(FiniteChain(TableModel(cyclic_table(6)), [0, 3]), s, n_samples=0)


def _count_rows(suite, call, oversized, too_large):
    """The rows of a continuous suite: counts 0 and -5, and one past the cap."""
    return [(suite, "n=0", call(0), BELOW_ONE), (suite, "n=-5", call(-5), BELOW_ONE),
            (suite, f"n={oversized}", call(oversized), too_large)]


def _halving_report(rep, opened):
    # ratio 0.6 fails the halving condition: the one-check report, no draw
    assert [c.name for c in rep.checks] == ["halving_condition"] and not rep.passed
    assert opened == []


def _exhaustive(rep, opened):
    assert rep.passed and opened == []
    assert {c.samples for c in rep.checks} == {"exhaustive"}


def _whole_ball(rep, opened):
    # the whole carrier is the ball of radius 1, fixed by every gyration
    assert rep.passed and opened[0] == "ball_invariance_r=1"


def _one_sample_admissible(rep, opened):
    # a count of 1 still draws 16 points a level, and the extreme point
    # makes 17
    assert rep.check("level_0_double_sum").samples == 17
    assert len(opened) == 4


def _failing_table(rep, opened):
    assert not rep.passed and not rep.check("G1_unique_identity").passed


# axioms: the witness checks draw WITNESSES rows per sample, so the plain
# checks of this count fit the cap and the suite is refused all the same
_AXIOM_CAP = MAX_SAMPLE_VALUES // 9 + 1
assert _AXIOM_CAP * 3 <= MAX_SAMPLE_VALUES
_NO_IDENTITY = np.array([[0, 1], [0, 1]])

ROWS = [
    ("axioms", "n=0", lambda s: check_axioms(MobiusModel(), s, 0), BELOW_ONE),
    ("axioms", "n=-5", lambda s: check_axioms(MobiusModel(), s, -5), BELOW_ONE),
    ("axioms", f"einstein-n={_AXIOM_CAP}", lambda s: check_axioms(EinsteinModel(), s, _AXIOM_CAP),
     _too_large(_AXIOM_CAP * WITNESSES, 3)),
    ("axioms", "z67", lambda s: check_axioms(TableModel(cyclic_table(67)), s),
     (ResourceLimitError, "exhaustive check over 4 operands infeasible for order 67")),
    *_count_rows("identities", lambda n: lambda s: check_identities(MobiusModel(), s, n),
                 MAX_SAMPLE_VALUES // 2 + 1, _too_large(MAX_SAMPLE_VALUES // 2 + 1, 2)),
    *_count_rows("strong-base",
                 lambda n: lambda s: check_strong_base(MobiusModel(), sampler=s, n_samples=n),
                 10**8, _too_large(10**8, 2)),
    *[("strong-base", f"radii={radii}", lambda s, m=model, r=radii: check_strong_base(
        m, ball_radii=r, sampler=s, n_samples=100), (UsageError, message))
      for model, radii, message in [
          # outside (0, 1] or not finite, or two radii whose tags r={r:g}
          # collide (they would name six checks three ways and read one stream)
          (MobiusModel(), [0.5, 0.5000001], "share the tag r=0.5"),
          (EinsteinModel(), [1.5], "(0,1], got 1.5"),
          (EinsteinModel(), [0.5, 1.0000001], "(0,1], got 1.0000001"),
          (MobiusModel(), [-0.5], "got -0.5"),
          (MobiusModel(), [0.0], "got 0.0"),
          (MobiusModel(), [float("nan")], "got nan"),
          (MobiusModel(), [float("inf")], "got inf"),
      ]],
    # a center that is no point of the carrier: not numbers, of the wrong
    # shape, not finite, or on or outside the boundary
    *[("strong-base", f"center={center}", lambda s, m=model, c=center: check_strong_base(
        m, sampler=s, n_samples=100, center=c), (UsageError, f"be a point of {model.name}, got"))
      for model, center in [
          (MobiusModel(), "ab"),
          (MobiusModel(), [[0.0], [0.0, 0.0]]),
          (MobiusModel(), [0.0, 0.0, 0.0]),
          (MobiusModel(), [[0.0, 0.0]]),
          (MobiusModel(), [5.0, 0.0]),
          (MobiusModel(), [1.0, 0.0]),
          (MobiusModel(), [float("nan"), 0.0]),
          (EinsteinModel(), [0.0, 1.0, 0.0]),
          (EinsteinModel(), [0.0, -float("inf"), 0.0]),
      ]],
    ("strong-base", "radius-1",
     lambda s: check_strong_base(EinsteinModel(), ball_radii=[1.0], sampler=s, n_samples=100),
     _whole_ball),
    *_count_rows("prenorm", _radial(check_prenorm_properties), 10**8, _too_large(10**8, 2)),
    *_count_rows("metric", _radial(check_metric_properties), 10**8, _too_large(10**8, 2)),
    *[(suite, f"ratio-0.6-n={n}", _radial(check, ratio=0.6)(n), _halving_report)
      for suite, check in (("prenorm", check_prenorm_properties),
                           ("metric", check_metric_properties))
      for n in (0, -5, 10**8)],
    *[(suite, "finite-n=0", _finite(check), _exhaustive)
      for suite, check in (("prenorm", check_prenorm_properties),
                           ("metric", check_metric_properties),
                           ("admissible", validate_admissible_chain))],
    # a level draws max(16, n // depth) points, so 10**10 asks for 416666666
    *_count_rows("admissible", _radial(validate_admissible_chain), 10**10,
                 _too_large(10**10 // 24, 2)),
    *[("admissible", f"depth-4-n={n}", _radial(validate_admissible_chain, depth=4)(n), BELOW_ONE)
      for n in (0, -5)],
    ("admissible", "depth-4-n=1", _radial(validate_admissible_chain, depth=4)(1),
     _one_sample_admissible),
    ("table-validate", "no-identity", lambda s: validate_table(CayleyTable(_NO_IDENTITY)),
     _failing_table),
    ("subgyrogroups", "no-identity", lambda s: check_subgyrogroups(CayleyTable(_NO_IDENTITY)),
     (AxiomViolationError, "table has 0 two-sided identities, expected exactly 1")),
    ("cosets", "index-4-of-z4", lambda s: check_cosets(cyclic_table(4), [0, 4]),
     (UsageError, "subgyrogroup indices must lie in [0,4), got [0, 4]")),
    ("search", "order-0", lambda s: check_search(0), (UsageError, "order must be >= 1")),
    ("search", "order-7", lambda s: check_search(7),
     (ResourceLimitError, "exhaustive search is supported for order <= 6")),
]


def test_every_suite_has_a_row():
    assert {row[0] for row in ROWS} == set(SUITE_TABLE)


@pytest.mark.parametrize("run,outcome", [row[2:] for row in ROWS],
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS])
def test_every_suite_refuses_before_it_opens_a_stream(run, outcome):
    sampler = Recording()
    if callable(outcome):
        outcome(run(sampler), sampler.opened)
        return
    error, message = outcome
    with pytest.raises(error, match=re.escape(message)) as caught:
        run(sampler)
    assert type(caught.value) is error
    assert sampler.opened == []
