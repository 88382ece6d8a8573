"""Failure classifier: compares an operation's numbers with the oracle.

An operation fails when it raised, passed its deadline, exited with an
unexpected code, or returned a number whose error against the oracle is
above `FAIL_ERR`. Correct digits are -log10(error), capped at `DIGITS_CAP`;
a value with no error at all counts as `DIGITS_CAP` digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FAIL_ERR = 1e-8
DIGITS_CAP = 15.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None     # "raised", "deadline", "exit code" or "digits"
    digits: float | None   # fewest correct digits over the checked numbers
    worst_error: float | None


def _errors(got: list, want: list, measure: str) -> list[float]:
    if len(got) != len(want):
        return [math.inf]
    if measure == "norm":
        scale = max((abs(w) for w in want), default=0.0)
        diff = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        return [diff / scale if scale else diff]
    out = []
    for g, w in zip(got, want):
        err = abs(g - w)
        if measure == "rel" and w != 0.0:
            err /= abs(w)
        out.append(err if err == err else math.inf)  # NaN counts as wrong
    return out


def digits(err: float) -> float:
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def classify(status: str, got: dict | None, want: dict,
             exit_code: int | None = None, expected_exit: int | None = None) -> Verdict:
    """Verdict for one operation.

    status is "ok", "raised" or "deadline"; got and want map a key to
    (numbers, measure) as built in workloads.py.
    """
    if status != "ok":
        return Verdict(False, status, None, None)
    if expected_exit is not None and exit_code != expected_exit:
        return Verdict(False, "exit code", None, None)
    errs = []
    for key, (numbers, measure) in want.items():
        if got is None or key not in got:
            errs.append(math.inf)
            continue
        errs.extend(_errors(got[key][0], numbers, measure))
    if not errs:
        return Verdict(True, None, None, None)
    worst = max(errs)
    return Verdict(worst <= FAIL_ERR, None if worst <= FAIL_ERR else "digits",
                   digits(worst), worst)
