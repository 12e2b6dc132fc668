"""The one record shape of every check in every report.

`check_record` builds a check record; every command's report carries its
checks in that shape, and `records` finds them again.  This module imports
nothing from the package, so every module that builds a report can use it.
"""

RECORD_KEYS = ("check", "samples", "tolerance", "max_deviation", "passed")


def check_record(name, samples, tolerance, deviation, **values):
    """One check: its name, sample count, tolerance, worst deviation, verdict.

    The check passes when the deviation is below the tolerance; a deviation
    of exactly zero passes at any tolerance, so tolerance 0 demands exact
    agreement.  Named values (the player, the gain under test, ...) follow
    the five record keys.
    """
    deviation = float(deviation)
    return {
        "check": name,
        "samples": int(samples),
        "tolerance": float(tolerance),
        "max_deviation": deviation,
        "passed": bool(deviation < tolerance or deviation == 0.0),
        **values,
    }


def records(report):
    """Every check record inside a report, in report order."""
    if isinstance(report, dict):
        if "check" in report:
            yield report
            return
        report = report.values()
    for value in report:
        if isinstance(value, (dict, list)):
            yield from records(value)


def all_passed(report):
    """Whether every check record inside the report passed."""
    return all(r["passed"] for r in records(report))
