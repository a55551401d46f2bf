"""The digest seeded-scenario tests pin their reports with.

A seeded report is a pure function of its arguments, so its sha256 pins
the whole event sequence that produced it.  A change that moves one on
purpose re-pins the test and keeps the old value in a comment.
"""

import hashlib
import json


def report_digest(report) -> str:
    """sha256 of ``json.dumps(report, sort_keys=True)``."""
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
