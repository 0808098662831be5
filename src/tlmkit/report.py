"""Verification reports, JSON emission, and calibration baselines."""

from __future__ import annotations

import datetime
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .errors import BaselineError, ParameterError

__all__ = [
    "VerificationReport",
    "BaselineStore",
    "safe_ratio",
    "write_json",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

VERDICTS = ("pass", "fail", "not-decided")


def safe_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs with the 0/0 -> 1 convention (a vacuous bound holds)."""
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else np.inf
    return lhs / rhs


@dataclass
class VerificationReport:
    """One named check: inputs, both sides of the bound, and a verdict."""

    check: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    verdict: str
    empirical_constant: float = None
    baseline_constant: float = None
    runtime: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ParameterError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")
        for name in ("lhs", "rhs", "ratio"):
            v = getattr(self, name)
            if v is None or not np.isfinite(v):
                raise ParameterError(f"report field {name} must be finite, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)


def _strict(obj):
    """``obj`` with every non-finite float spelled as a string ("inf", "-inf",
    "nan"): strict JSON has no such numbers."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return "nan" if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    """Atomic strict-JSON write (temp file + rename), sorted keys.

    Non-finite floats are written as "inf", "-inf" or "nan".
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the caller's path, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def report_payload(reports, config_meta: dict) -> dict:
    """Assemble the JSON document for a list of reports.

    Deterministic given the same inputs, apart from the timestamp field.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config_meta,
        "n_checks": len(reports),
        "n_failed": sum(1 for r in reports if r.verdict == "fail"),
        "checks": [r.to_dict() for r in reports],
    }


@dataclass(frozen=True)
class BaselineStore:
    """Pilot-calibrated empirical constants keyed by check id."""

    constants: dict
    provenance: dict

    def maybe(self, check_id: str):
        return self.constants.get(check_id)

    @classmethod
    def load(cls, path) -> "BaselineStore":
        """Read and validate a baseline file; a BaselineError names the file."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise BaselineError(f"malformed baseline {path}: {exc}") from exc
        return cls._from_doc(doc, str(path))

    @classmethod
    def bundled(cls) -> "BaselineStore":
        """The baseline shipped with the package, read by load."""
        return cls.load(resources.files("tlmkit").joinpath("data/baseline.json"))

    @classmethod
    def _from_doc(cls, doc, origin: str) -> "BaselineStore":
        if not isinstance(doc, dict):
            raise BaselineError(f"baseline {origin}: not a JSON object")
        version = doc.get("schema_version")
        # JSON true and 1.0 compare equal to 1 but are not an integer version
        if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
            raise BaselineError(
                f"baseline {origin}: schema_version "
                f"{version!r} != {SCHEMA_VERSION}"
            )
        constants = doc.get("constants")
        if not isinstance(constants, dict):
            raise BaselineError(f"baseline {origin}: missing constants map")
        for key, value in constants.items():
            # abs(value) compares a JSON integer of any size with the float range
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise BaselineError(
                    f"baseline {origin}: constant {key!r} is not a finite number"
                )
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise BaselineError(f"baseline {origin}: provenance is not an object")
        return cls({k: float(v) for k, v in constants.items()}, provenance)

    def save(self, path, force: bool = False) -> None:
        if os.path.exists(path) and not force:
            raise BaselineError(f"{path} exists; pass force to overwrite")
        write_json(path, {
            "schema_version": SCHEMA_VERSION,
            "provenance": self.provenance,
            "constants": self.constants,
        })
