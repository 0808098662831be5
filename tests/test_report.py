import json

import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import BaselineError, ParameterError
from tlmkit.report import SCHEMA_VERSION, VerificationReport, safe_ratio


def make_report(**kw):
    base = dict(check="demo", parameters={"n": 1}, lhs=1.0, rhs=2.0,
                ratio=0.5, verdict="pass")
    base.update(kw)
    return VerificationReport(**base)


def test_safe_ratio_conventions():
    assert safe_ratio(0.0, 0.0) == 1.0
    assert safe_ratio(1.0, 0.0) == np.inf
    assert safe_ratio(3.0, 2.0) == 1.5


def test_report_validation():
    with pytest.raises(ParameterError):
        make_report(verdict="maybe")
    with pytest.raises(ParameterError):
        make_report(lhs=np.nan)
    rep = make_report()
    assert rep.verdict == "pass"
    d = rep.to_dict()
    assert d["check"] == "demo" and d["verdict"] == "pass"


def test_payload_and_atomic_write(tmp_path):
    reports = [make_report(), make_report(check="other", verdict="fail")]
    payload = tk.report_payload(reports, {"seed": 1})
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["n_checks"] == 2 and payload["n_failed"] == 1
    path = tmp_path / "sub" / "report.json"
    path.parent.mkdir()
    tk.write_json(path, payload)
    loaded = json.loads(path.read_text())
    assert loaded["checks"][0]["check"] == "demo"
    # no stray temp files left next to the report
    assert list(path.parent.iterdir()) == [path]
    # non-finite floats are spelled as strings, at any depth
    tk.write_json(path, {"r": np.inf, "details": {"drift": [-np.inf, np.nan]}})
    assert json.loads(path.read_text()) == {"r": "inf", "details": {"drift": ["-inf", "nan"]}}


def test_baseline_store_round_trip(tmp_path):
    store = tk.BaselineStore({"a": 1.5, "b": 2.0}, {"config": {}, "created": "now"})
    path = tmp_path / "base.json"
    store.save(path)
    with pytest.raises(BaselineError):
        store.save(path)  # refuses overwrite
    store.save(path, force=True)
    again = tk.BaselineStore.load(path)
    assert again.constants == {"a": 1.5, "b": 2.0}
    assert again.maybe("a") == 1.5
    assert again.maybe("missing") is None


def test_baseline_rejects_bad_documents(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"schema_version": 99, "constants": {}}))
    with pytest.raises(BaselineError):
        tk.BaselineStore.load(path)
    path.write_text(json.dumps(
        {"schema_version": SCHEMA_VERSION, "constants": {"a": "not-a-number"}}))
    with pytest.raises(BaselineError):
        tk.BaselineStore.load(path)
    path.write_text("not json")
    with pytest.raises(BaselineError):
        tk.BaselineStore.load(path)


def test_bundled_baseline_present():
    store = tk.BaselineStore.bundled()
    assert len(store.constants) >= 20
    assert "vector-maximal[p=4,q=2,r=2]" in store.constants
