from hypothesis import given, strategies as st

from lieconformal.reports import FAIL, PASS, SKIPPED, CheckItem, Report

_labels = st.text(max_size=4)
_checks = st.lists(
    st.tuples(_labels, st.sampled_from((PASS, FAIL, SKIPPED)), st.lists(_labels, max_size=2).map(tuple)),
    max_size=12,
)


def _report(title, checks):
    report = Report(title)
    for check_id, status, witnesses in checks:
        report.add(check_id, status, witnesses)
    return report


def test_summary_renders_no_check(monkeypatch):
    report = _report("r", [("a", PASS, ()), ("b", FAIL, ("w",)), ("c", SKIPPED, ("beyond depth",))])

    def refuse(self):
        raise AssertionError("summary() rendered a check")

    monkeypatch.setattr(CheckItem, "to_dict", refuse)
    assert report.summary() == "r: fail (1 pass, 1 fail, 1 skipped)"


@given(_labels, _checks)
def test_summary_agrees_with_to_dict(title, checks):
    report = _report(title, checks)
    d = report.to_dict()
    counts = d["counts"]
    assert report.summary() == (
        f"{title}: {d['status']} ({counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped)"
    )
    assert d["status"] == (PASS if report.passed else FAIL)
    assert counts == {status: sum(1 for _, s, _ in checks if s == status) for status in (PASS, FAIL, SKIPPED)}
    assert [c["id"] for c in d["checks"]] == [check_id for check_id, _, _ in checks]
