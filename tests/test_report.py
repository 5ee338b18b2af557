from rcbrackets.report import VerificationReport, merge_reports


def test_checked_pass():
    report = VerificationReport.checked("id", [{"lam1": "1"}], 10, [])
    assert report.status == "pass"
    assert report.to_dict()["status"] == "pass"


def test_checked_fail_on_failures():
    report = VerificationReport.checked("id", [], 10, [{"n": 1}])
    assert report.status == "fail"
    assert report.failures == [{"n": 1}]


def test_checked_fail_on_zero_instances():
    # a checked suite that never ran anything must not claim success
    report = VerificationReport.checked("id", [], 0, [])
    assert report.status == "fail"


def test_survey_is_report_only():
    report = VerificationReport.survey("id", [], 5, {"outcome": True})
    assert report.status == "report_only"
    assert report.findings == {"outcome": True}


def test_to_dict_shape():
    report = VerificationReport.checked("some-id", [{"lam1": "1/2"}], 3, [])
    doc = report.to_dict()
    assert set(doc) == {
        "identity_id",
        "parameter_samples",
        "instances_checked",
        "failures",
        "status",
        "findings",
    }
    assert doc["identity_id"] == "some-id"
    assert doc["instances_checked"] == 3


def test_merge_reports_combines_counts_and_failures():
    a = VerificationReport.checked("id", [{"s": "1"}], 4, [])
    b = VerificationReport.checked("id", [{"s": "2"}], 6, [{"bad": 1}])
    merged = merge_reports("id", [a, b])
    assert merged.instances_checked == 10
    assert merged.status == "fail"
    assert merged.failures == [{"bad": 1}]
    assert {"s": "1"} in merged.parameter_samples
    assert {"s": "2"} in merged.parameter_samples


def test_merge_reports_pass_when_all_pass():
    a = VerificationReport.checked("id", [], 4, [])
    b = VerificationReport.checked("id", [], 6, [])
    assert merge_reports("id", [a, b]).status == "pass"


def test_merge_reports_empty_cannot_pass():
    merged = merge_reports("id", [])
    assert merged.status == "fail"
    assert merged.instances_checked == 0


def test_merge_reports_with_survey_is_report_only():
    a = VerificationReport.checked("id", [], 4, [])
    b = VerificationReport.survey("id", [], 2, {"note": True})
    merged = merge_reports("id", [a, b])
    assert merged.status == "report_only"
    assert merged.findings["note"] == [True]


def test_merge_reports_keeps_first_seen_order_without_duplicates():
    a = VerificationReport.checked("id", [{"s": "2"}, {"s": "1"}], 1, [])
    b = VerificationReport.checked("id", [{"s": "1"}, {"s": "3"}, {"s": "2"}], 1, [])
    c = VerificationReport.checked("id", [{"s": "3"}, {"s": "4"}], 1, [])
    merged = merge_reports("id", [a, b, c])
    assert merged.parameter_samples == [{"s": "2"}, {"s": "1"}, {"s": "3"}, {"s": "4"}]
