"""Structured outcome of a verification run.

``status`` is ``"pass"`` or ``"fail"`` for checked identities (pass iff no
failures and at least one instance was checked) and ``"report_only"`` for
surveys that record findings without gating: their findings dict is the
payload and ``failures`` stays reserved for hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class VerificationReport:
    identity_id: str
    parameter_samples: list[dict[str, str]] = field(default_factory=list)
    instances_checked: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    status: str = "fail"
    findings: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def checked(
        cls,
        identity_id: str,
        parameter_samples: list[dict[str, str]],
        instances_checked: int,
        failures: list[dict[str, Any]],
    ) -> VerificationReport:
        status = "pass" if instances_checked > 0 and not failures else "fail"
        return cls(identity_id, parameter_samples, instances_checked, failures, status)

    @classmethod
    def survey(
        cls,
        identity_id: str,
        parameter_samples: list[dict[str, str]],
        instances_checked: int,
        findings: dict[str, Any],
    ) -> VerificationReport:
        return cls(identity_id, parameter_samples, instances_checked, [], "report_only", findings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "identity_id": self.identity_id,
            "status": self.status,
            "instances_checked": self.instances_checked,
            "parameter_samples": self.parameter_samples,
            "failures": self.failures,
            "findings": self.findings,
        }


def merge_reports(identity_id: str, reports: list[VerificationReport]) -> VerificationReport:
    """Aggregate same-identity reports over many parameter samples.

    Samples are kept once each, in first-seen order.
    """
    samples: list[dict[str, str]] = []
    seen: set[frozenset[tuple[str, str]]] = set()
    for report in reports:
        for sample in report.parameter_samples:
            key = frozenset(sample.items())
            if key not in seen:
                seen.add(key)
                samples.append(sample)
    instances = sum(report.instances_checked for report in reports)
    failures = [entry for report in reports for entry in report.failures]
    if any(report.status == "report_only" for report in reports):
        findings: dict[str, Any] = {}
        for report in reports:
            for key, value in report.findings.items():
                findings.setdefault(key, []).append(value)
        return VerificationReport.survey(identity_id, samples, instances, findings)
    return VerificationReport.checked(identity_id, samples, instances, failures)
