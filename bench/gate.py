"""Exactness gate over the first output of every job.

A job passes when its report parses, every ``check`` row passes, a
``structure`` verdict is ``pass``, its ``normal_form`` agrees with the
other pipelines run on the same input on their common degrees, and its
``normal_form`` and ``generator`` arrays match the sha256 digests pinned
in ``digests.json``.  Every seed draws the inputs of a pinned seed
(``inputs.input_seed``), so a job without a pin fails.

Only those arrays are digested, not whole reports, so that schema
additions elsewhere in a report do not break the pins.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGESTED = ("normal_form", "generator")
AGREEING = ("lie_s", "trees_s", "onedof_s", "check_s")


def short_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_key(input_text: str, argv) -> str:
    return f"{short_sha(input_text)} {' '.join(argv)}"


def array_digests(report: dict) -> dict[str, str]:
    return {
        key: short_sha(json.dumps(report[key], sort_keys=True, separators=(",", ":")))
        for key in DIGESTED
        if key in report
    }


def coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length in the digested arrays."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return 0
    bits = 0
    for key in DIGESTED:
        for row in report.get(key, []):
            for part in row["coeff"].values():
                for number in part.lstrip("-").split("/"):
                    bits = max(bits, int(number).bit_length())
    return bits


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _order(argv, document: dict) -> int:
    argv = list(argv)
    return int(argv[argv.index("--order") + 1]) if "--order" in argv else document["order"]


def _truncated(rows: list[dict], order: int) -> str:
    kept = [r for r in rows if sum(r["alpha"]) + sum(r["beta"]) <= order]
    return json.dumps(kept, sort_keys=True)


def _report_failure(job, report: dict, expected: dict | None, skipped: list) -> str | None:
    """Why one parsed report fails the gate, or None."""
    if job.metric == "check_s":
        skipped += [r["name"] for r in report["checks"] if r["detail"].startswith("skipped")]
        bad = [r["name"] for r in report["checks"] if not r["pass"]]
        if bad:
            return f"check rows failed: {bad}"
    if job.metric == "structure_s" and report["verdict"] != "pass":
        return "structure verdict is not pass"
    if expected is None:
        return "no pinned normal_form/generator digest for this input and job"
    if array_digests(report) != expected:
        return "normal_form/generator digest differs from the pin"
    return None


def check_input(item, outputs: dict, pinned: dict) -> tuple[dict, dict]:
    """Gate the jobs of one input.

    ``outputs`` maps job index to report text.  Returns {job index: reason}
    for the failed jobs, and the digest counts and skipped check rows.
    """
    failed: dict[int, str] = {}
    summary = {"digests_checked": 0, "digests_unpinned": 0, "skipped_rows": []}
    forms = {}
    for index, job in enumerate(item.jobs):
        expected = pinned.get(digest_key(item.text(), job.argv))
        summary["digests_checked" if expected is not None else "digests_unpinned"] += 1
        try:
            report = json.loads(outputs[index])
            reason = _report_failure(job, report, expected, summary["skipped_rows"])
            if job.metric in AGREEING:
                forms[index] = (_order(job.argv, item.document), report["normal_form"])
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            reason = f"no report of the expected shape ({exc!r})"
        if reason:
            failed[index] = reason
    if forms:
        common = min(order for order, _ in forms.values())
        reference_index = min(forms)
        reference = _truncated(forms[reference_index][1], common)
        for index, (_, rows) in forms.items():
            if _truncated(rows, common) != reference:
                failed[index] = (
                    f"normal_form differs from job {reference_index} "
                    f"through degree {common}"
                )
                failed.setdefault(reference_index, "normal_form disagreement")
    return failed, summary
