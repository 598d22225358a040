"""Output checks for benchmark requests, run after the timed passes.

Every answer is compared with the brute-force nested-sum oracle
(``oracle.truncated_series_b``), fed with divisor-count weights that the
benchmark computes itself.  A request ends in one of three outcomes:

- ``ok``: the output is what the program must print;
- ``expected-fail``: a verify run whose only FAIL lines are the known
  q-polynomial defect at depth >= 4 (cleared degrees (3, 6, 8, 9) against the
  stated bound 2d-1 = 7).  It counts as a failed request, but not as a wrong
  output;
- anything else is a failure with a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction

from mzvff import oracle
from mzvff.cli import main as cli_main
from mzvff.exactalg import FactoredRational, TruncatedSeries, render_series

OK = "ok"
EXPECTED_FAIL = "expected-fail"
KNOWN_DEFECT = ("q-polynomial", 4)  # check name, smallest failing depth


def names_for(ring: str, depth: int) -> list[str]:
    if ring == "genus" and depth == 2:
        return ["u", "v"]
    return [f"x{i + 1}" for i in range(depth)]


def weights(req: dict):
    q = req["q"]
    if req["ring"] == "poly":
        return lambda n: q**n
    if req["ring"] == "rational":
        return lambda n: (q ** (n + 1) - 1) // (q - 1)
    spec = req["spec"]
    g, h, b = spec["genus"], spec["class_number"], spec["b"]
    return lambda n: b[n] if n <= 2 * g - 2 else h * (q ** (n - g + 1) - 1) // (q - 1)


def parse_series_text(text: str, names: list[str]) -> dict:
    """Invert render_series: 'x1^2*x3: 5/3' lines to {exponents: Fraction}."""
    index = {name: i for i, name in enumerate(names)}
    coeffs = {}
    for line in text.splitlines():
        monomial, _, coeff = line.partition(": ")
        exps = [0] * len(names)
        if monomial != "1":
            for factor in monomial.split("*"):
                name, _, power = factor.partition("^")
                exps[index[name]] = int(power or 1)
        coeffs[tuple(exps)] = Fraction(coeff)
    return coeffs


class Checker:
    """Judges request outputs; oracle series and JSON twins are memoized."""

    def __init__(self):
        self._series: dict = {}
        self._twins: dict = {}

    def expected_series(self, req: dict, depth: int, bound: int) -> TruncatedSeries:
        key = (req["ring"], req["q"], json.dumps(req["spec"], sort_keys=True), depth, bound)
        if key not in self._series:
            if req["ring"] == "genus" and depth == 2:
                # (u, v) = (x1*x2, x2): u^n v^m is the x-monomial x1^n x2^(n+m).
                direct = oracle.truncated_series_b(weights(req), 2, 2 * bound)
                coeffs = {
                    (n, m): direct.coefficient((n, n + m))
                    for n in range(bound + 1)
                    for m in range(bound + 1)
                }
                self._series[key] = TruncatedSeries(2, bound, coeffs)
            else:
                self._series[key] = oracle.truncated_series_b(weights(req), depth, bound)
        return self._series[key]

    def judge(self, req: dict, rc, out: str) -> str:
        if rc is None:
            return "fail: the request raised"
        if req["kind"] == "reject":
            return OK if rc == req["exit"] else f"fail: exit {rc}, expected {req['exit']}"
        try:
            if req["kind"] == "verify":
                return self.judge_verify(req, rc, out)
            if rc != 0:
                return f"fail: exit {rc}"
            return getattr(self, "judge_" + req["kind"].replace("-", "_"))(req, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"fail: unreadable output ({exc!r})"

    def judge_series(self, req: dict, out: str) -> str:
        depth, bound = req["depth"], req["trunc"]
        names = names_for(req["ring"], depth)
        expected = self.expected_series(req, depth, bound)
        if req["format"] == "json":
            payload = json.loads(out)
            good = payload["series"] == expected.to_dict() and payload["variables"] == names
        else:
            good = out == render_series(expected, names) + "\n"
        return OK if good else "fail: series differs from the oracle"

    def judge_closed_form(self, req: dict, out: str) -> str:
        if req["format"] == "json":
            return self._closed_form_value(req, json.loads(out))
        twin = self._json_twin(req)
        verdict = self._closed_form_value(req, twin)
        if verdict != OK:
            return verdict
        return OK if out == twin["text"] + "\n" else "fail: text differs from the JSON rendering"

    def _closed_form_value(self, req: dict, payload: dict) -> str:
        """The value's series on a small box must equal the oracle's."""
        depth = req["depth"]
        bound = 3 if depth <= 3 else 2
        value = FactoredRational.from_dict(payload["value"])
        if value.series(bound) != self.expected_series(req, depth, bound):
            return "fail: closed form disagrees with the oracle"
        return OK

    def _json_twin(self, req: dict) -> dict:
        """The same request in JSON, computed here outside the timed region."""
        argv = list(req["argv"])
        argv[argv.index("--format") + 1] = "json"
        key = json.dumps([argv[:-2], req["spec"]], sort_keys=True)
        if key not in self._twins:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                cli_main(argv)
            self._twins[key] = json.loads(buffer.getvalue())
        return self._twins[key]

    def judge_euler(self, req: dict, out: str) -> str:
        """The Euler product must agree with the zeta series on the box of
        y-degrees <= max-degree, where no larger irreducible contributes."""
        depth, top = req["depth"], req["max_degree"]
        names = names_for("poly", depth)
        if req["format"] == "json":
            got = {tuple(e): Fraction(c) for e, c in json.loads(out)["series"]["coefficients"]}
        else:
            got = parse_series_text(out, names)
        expected = self.expected_series(req, depth, depth * top)
        for exps in agreement_box(depth, top):
            if got.get(exps, 0) != expected.coefficient(exps):
                return f"fail: Euler product differs from the oracle at {exps}"
        return OK

    def judge_verify(self, req: dict, rc: int, out: str) -> str:
        if req["format"] == "json":
            payload = json.loads(out)
            rows = [(r["check"], r["params"], r["passed"]) for r in payload["results"]]
            if payload["total"] != len(rows) or payload["failed"] != sum(not p for *_, p in rows):
                return "fail: verify totals do not match its results"
        else:
            lines = out.splitlines()
            summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
            if summary is None:
                return "fail: verify printed no summary line"
            rows = [_parse_verify_line(line) for line in lines[:-1]]
            if int(summary[2]) != len(rows) or int(summary[1]) != sum(p for *_, p in rows):
                return "fail: verify summary does not match its lines"
        failed = [(check, params) for check, params, passed in rows if not passed]
        if rc != (1 if failed else 0):
            return f"fail: verify exit {rc} with {len(failed)} failed checks"
        if not failed:
            return OK
        known, depth = KNOWN_DEFECT
        if all(check == known and int(params.get("depth", 0)) >= depth for check, params in failed):
            return EXPECTED_FAIL
        return f"fail: verify reported {failed[0][0]} {failed[0][1]}"


def _parse_verify_line(line: str) -> tuple[str, dict, bool]:
    match = re.match(r"(PASS|FAIL) (\S+)(?: \[([^\]]*)\])?", line)
    if match is None:
        raise ValueError(f"unexpected verify line {line!r}")
    params = dict(item.split("=", 1) for item in (match[3] or "").split())
    return match[2], params, match[1] == "PASS"


def agreement_box(depth: int, top: int):
    """x-exponents m_k = c_1 + ... + c_k for y-degrees c in 0..top."""
    from itertools import accumulate, product

    for c in product(range(top + 1), repeat=depth):
        yield tuple(accumulate(c))
