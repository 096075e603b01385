import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polylim import (
    FAMILY_GAMMA,
    FAMILY_POLYGAMMA,
    DomainError,
    LimitSpec,
    cotderiv,
    expansion,
    limits,
    polygamma,
    probe_limit,
    verify,
)
from polylim.cli import main
from polylim.errors import MAX_EVAL_ORDER, MAX_TABLE_ORDER

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN_COEFFS_ORDER1_JSON = """\
[
  {
    "order": 1,
    "sin_exponent": 2,
    "harmonics": [
      [
        0,
        "-1"
      ]
    ]
  }
]
"""

GOLDEN_POLYGAMMA_LIMIT_JSON = """\
{
  "spec": {
    "family": "polygamma-ratio",
    "i": 2,
    "n": 3,
    "q": 2,
    "k": 1
  },
  "value": {
    "numerator": "8",
    "denominator": "27"
  }
}
"""

GOLDEN_VERIFY_ALL = """\
PASS coefficient-sum-identity (orders 1..50 exact)
PASS oracle-equivalence (orders 1..25 at 50 points)
PASS unified-piecewise-agreement (240 table harmonics and 225 unified pairs exact)
PASS finite-difference-consistency (orders 1..8)
PASS parity (orders 1..30)
PASS exact-harmonic-extraction (orders 1..12 exact)
PASS bernoulli-recurrence (B0..B59 exact)
PASS recurrence-identity (orders 0..8 at 100 points)
PASS series-oracle-agreement (orders 1..8, 1000 terms)
PASS reflection-identity (orders 0..8 at 50 points)
PASS sign-pattern (orders 1..8 on x > 0)
PASS path-bookkeeping (methods match regions)
PASS exact-reciprocity (n,q,k <= 6)
PASS polygamma-symmetry (i <= 5, n,q <= 6)
PASS laurent-residue-unit (poles 0..20)
PASS theorem-probe-grid (72 probes converged)
PASS gamma-probe-grid (15 probes converged)
PASS pole-independence (k=0..3 agree)
PASS monotone-improvement (extrapolation beats last sample)
19/19 checks passed in suite 'all'
"""

# The four theorem probes that pole-independence compares: i=2, n=3, q=2.
POLE_PROBES = [LimitSpec(FAMILY_POLYGAMMA, 3, 2, k, 2) for k in range(4)]


def child_env():
    """This process's environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polylim", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ordered(text):
    """Parsed JSON with every object as its list of (key, value) pairs."""
    return json.loads(text, object_pairs_hook=list)


def fraction_pairs(value):
    return [("numerator", str(value.numerator)),
            ("denominator", str(value.denominator))]


def spec_pairs(spec):
    return [("family", spec.family), ("i", spec.derivative_order),
            ("n", spec.numerator_scale), ("q", spec.denominator_scale),
            ("k", spec.pole_index)]


class TestGoldenInvocations:
    def test_polygamma_limit_prints_quarter(self):
        cp = run_cli("limit", "--family", "polygamma", "--i", "1", "--n", "2",
                     "--q", "1", "--k", "0")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "1/4\n"

    def test_coeffs_order_one_json(self):
        cp = run_cli("coeffs", "--order", "1", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == GOLDEN_COEFFS_ORDER1_JSON

    def test_polygamma_limit_json(self):
        cp = run_cli("limit", "--family", "polygamma", "--i", "2", "--n", "3",
                     "--q", "2", "--k", "1", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == GOLDEN_POLYGAMMA_LIMIT_JSON

    def test_gamma_limit_equal_scales(self):
        cp = run_cli("limit", "--family", "gamma", "--n", "3", "--q", "3",
                     "--k", "2")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "1\n"

    def test_outputs_are_byte_identical_across_runs(self):
        invocations = [
            ("limit", "--family", "polygamma", "--i", "1", "--n", "2",
             "--q", "1", "--k", "0"),
            ("coeffs", "--order", "1", "--format", "json"),
            ("limit", "--family", "gamma", "--n", "3", "--q", "3", "--k", "2"),
        ]
        for args in invocations:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


class TestCoeffs:
    def test_csv_table(self, capsys):
        code, out, _ = run_main(capsys, "coeffs", "--order", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order,sin_exponent,multiplier,coefficient"
        assert lines[1] == "1,2,0,-1"
        assert "4,5,1,22" in lines
        assert "4,5,3,2" in lines
        # one row per harmonic: 1 + 1 + 2 + 2
        assert len(lines) == 1 + 6

    def test_json_round_trips(self, capsys):
        code, out, _ = run_main(capsys, "coeffs", "--order", "7", "--format",
                                "json")
        assert code == 0
        parsed = ordered(out)
        assert len(parsed) == 7
        for order, obj in enumerate(parsed, start=1):
            e = expansion(order)
            assert obj == [
                ("order", e.order),
                ("sin_exponent", e.sin_exponent),
                ("harmonics", [[j, str(b)] for j, b in e.harmonics]),
            ]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_main(capsys, "coeffs", "--order", "2", "--output",
                                str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "1,2,0,-1"

    def test_bad_order_creates_no_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, _, err = run_main(capsys, "coeffs", "--order", "0", "--output",
                                str(target))
        assert (code, err) == (1, "polylim: max order must be >= 1, got 0\n")
        assert not target.exists()


class TestOutputFailures:
    """An --output or stdout that cannot be written is one stderr line and
    exit 1; a reader that leaves early is exit 1 alone."""

    def test_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        cp = run_cli("polygamma", "--order", "1", "--x", "2.0", "--output",
                     str(target))
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr == f"polylim: cannot write {target}: No such file or directory\n"

    def test_directory_in_place_of_a_file(self, tmp_path, capsys):
        code, out, err = run_main(capsys, "coeffs", "--order", "3", "--output",
                                  str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"polylim: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self):
        # The write fails at the flush when the file closes, not at open().
        cp = run_cli("coeffs", "--order", "50", "--output", "/dev/full")
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr == "polylim: cannot write /dev/full: No space left on device\n"

    def test_reader_that_leaves_early(self):
        # Megabytes of output, far beyond a pipe's buffer: the writes must
        # meet the closed pipe.  Exit 1, and nothing on stderr.
        child = subprocess.Popen(
            [sys.executable, "-m", "polylim", "coeffs", "--order", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        head = child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), head, err) == (1, b"order,sin_", b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout(self):
        with open("/dev/full", "w") as full:
            cp = subprocess.run(
                [sys.executable, "-m", "polylim", "coeffs", "--order", "50"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=child_env(),
            )
        assert (cp.returncode, cp.stderr) == (
            1, "polylim: cannot write <stdout>: No space left on device\n")


class TestEvalCot:
    def test_csv(self, capsys):
        code, out, _ = run_main(capsys, "eval-cot", "--order", "1", "--x",
                                "1.5707963267948966")
        assert code == 0
        header, row = out.splitlines()
        assert header == "order,x,value"
        fields = row.split(",")
        assert fields[0] == "1"
        assert float(fields[2]) == pytest.approx(-1.0)

    def test_json(self, capsys):
        code, out, _ = run_main(capsys, "eval-cot", "--order", "3", "--x",
                                "0.7853981633974483", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 3
        assert obj["value"] == pytest.approx(-16.0)

    def test_digits_are_the_same_on_every_python(self, capsys):
        # Python 3.12 compensates builtin sum() over floats, so the value is
        # summed by a plain loop.  mpmath gives 2048468218.56271979.
        assert run_main(capsys, "eval-cot", "--order", "8", "--x", "0.3") == (
            0, "order,x,value\n8,0.3,2048468218.5627186\n", ""
        )

    def test_out_of_range_is_computational_failure(self):
        cp = run_cli("eval-cot", "--order", "40", "--x", "1e-11")
        assert cp.returncode == 1
        assert cp.stderr.startswith("polylim: ")
        assert "Traceback" not in cp.stderr
        assert cp.stdout == ""

    def test_argument_near_double_max_prints_its_value(self):
        # libm's tan reduces 1e308 exactly; mpmath gives -122.525501480249266.
        cp = run_cli("eval-cot", "--order", "3", "--x", "1e308")
        assert cp.returncode == 0
        assert cp.stdout == "order,x,value\n3,1e+308,-122.52550148024923\n"
        assert cp.stderr == ""

    def test_pole_is_computational_failure(self, capsys):
        code, out, err = run_main(capsys, "eval-cot", "--order", "1", "--x",
                                  "3.141592653589793")
        assert code == 1
        assert "pole" in err.lower()
        assert out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (("eval-cot", "--order", "-1", "--x", "1"), "order must be >= 0, got -1"),
        (("polygamma", "--order", "-1", "--x", "1"), "order must be >= 0, got -1"),
        (
            ("eval-cot", "--order", "171", "--x", "1"),
            "order 171 exceeds double precision range (max 170)",
        ),
        (
            ("polygamma", "--order", "171", "--x", "1"),
            "order 171 exceeds double precision range (max 170)",
        ),
        (
            ("eval-cot", "--order", "2", "--x", "nan"),
            "argument must be finite, got nan",
        ),
        (
            ("polygamma", "--order", "2", "--x", "nan"),
            "argument must be finite, got nan",
        ),
        (
            ("eval-cot", "--order", "40", "--x", "1e-11"),
            "cot^(40) at x=1e-11 exceeds double precision range",
        ),
        (
            ("polygamma", "--order", "170", "--x", "0.5"),
            "polygamma of order 170 at x=0.5 exceeds double precision range",
        ),
        (
            ("limit", "--family", "polygamma", "--i", "170", "--n", "1", "--q",
             "1000", "--k", "0", "--probe"),
            "cot^(170) at pi*0.05 exceeds double precision range",
        ),
    ],
)
def test_computational_failure_prints_its_message(capsys, args, message):
    # eval-cot and polygamma validate --order through the same check, so a
    # bad order reads the same from both.
    assert run_main(capsys, *args) == (1, "", f"polylim: {message}\n")


class TestPolygammaCommand:
    def test_csv_fields(self, capsys):
        code, out, _ = run_main(capsys, "polygamma", "--order", "1", "--x",
                                "0.5")
        assert code == 0
        header, row = out.splitlines()
        assert header == "order,x,value,method,shift_count"
        fields = row.split(",")
        assert fields[3] == "shifted-asymptotic"
        assert float(fields[2]) == pytest.approx(4.934802200544679)

    def test_json_round_trips(self, capsys):
        code, out, _ = run_main(capsys, "polygamma", "--order", "2", "--x",
                                "-3.25", "--format", "json")
        assert code == 0
        res = polygamma(2, -3.25)
        assert res.method == "reflection"
        assert ordered(out) == [
            ("order", res.order),
            ("x", res.argument),
            ("value", res.value),
            ("method", res.method),
            ("shift_count", res.shift_count),
        ]

    def test_pole_exit_code(self, capsys):
        code, _, err = run_main(capsys, "polygamma", "--order", "1", "--x",
                                "-4")
        assert code == 1
        assert "pole" in err.lower()

    def test_overflow_is_computational_failure(self):
        cp = run_cli("polygamma", "--order", "3", "--x", "1e300")
        assert cp.returncode == 1
        assert cp.stderr.startswith("polylim: ")
        assert "Traceback" not in cp.stderr
        assert cp.stdout == ""


class TestLimitCommand:
    def test_json_round_trips(self, capsys):
        code, out, _ = run_main(capsys, "limit", "--family", "polygamma",
                                "--i", "2", "--n", "3", "--q", "2", "--k", "1",
                                "--format", "json")
        assert code == 0
        spec = LimitSpec(FAMILY_POLYGAMMA, 3, 2, pole_index=1,
                         derivative_order=2)
        assert spec.target() == Fraction(8, 27)
        assert ordered(out) == [
            ("spec", spec_pairs(spec)),
            ("value", fraction_pairs(spec.target())),
        ]

    def test_probe_csv(self, capsys):
        code, out, _ = run_main(capsys, "limit", "--family", "gamma", "--n",
                                "2", "--q", "1", "--k", "1", "--probe")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,i,n,q,k,eps,sample"
        assert len(lines) == 1 + 8 + 2
        sample_fields = lines[1].split(",")
        assert len(sample_fields) == 7
        assert sample_fields[:5] == ["gamma-ratio", "0", "2", "1", "1"]
        assert lines[9] == (
            "family,i,n,q,k,extrapolated,target_num,target_den,abs_error,"
            "converged"
        )
        summary = lines[-1].split(",")
        assert len(summary) == 10
        assert summary[6:8] == ["-1", "4"]
        assert summary[-1] == "true"

    def test_probe_json_round_trips(self, capsys):
        code, out, _ = run_main(capsys, "limit", "--family", "polygamma",
                                "--i", "1", "--n", "2", "--q", "1", "--k", "0",
                                "--probe", "--format", "json")
        assert code == 0
        report = probe_limit(LimitSpec(FAMILY_POLYGAMMA, 2, 1, pole_index=0,
                                       derivative_order=1))
        assert report.converged
        assert report.target == Fraction(1, 4)
        assert ordered(out) == [
            ("spec", spec_pairs(report.spec)),
            ("epsilons", list(report.epsilons)),
            ("samples", list(report.samples)),
            ("extrapolated", report.extrapolated),
            ("target", fraction_pairs(report.target)),
            ("abs_error", report.abs_error),
            ("converged", report.converged),
        ]

    @pytest.mark.parametrize(
        "args, code",
        [
            (("--family", "gamma", "--n", "1000", "--q", "1", "--k", "1"), 0),
            (("--family", "gamma", "--n", "6", "--q", "1", "--k", "300"), 2),
            (("--family", "gamma", "--n", "1", "--q", "501", "--k", "2",
              "--probe"), 2),
            (("--family", "gamma", "--n", "1", "--q", "999", "--k", "1",
              "--probe"), 1),
            (("--family", "gamma", "--n", "100000", "--q", "1", "--probe"), 1),
            (("--family", "polygamma", "--i", "170", "--n", "1000", "--q",
              "7"), 0),
            (("--family", "polygamma", "--i", "10000", "--n", "3", "--q",
              "1"), 2),
            (("--family", "polygamma", "--i", "10000", "--n", "3", "--q",
              "1", "--probe"), 2),
            (("--family", "polygamma", "--i", "1", "--n", "3", "--q",
              "1001"), 2),
            (("--family", "gamma", "--n", "0", "--q", "2", "--k", "4"), 1),
        ],
    )
    def test_work_is_bounded_without_a_traceback(self, capsys, args, code):
        # Above the caps, printing the exact value would exceed Python's
        # 4300-digit int-to-str limit; a sample beyond double range is a
        # computational failure.
        try:
            got = main(["limit", *args])
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code
        if code == 0:
            assert captured.err == ""
        elif code == 1:
            assert captured.err.startswith("polylim: ")
        else:
            assert "usage" in captured.err.lower()
            assert "at most" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("probe", [[], ["--probe"]])
    def test_gamma_family_rejects_a_derivative_order(self, capsys, probe):
        code, out, err = run_main(capsys, "limit", "--family", "gamma", "--n",
                                  "2", "--q", "1", "--k", "1", "--i", "3",
                                  *probe)
        assert (code, out) == (1, "")
        assert err == ("polylim: the gamma-ratio family takes derivative "
                       "order 0 only, got 3\n")

    @pytest.mark.parametrize("args, message", [
        (("gamma", "--n", "0", "--q", "1", "--k", "1"),
         "scales must be >= 1, got n=0, q=1"),
        (("gamma", "--n", "2", "--q", "1", "--k", "-1"),
         "pole index must be >= 0, got -1"),
        (("polygamma", "--i", "-1", "--n", "2", "--q", "1"),
         "derivative order must be >= 0, got -1"),
    ])
    def test_range_errors_name_the_values(self, capsys, args, message):
        assert run_main(capsys, "limit", "--family", *args) == (
            1, "", f"polylim: {message}\n"
        )

    def test_negative_value_formatting(self, capsys):
        code, out, _ = run_main(capsys, "limit", "--family", "gamma", "--n",
                                "2", "--q", "1", "--k", "1")
        assert code == 0
        assert out == "-1/4\n"

    def test_exact_value_formatting(self, capsys):
        # 'p/q' in lowest terms, or just 'p' for an integer.
        cases = [
            (("gamma", "--n", "1", "--q", "2", "--k", "1"), "-4"),
            (("gamma", "--n", "1", "--q", "2", "--k", "2"), "24"),
            (("polygamma", "--i", "2", "--n", "3", "--q", "2"), "8/27"),
        ]
        for args, text in cases:
            code, out, _ = run_main(capsys, "limit", "--family", *args)
            assert code == 0
            assert out == text + "\n"


# Every third case of the gamma grid (n, q <= 6, k <= 6, i = 0) and the
# polygamma grid (i <= 5, n, q <= 6, k <= 3), cycling through exact and
# --probe, CSV and JSON.
LIMIT_PIN_CASES = [("gamma", 0, n, q, k) for n in range(1, 7) for q in range(1, 7)
                   for k in range(7)]
LIMIT_PIN_CASES += [("polygamma", i, n, q, k) for i in range(6) for n in range(1, 7)
                    for q in range(1, 7) for k in range(4)]
LIMIT_PIN_VARIANTS = ([], ["--format", "json"], ["--probe"],
                      ["--probe", "--format", "json"])
LIMIT_PIN_DIGEST = "6d1149975adb46ab696752e4f8794e017323b2662bf7dbbd21b5431816065b2e"


class TestLimitPins:
    def test_grid_digest(self, capsys):
        digest = hashlib.sha256()
        for j, (family, i, n, q, k) in enumerate(LIMIT_PIN_CASES[::3]):
            argv = ["limit", "--family", family, "--i", str(i), "--n", str(n),
                    "--q", str(q), "--k", str(k), *LIMIT_PIN_VARIANTS[j % 4]]
            code, out, err = run_main(capsys, *argv)
            digest.update(f"{argv} {code}\n{out}{err}".encode())
        assert digest.hexdigest() == LIMIT_PIN_DIGEST


class TestVerifyCommand:
    def test_coeffs_suite_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--suite", "coeffs")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "6/6 checks passed in suite 'coeffs'"

    def test_limits_suite_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--suite", "limits")
        assert code == 0
        assert "theorem-probe-grid" in out

    @staticmethod
    def assert_precision_env_ignored(capsys, monkeypatch, value):
        monkeypatch.delenv("POLYLIM_PRECISION_TERMS", raising=False)
        unset = run_main(capsys, "verify", "--suite", "reflection")
        assert unset[0] == 0
        assert "1000 terms" in unset[1]
        monkeypatch.setenv("POLYLIM_PRECISION_TERMS", value)
        assert run_main(capsys, "verify", "--suite", "reflection") == unset

    def test_reflection_suite_ignores_precision_env(self, capsys, monkeypatch):
        self.assert_precision_env_ignored(capsys, monkeypatch, "200000")

    def test_invalid_precision_env_is_ignored(self, capsys, monkeypatch):
        self.assert_precision_env_ignored(capsys, monkeypatch, "soon")

    def test_unknown_suite_is_domain_error(self):
        # DomainError subclasses ValueError, so callers catching that still work.
        with pytest.raises(DomainError, match="unknown suite 'x'"):
            verify.run_suite("x")

    def test_all_suites_golden(self, capsys):
        assert run_main(capsys, "verify", "--suite", "all") == (
            0,
            GOLDEN_VERIFY_ALL,
            "",
        )


@pytest.fixture(scope="module")
def theorem_reports():
    return verify._probe_reports(FAMILY_POLYGAMMA, verify._THEOREM_CASES)


# The module; the package attribute polylim.polygamma is the function.
polygamma_module = importlib.import_module("polylim.polygamma")


def assert_fails(result, name):
    assert result.name == name
    assert not result.passed


def mutate_expansion(monkeypatch, order, mutate):
    """Make cotderiv.expansion(order) return mutate(the true expansion).

    The cached expansion itself is left alone: _replace builds a new record
    without the constructor's checks.
    """
    exact = cotderiv.expansion
    monkeypatch.setattr(
        cotderiv, "expansion", lambda p: mutate(exact(p)) if p == order else exact(p)
    )


def bump_first_coefficient(e):
    (j, b), *rest = e.harmonics
    return e._replace(harmonics=((j, b + 1), *rest))


def scale_family(monkeypatch, table, family, factor):
    exact = table[family]
    monkeypatch.setitem(table, family, lambda *args: factor * exact(*args))


class TestVerifyChecksCanFail:
    def test_reflection_identity_sees_a_scaled_cot_term(self, monkeypatch):
        module = importlib.import_module("polylim.polygamma")
        exact = module.eval_cot_deriv_pi
        monkeypatch.setattr(
            module,
            "eval_cot_deriv_pi",
            lambda order, z: exact(order, z) * (1.0 + 1e-6),
        )
        result = verify._check_reflection_identity()
        assert result.name == "reflection-identity"
        assert not result.passed

    def test_unified_agreement_sees_one_wrong_coefficient(self, monkeypatch):
        exact = cotderiv._eulerian
        monkeypatch.setattr(
            cotderiv,
            "_eulerian",
            lambda p, q: exact(p, q) + ((p, q) == (17, 6)),
        )
        result = verify._check_unified_agreement()
        assert result.name == "unified-piecewise-agreement"
        assert not result.passed
        assert result.detail.startswith("(17,6): table != piecewise")

    def test_unified_agreement_sees_one_wrong_table_entry(self, fresh_rows):
        # On fresh rows with a cold expansion cache, so that expansion and
        # coeff_unified both read the wrong entry and nothing keeps it.  The
        # rows the check reads are built first, so that no later row
        # inherits the error.
        cotderiv._numerator_row(30)
        row = fresh_rows[17]
        j, b = row[3]
        assert j == 6
        fresh_rows[17] = (*row[:3], (j, b + 1), *row[4:])
        result = verify._check_unified_agreement()
        assert result.name == "unified-piecewise-agreement"
        assert not result.passed
        assert result.detail == "(17,6): table != piecewise (+1 more)"

    def test_gamma_probe_grid_sees_a_dropped_sign(self, monkeypatch):
        exact = limits._QUOTIENTS[FAMILY_GAMMA]
        monkeypatch.setitem(limits._QUOTIENTS, FAMILY_GAMMA,
                            lambda *args: abs(exact(*args)))
        results = {r.name: r for r in verify.limits_suite()}
        # exact-reciprocity multiplies two limits, so it misses the sign.
        assert results["exact-reciprocity"].passed
        assert not results["gamma-probe-grid"].passed

    def test_pole_independence_sees_one_shifted_extrapolation(self, monkeypatch):
        exact = limits.probe_limit

        def probe(spec):
            report = exact(spec)
            if spec == POLE_PROBES[3]:
                report = report._replace(extrapolated=report.extrapolated + 1e-4)
            return report

        monkeypatch.setattr(limits, "probe_limit", probe)
        results = {r.name: r for r in verify.limits_suite()}
        assert not results["pole-independence"].passed

    def test_pole_independence_reads_exactly_four_reports(self, theorem_reports):
        check = verify._check_pole_independence
        assert [r.spec for r in theorem_reports if r.spec in POLE_PROBES] == (
            POLE_PROBES
        )
        # Moving every other report leaves the check passing ...
        moved = [
            r if r.spec in POLE_PROBES
            else r._replace(extrapolated=r.extrapolated + 1.0)
            for r in theorem_reports
        ]
        assert check(moved).passed
        # ... and it fails without any one of the four, so a filter that
        # reads fewer cannot pass with a spread of 0.
        for spec in POLE_PROBES:
            assert not check([r for r in theorem_reports if r.spec != spec]).passed

    # One mutation of the code under test per remaining check.

    def test_coefficient_sum_sees_one_wrong_coefficient(self, monkeypatch):
        mutate_expansion(monkeypatch, 7, bump_first_coefficient)
        assert_fails(verify._check_coefficient_sum(), "coefficient-sum-identity")

    def test_oracle_equivalence_sees_a_scaled_closed_form(self, monkeypatch):
        exact = cotderiv.eval_cot_deriv
        monkeypatch.setattr(
            cotderiv, "eval_cot_deriv", lambda p, x: exact(p, x) * (1.0 + 1e-6)
        )
        assert_fails(verify._check_oracle_equivalence(), "oracle-equivalence")

    def test_finite_difference_sees_one_scaled_order(self, monkeypatch):
        # Scaling every order alike would scale both sides of the check.
        exact = cotderiv.eval_cot_deriv
        monkeypatch.setattr(
            cotderiv,
            "eval_cot_deriv",
            lambda p, x: exact(p, x) * (1.0 + 1e-3 * (p == 4)),
        )
        assert_fails(
            verify._check_finite_difference(), "finite-difference-consistency"
        )

    def test_parity_sees_an_extra_harmonic(self, monkeypatch):
        mutate_expansion(
            monkeypatch, 4, lambda e: e._replace(harmonics=e.harmonics + ((5, 1),))
        )
        assert_fails(verify._check_parity(), "parity")

    def test_exact_extraction_sees_one_wrong_coefficient(self, monkeypatch):
        mutate_expansion(monkeypatch, 5, bump_first_coefficient)
        assert_fails(verify._check_exact_extraction(), "exact-harmonic-extraction")

    def test_exact_extraction_reports_a_non_integer_row(self, monkeypatch, capsys):
        # A polynomial whose cosine form is not integral is the check's
        # failure at that order; the suite still prints every check line.
        exact = cotderiv.oracle_expansion

        def oracle(p):
            poly = exact(p)
            if p != 5:
                return poly
            c = poly.coefficients
            return poly._replace(coefficients=(*c[:2], c[2] + 1, *c[3:]))

        monkeypatch.setattr(cotderiv, "oracle_expansion", oracle)
        code, out, err = run_main(capsys, "verify", "--suite", "coeffs")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[5] == ("FAIL exact-harmonic-extraction (order 5: non-integer "
                            "coefficient -1055/16 at multiplier 0)")

    # On a fresh table of derivative polynomials, one wrong row shows up in
    # every check that reads it.

    def test_bernoulli_recurrence_sees_a_wrong_tangent_number(self, fresh_polynomials):
        # P_9(0) = -T_5, behind B10.  A constant term drops out of the next
        # row's derivative, so no later row inherits the error.
        row = cotderiv._polynomial_row(9)
        fresh_polynomials[9] = (row[0] + 1, *row[1:])
        result = verify._check_bernoulli()
        assert_fails(result, "bernoulli-recurrence")
        assert result.detail == "recurrence defect at m=10 (+49 more)"

    def test_coeffs_suite_sees_one_wrong_polynomial_entry(self, fresh_polynomials):
        row = cotderiv._polynomial_row(5)
        fresh_polynomials[5] = (*row[:2], row[2] + 1, *row[3:])
        results = {r.name: r for r in verify.coeffs_suite()}
        extraction = results["exact-harmonic-extraction"]
        assert_fails(extraction, "exact-harmonic-extraction")
        assert extraction.detail.startswith(
            "order 5: non-integer coefficient -1055/16 at multiplier 0"
        )
        assert_fails(results["oracle-equivalence"], "oracle-equivalence")

    def test_bernoulli_recurrence_sees_a_wrong_b10(self, monkeypatch):
        exact = verify.bernoulli
        monkeypatch.setattr(verify, "bernoulli", lambda m: exact(m) + (m == 10))
        assert_fails(verify._check_bernoulli(), "bernoulli-recurrence")

    def test_recurrence_identity_sees_a_scaled_series(self, monkeypatch):
        exact = polygamma_module._asymptotic
        monkeypatch.setattr(
            polygamma_module,
            "_asymptotic",
            lambda order, x: exact(order, x) * (1.0 + 1e-6),
        )
        result = verify._check_recurrence_identity()
        assert_fails(result, "recurrence-identity")
        # Every one of the 9 x 100 points sees it, none passes by construction.
        assert result.detail.endswith("(+899 more)")

    def test_series_oracle_agreement_sees_a_scaled_oracle(self, monkeypatch):
        exact = polygamma_module.shifted_power_sum
        monkeypatch.setattr(
            polygamma_module,
            "shifted_power_sum",
            lambda x, s, terms: exact(x, s, terms) * (1.0 + 1e-8),
        )
        assert_fails(verify._check_series_oracle(), "series-oracle-agreement")

    def test_sign_pattern_sees_a_negated_order(self, monkeypatch):
        exact = polygamma_module._asymptotic
        monkeypatch.setattr(
            polygamma_module,
            "_asymptotic",
            lambda order, x: -exact(order, x) if order == 3 else exact(order, x),
        )
        assert_fails(verify._check_sign_pattern(), "sign-pattern")

    def test_path_bookkeeping_sees_a_relabelled_method(self, monkeypatch):
        monkeypatch.setattr(polygamma_module, "METHOD_REFLECTION", "reflected")
        assert_fails(verify._check_path_bookkeeping(), "path-bookkeeping")

    def test_exact_reciprocity_sees_a_scaled_gamma_limit(self, monkeypatch):
        scale_family(monkeypatch, limits._QUOTIENTS, FAMILY_GAMMA, 2)
        assert_fails(verify._check_exact_reciprocity(), "exact-reciprocity")

    def test_polygamma_symmetry_sees_a_scaled_polygamma_limit(self, monkeypatch):
        scale_family(monkeypatch, limits._QUOTIENTS, FAMILY_POLYGAMMA, 2)
        assert_fails(verify._check_polygamma_symmetry(), "polygamma-symmetry")

    def test_laurent_residue_sees_a_scaled_gamma_germ(self, monkeypatch):
        exact = limits._GERMS[FAMILY_GAMMA]

        def germ(*args):
            g = exact(*args)
            return g._replace(coefficient=2 * g.coefficient)

        monkeypatch.setitem(limits._GERMS, FAMILY_GAMMA, germ)
        assert_fails(verify._check_laurent_residues(), "laurent-residue-unit")

    def test_theorem_probe_grid_sees_a_scaled_polygamma_limit(self, monkeypatch):
        scale_family(monkeypatch, limits._QUOTIENTS, FAMILY_POLYGAMMA, 2)
        results = {r.name: r for r in verify.limits_suite()}
        assert not results["theorem-probe-grid"].passed

    def test_monotone_improvement_sees_a_biased_extrapolation(self, monkeypatch):
        exact = limits.neville_extrapolate
        monkeypatch.setattr(
            limits, "neville_extrapolate", lambda xs, ys: exact(xs, ys) + 1e-6
        )
        results = {r.name: r for r in verify.limits_suite()}
        # The bias stays inside the probes' tolerance, so both grids pass;
        # it loses to every probe whose last raw sample is nearer the target.
        assert results["theorem-probe-grid"].passed
        assert results["gamma-probe-grid"].passed
        assert not results["monotone-improvement"].passed


def test_cli_import_leaves_numpy_unloaded():
    # Every CLI call pays for what importing the CLI loads; dataclasses alone
    # brings in inspect, ast, dis and tokenize.  perfbench's tracer patches
    # the five polylim modules below right after `import polylim.cli`.
    script = (
        "import sys, polylim.cli\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect', 'json')"
        " if m in sys.modules])\n"
        "print([m for m in ('cotderiv', 'polygamma', 'limits', 'verify', '_kernels')"
        " if 'polylim.' + m not in sys.modules])\n"
    )
    cp = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n[]\n"


class TestUsageErrors:
    def test_unknown_subcommand(self):
        cp = run_cli("frobnicate")
        assert cp.returncode == 2
        assert "usage" in cp.stderr.lower()

    def test_missing_required_flag(self):
        cp = run_cli("coeffs")
        assert cp.returncode == 2

    def test_bad_family(self):
        cp = run_cli("limit", "--family", "zeta", "--n", "1", "--q", "1")
        assert cp.returncode == 2

    def test_coeffs_order_above_cap(self):
        cp = run_cli("coeffs", "--order", str(MAX_TABLE_ORDER + 1))
        assert cp.returncode == 2
        assert "usage" in cp.stderr.lower()
        assert f"at most {MAX_TABLE_ORDER}" in cp.stderr
        assert cp.stdout == ""

    # Each cap the CLI shares with the library: the CLI's arguments and the
    # library call at a value, and the library's bound.
    SHARED_CAPS = {
        "coeffs --order": (
            lambda v: ["coeffs", "--order", str(v)],
            cotderiv.expansions_up_to,
            MAX_TABLE_ORDER,
        ),
        "limit --i": (
            lambda v: ["limit", "--family", "polygamma", "--i", str(v),
                       "--n", "2", "--q", "1"],
            lambda v: limits.polygamma_ratio_limit(v, 2, 1),
            MAX_EVAL_ORDER,
        ),
        "limit --n": (
            lambda v: ["limit", "--family", "polygamma", "--n", str(v),
                       "--q", "1"],
            lambda v: limits.polygamma_ratio_limit(1, v, 1),
            limits.MAX_LIMIT_SCALE,
        ),
    }

    @pytest.mark.parametrize("cap", SHARED_CAPS)
    def test_cli_cap_is_the_library_bound(self, capsys, monkeypatch, cap):
        argv, call, bound = self.SHARED_CAPS[cap]
        # coeffs at its cap prints 350M digits; keep the library's check at
        # the call and let it build the first table only.
        real = cotderiv.expansions_up_to
        monkeypatch.setattr(
            cotderiv, "expansions_up_to", lambda n: itertools.islice(real(n), 1)
        )
        call(bound)
        assert main(argv(bound)) == 0
        with pytest.raises(DomainError):
            call(bound + 1)
        with pytest.raises(SystemExit) as excinfo:
            main(argv(bound + 1))
        assert excinfo.value.code == 2
        assert f"at most {bound}" in capsys.readouterr().err
