"""The CI regression gate: gates.json rows applied by one evaluator."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_throughput_regression.py"
spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
sys.modules["check_regression"] = check_regression
spec.loader.exec_module(check_regression)


def _eval(kind, current, baseline):
    return check_regression.evaluate(
        check_regression.GATES[kind], current, baseline
    )


def _bound(kind, path):
    """The bound of the ``min``/``max`` row gating ``path``."""
    (bound,) = [
        row["bound"]
        for row in check_regression.GATES[kind]["gates"]
        if row["path"] == path and row["cmp"] in ("min", "max")
    ]
    return bound


def _row(speedup, eps):
    return {
        "speedup": speedup,
        "speedup_update_only": speedup,
        "speedup_including_batching": speedup,
        "per_example_eps": eps,
        "batched_eps": eps * speedup,
    }


def _doc(speedup=8.0, eps=10_000.0):
    """A throughput run whose every config clears its floor."""
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": _row(speedup, eps),
        "wm_with_heap": _row(4.0, eps),
        "awm": _row(2.4, eps),
        "awm_half_budget": _row(2.6, eps),
        "hash": _row(7.0, eps),
    }


class TestThroughputGate:
    def test_identical_runs_pass(self):
        doc = _doc()
        assert _eval("throughput", doc, doc) == []

    def test_ratio_regression_beyond_threshold_fails(self):
        # 8.0 -> 5.4 is -32.5%: past the trend, still above the floor.
        failures = _eval("throughput", _doc(5.4), _doc(8.0))
        assert any("wm_algorithm1.speedup:" in f and "threshold" in f
                   for f in failures)
        assert not any("floor" in f for f in failures)

    def test_ratio_regression_within_threshold_passes(self):
        assert _eval("throughput", _doc(6.0), _doc(8.0)) == []

    def test_absolute_eps_not_gated_by_default(self, capsys):
        # 10x slower machine, same speedup ratios: must pass.
        assert _eval(
            "throughput", _doc(eps=1_000.0), _doc(eps=10_000.0)
        ) == []
        assert "info-only" in capsys.readouterr().out

    def test_schema_less_baseline_cannot_pass_vacuously(self):
        empty = {"workload": {}}
        failures = _eval("throughput", empty, empty)
        assert any("cannot vouch" in f for f in failures)

    def test_missing_config_fails(self):
        current = _doc()
        del current["hash"]
        failures = _eval("throughput", current, _doc())
        assert any(f.startswith("hash.speedup: missing") for f in failures)


class TestBackendSections:
    """Optional rows: the compiled kernel-backend sections."""

    def _doc_with_numba(self, top_speedup, numba_speedup):
        doc = _doc(top_speedup)
        doc["backends"] = {
            "numba": {"wm_algorithm1": _row(numba_speedup, 50_000.0)}
        }
        return doc

    def test_compiled_rows_gated_when_both_sides_have_them(self):
        failures = _eval(
            "throughput",
            self._doc_with_numba(8.0, 2.0),
            self._doc_with_numba(8.0, 5.0),
        )
        for key in ("speedup", "speedup_update_only",
                    "speedup_including_batching"):
            assert any(
                f.startswith(f"backends.numba.wm_algorithm1.{key}:")
                for f in failures
            )

    def test_compiled_rows_matching_pass(self):
        doc = self._doc_with_numba(8.0, 5.0)
        assert _eval("throughput", doc, doc) == []

    def test_numba_unavailable_skips_with_notice_not_failure(self, capsys):
        baseline = self._doc_with_numba(8.0, 5.0)
        current = _doc(8.0)  # no "backends" section: numba-less host
        assert _eval("throughput", current, baseline) == []
        out = capsys.readouterr().out
        assert "NOTICE" in out and "numba" in out
        assert out.count("NOTICE") == 1

    def test_backendless_baseline_ignores_current_extras(self):
        # A fresh run on a numba host vs an older numpy-only baseline:
        # the extra compiled rows are simply not compared.
        assert _eval(
            "throughput", self._doc_with_numba(8.0, 9.0), _doc(8.0)
        ) == []

    def test_backend_present_but_config_missing_fails(self):
        baseline = self._doc_with_numba(8.0, 5.0)
        baseline["backends"]["numba"]["awm"] = _row(2.4, 20_000.0)
        current = self._doc_with_numba(8.0, 5.0)
        failures = _eval("throughput", current, baseline)
        assert any(f.startswith("backends.numba.awm.speedup: missing")
                   for f in failures)


class TestSpeedupFloors:
    """Absolute floors on the current throughput run: they bind even
    when the committed baseline itself is refreshed."""

    def test_current_above_floors_passes(self, capsys):
        doc = _doc()
        assert _eval("throughput", doc, doc) == []
        assert "wm_with_heap.speedup" in capsys.readouterr().out

    def test_below_floor_fails_even_if_baseline_agrees(self):
        doc = _doc()
        doc["wm_with_heap"]["speedup"] = 1.9  # back to pre-store era
        failures = _eval("throughput", doc, doc)
        # The trend rows are happy with an equally-bad baseline; the
        # floor is what refuses the ratchet slipping.
        assert failures
        assert all("wm_with_heap.speedup" in f and "floor" in f
                   for f in failures)

    def test_missing_floor_config_fails(self):
        doc = _doc()
        del doc["awm_half_budget"]
        failures = _eval("throughput", doc, doc)
        assert any(f.startswith("awm_half_budget.speedup: missing")
                   for f in failures)

    def test_default_floors_cover_the_store_configs(self):
        for config in ("wm_with_heap", "awm", "awm_half_budget"):
            assert _bound("throughput", f"{config}.speedup") > 1.0


class TestMainEntry:
    def test_missing_current_file_fails_the_gate(self, tmp_path, capsys):
        # A crashed benchmark must not leave the gate green.
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        code = check_regression.main([
            "--current", str(tmp_path / "never_written.json"),
            "--baseline", str(baseline),
        ])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_workload_size_mismatch_warns(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        doc = _doc()
        doc["workload"] = {"n_examples": 2000}
        current.write_text(json.dumps(doc))
        doc["workload"] = {"n_examples": 4000}
        baseline.write_text(json.dumps(doc))
        code = check_regression.main([
            "--current", str(current), "--baseline", str(baseline),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WARNING: workload.n_examples" in out

    def test_missing_baseline_is_a_hard_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text("{}")
        code = check_regression.main([
            "--current", str(current),
            "--baseline", str(tmp_path / "no_baseline.json"),
        ])
        assert code == 2
        assert "ERROR" in capsys.readouterr().err

    def test_regression_exits_one(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_doc(1.0)))
        code = check_regression.main(["--current", str(current)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestParallelGate:
    def test_monotone_and_stable_passes(self):
        doc = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert _eval("parallel", doc, doc) == []

    def test_non_monotone_current_warns_but_passes(self, capsys):
        # Fresh-run monotonicity is timing-sensitive on shared runners:
        # warn, gate only the machine-independent speedup ratio.
        bad = {"monotone_1_to_4_workers": False, "speedup_4_workers": 2.8}
        good = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert _eval("parallel", bad, good) == []
        assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        curr = {"monotone_1_to_4_workers": True, "speedup_4_workers": 1.1}
        base = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert _eval("parallel", curr, base)

    def test_schema_less_parallel_baseline_fails(self):
        curr = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert _eval("parallel", curr, {})


# ----------------------------------------------------------------------
# Query-serving gate (--kind query)
# ----------------------------------------------------------------------
def _query_doc(predict=5.0, query=100.0, hot=2.0):
    row = {
        "predict_speedup": predict,
        "query_speedup": query,
        "hot_over_cold": hot,
        "predict_scalar_eps": 20_000.0,
        "predict_batch_eps": 20_000.0 * predict,
    }
    return {
        "workload": {"dataset": "x"},
        "wm": dict(row),
        "awm_half_budget": dict(row),
        "hash": dict(row),
    }


class TestQueryGate:
    def test_identical_runs_pass(self):
        doc = _query_doc()
        assert _eval("query", doc, doc) == []

    def test_ratio_regression_fails(self):
        failures = _eval(
            "query", _query_doc(predict=2.0, query=100.0), _query_doc()
        )
        assert any("predict_speedup" in f and "threshold" in f
                   for f in failures)

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        low = _query_doc(predict=1.1, query=5.0)
        failures = _eval("query", low, low)
        assert any("floor" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        assert _eval("query", {"workload": {}}, _query_doc())


# ----------------------------------------------------------------------
# Allocation gate (--kind alloc)
# ----------------------------------------------------------------------
def _alloc_doc(headline=81_416, heap=111_536):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {"peak_transient_bytes": headline},
        "wm_with_heap": {"peak_transient_bytes": heap},
    }


class TestAllocGate:
    def test_identical_runs_pass(self):
        doc = _alloc_doc()
        assert _eval("alloc", doc, doc) == []

    def test_peak_above_ceiling_fails(self):
        # Inflate the baseline too, so only the ceiling can fire.
        high = _alloc_doc(headline=200_000)
        failures = _eval("alloc", high, high)
        assert any("wm_algorithm1" in f and "ceiling" in f
                   for f in failures)

    def test_peak_growth_past_threshold_fails(self):
        # 81,416 -> 110,000 B is +35%: under the ceiling, past the trend.
        failures = _eval("alloc", _alloc_doc(headline=110_000), _alloc_doc())
        assert any("regressed" in f for f in failures)

    def test_peak_shrink_passes(self):
        assert _eval(
            "alloc", _alloc_doc(headline=40_000, heap=50_000), _alloc_doc()
        ) == []

    def test_ceilings_no_looser_than_the_ratio_gate(self):
        # The former floor + 30% trend gate allowed the committed fused
        # peaks (81,320 B and 111,360 B) to grow to peak / 0.7.
        assert _bound("alloc", "wm_algorithm1.peak_transient_bytes") <= (
            81_320 / 0.7
        )
        assert _bound("alloc", "wm_with_heap.peak_transient_bytes") <= (
            111_360 / 0.7
        )

    def test_missing_config_fails(self):
        assert _eval("alloc", {"workload": {}}, _alloc_doc())


# ----------------------------------------------------------------------
# Serving-coalescer gate (--kind serving)
# ----------------------------------------------------------------------
def _serving_doc(wm=5.0, awm=1.7, n_requests=2000):
    return {
        "workload": {"dataset": "x", "n_requests": n_requests},
        "wm": {"coalescing_speedup": wm, "serial_rps": 2_500.0},
        "awm_half_budget": {"coalescing_speedup": awm},
        "coalescing_speedup": wm,
    }


class TestServingGate:
    def test_identical_runs_pass(self):
        doc = _serving_doc()
        assert _eval("serving", doc, doc) == []

    def test_ratio_regression_fails(self):
        # 8.0 -> 3.2 stays above the 3x floor but is a >50% collapse.
        failures = _eval("serving", _serving_doc(wm=3.2), _serving_doc(wm=8.0))
        assert any("wm.coalescing_speedup" in f for f in failures)

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        low = _serving_doc(wm=2.5)
        failures = _eval("serving", low, low)
        assert any("floor" in f for f in failures)

    def test_awm_anti_collapse_floor(self):
        low = _serving_doc(awm=0.5)
        failures = _eval("serving", low, low)
        assert any("awm_half_budget" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        assert _eval("serving", {"workload": {}}, _serving_doc())

    def test_request_count_mismatch_warns(self, capsys):
        assert _eval(
            "serving", _serving_doc(n_requests=400), _serving_doc()
        ) == []
        assert "WARNING: workload.n_requests" in capsys.readouterr().out

    def test_default_floors_cover_the_headline_config(self):
        assert _bound("serving", "wm.coalescing_speedup") >= 3.0


# ----------------------------------------------------------------------
# Backend-artifact recording (benchmarks/record_backend_artifacts.py)
# ----------------------------------------------------------------------
RECORD = SCRIPT.parent / "record_backend_artifacts.py"
spec2 = importlib.util.spec_from_file_location("record_backend", RECORD)
record_backend = importlib.util.module_from_spec(spec2)
sys.modules["record_backend"] = record_backend
spec2.loader.exec_module(record_backend)


class TestRecordBackendArtifacts:
    def _artifact(self):
        return {
            "workload": {"python": "3.12.1", "n_examples": 4000},
            "wm_algorithm1": {"speedup": 6.0, "batched_eps": 50_000.0},
            "backends": {
                "numba": {
                    "wm_algorithm1": {
                        "speedup": 9.0, "batched_eps": 150_000.0
                    }
                }
            },
            "backend_batched_ratio": {
                "numba": {"wm_algorithm1": {"batched": 3.0,
                                            "per_example": 1.4}}
            },
        }

    def test_merges_backend_sections_only(self):
        baseline = _doc(7.0)
        baseline["backends"] = {}
        merged = record_backend.merge_backend_sections(
            baseline, self._artifact()
        )
        assert "numba" in merged["backends"]
        assert merged["backend_batched_ratio"]["numba"][
            "wm_algorithm1"]["batched"] == 3.0
        # The baseline's own numpy rows are untouched.
        assert merged["wm_algorithm1"]["speedup"] == 7.0
        # Provenance travels along.
        meta = merged["backends_meta"]
        assert meta["python"] == "3.12.1"
        assert meta["artifact_numpy_rows"]["wm_algorithm1"][
            "speedup"] == 6.0

    def test_empty_artifact_is_an_error(self):
        import pytest

        with pytest.raises(ValueError):
            record_backend.merge_backend_sections(
                _doc(7.0), {"backends": {}}
            )


# ----------------------------------------------------------------------
# Parameter-server delta-sync gate (--kind ps)
# ----------------------------------------------------------------------
def _ps_doc(ratio=45.0, speedup=1.5, monotone=True):
    return {
        "workload": {"sync_every": 16},
        "widths": {
            "1048576": {
                "mean_push_bytes": 180_000.0,
                "full_table_bytes": 8_388_608.0,
                "delta_bytes_ratio": ratio,
                "dirty_fraction_mean": 0.02,
            }
        },
        "delta_bytes_ratio": ratio,
        "monotone_1_to_4_workers": monotone,
        "speedup_4_workers": speedup,
    }


class TestPSGate:
    def test_identical_runs_pass(self):
        doc = _ps_doc()
        assert _eval("ps", doc, doc) == []

    def test_ratio_below_floor_fails_even_with_agreeing_baseline(self):
        # The byte ratio is machine-independent: the floor binds on the
        # fresh run regardless of what baseline is committed.
        low = _ps_doc(ratio=3.0)
        failures = _eval("ps", low, low)
        assert any("floor" in f for f in failures)

    def test_ratio_collapse_vs_baseline_fails(self):
        failures = _eval("ps", _ps_doc(ratio=10.0), _ps_doc(ratio=45.0))
        assert any("delta_bytes_ratio" in f for f in failures)

    def test_non_monotone_current_warns_but_passes(self, capsys):
        bad = _ps_doc(monotone=False)
        good = _ps_doc(monotone=True)
        assert _eval("ps", bad, good) == []
        assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        failures = _eval("ps", _ps_doc(speedup=0.8), _ps_doc(speedup=1.5))
        assert any("speedup_4_workers" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        assert _eval("ps", {"workload": {}}, _ps_doc())

    def test_schema_less_ps_baseline_fails(self):
        failures = _eval("ps", _ps_doc(), {"workload": {}})
        assert any("baseline" in f for f in failures)


# ----------------------------------------------------------------------
# Resilience gate (--kind resilience)
# ----------------------------------------------------------------------
def _resilience_doc(goodput=1.2, recovered=1.0):
    return {
        "workload": {"n_requests": 2000},
        "overload": {
            "saturation_rps": 9_000.0,
            "offered_rps": 18_000.0,
            "goodput_rps": 9_000.0 * goodput,
            "goodput_ratio": goodput,
            "shed_fraction": 0.08,
            "admitted_p99_ms": 25.0,
        },
        "recovery": {
            "bit_identical": recovered == 1.0,
            "recovery_bit_identical": recovered,
            "recovery_seconds": 0.0008,
        },
        "goodput_ratio": goodput,
        "recovery_bit_identical": recovered,
    }


class TestResilienceGate:
    def test_identical_runs_pass(self):
        doc = _resilience_doc()
        assert _eval("resilience", doc, doc) == []

    def test_goodput_below_floor_fails_even_with_agreeing_baseline(self):
        low = _resilience_doc(goodput=0.6)
        failures = _eval("resilience", low, low)
        assert any("goodput_ratio" in f and "floor" in f for f in failures)

    def test_goodput_collapse_vs_baseline_fails_above_the_floor(self):
        # 2.0 -> 0.9 stays above the 0.8 floor but is a >50% collapse.
        failures = _eval(
            "resilience",
            _resilience_doc(goodput=0.9), _resilience_doc(goodput=2.0),
        )
        assert any("goodput_ratio" in f and "threshold" in f
                   for f in failures)

    def test_diverged_recovery_is_never_noise(self):
        # bit-identity is binary: a 0.0 fails regardless of baseline.
        bad = _resilience_doc(recovered=0.0)
        failures = _eval("resilience", bad, bad)
        assert any("recovery_bit_identical" in f and "diverged" in f
                   for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        assert _eval("resilience", {"workload": {}}, _resilience_doc())


def _telemetry_doc(wm=0.995, heap=0.99):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {"telemetry_overhead_ratio": wm},
        "wm_with_heap": {"telemetry_overhead_ratio": heap},
    }


class TestTelemetryGate:
    def test_identical_runs_pass(self):
        doc = _telemetry_doc()
        assert _eval("telemetry", doc, doc) == []

    def test_overhead_beyond_contract_fails(self):
        failures = _eval("telemetry", _telemetry_doc(wm=0.90), _telemetry_doc())
        assert any("telemetry_overhead_ratio" in f and "0.97" in f
                   for f in failures)

    def test_ratio_at_the_floor_passes(self):
        doc = _telemetry_doc(wm=0.97, heap=0.97)
        assert _eval("telemetry", doc, doc) == []

    def test_empty_current_cannot_pass_vacuously(self):
        assert _eval("telemetry", {"workload": {}}, _telemetry_doc())

    def test_missing_floor_config_fails(self):
        doc = _telemetry_doc()
        del doc["wm_with_heap"]
        failures = _eval("telemetry", doc, doc)
        assert any("wm_with_heap" in f for f in failures)


class TestFailClosed:
    """A gated value the evaluator cannot read as a finite number fails
    by name; it never passes (NaN compares False both ways) or crashes."""

    def test_nan_throughput_floor_fails(self):
        current = _doc()
        for name in ("wm_algorithm1", "wm_with_heap", "awm",
                     "awm_half_budget", "hash"):
            current[name]["speedup"] = math.nan
        failures = _eval("throughput", current, _doc())
        for name in ("wm_algorithm1", "wm_with_heap", "awm",
                     "awm_half_budget", "hash"):
            assert any(f.startswith(f"{name}.speedup: nan is not a finite")
                       for f in failures)

    def test_nan_resilience_recovery_fails(self):
        doc = _resilience_doc(recovered=math.nan)
        failures = _eval("resilience", doc, doc)
        assert any(f.startswith("recovery_bit_identical: nan is not")
                   for f in failures)

    def test_string_value_fails(self):
        current = _doc()
        current["wm_algorithm1"]["speedup"] = "fast"
        failures = _eval("throughput", current, _doc())
        assert any(f.startswith("wm_algorithm1.speedup: 'fast' is not")
                   for f in failures)

    def test_nan_baseline_fails(self):
        baseline = _ps_doc()
        baseline["speedup_4_workers"] = math.nan
        failures = _eval("ps", _ps_doc(), baseline)
        assert any(f.startswith("speedup_4_workers: baseline nan")
                   for f in failures)

    @pytest.mark.parametrize("kind", check_regression.KINDS)
    def test_nan_at_every_gated_path_fails(self, kind):
        baseline = json.loads((ROOT / f"BENCH_{kind}.json").read_text())
        current = copy.deepcopy(baseline)
        gated = set()
        for row in check_regression.GATES[kind]["gates"]:
            if row["cmp"] in ("min", "max", "trend"):
                parts = tuple(row["path"].split("."))
                for path, _ in check_regression._match(current, parts):
                    gated.add(path)
        for *parents, key in gated:
            node = current
            for part in parents:
                node = node[part]
            node[key] = math.nan
        failures = _eval(kind, current, baseline)
        assert gated
        for path in gated:
            assert any(f.startswith(".".join(path) + ": nan")
                       for f in failures)


class TestGatesPolicyFile:
    """benchmarks/gates.json is THE gate policy; the CLI must agree."""

    def _policy(self):
        return json.loads(check_regression.GATES_PATH.read_text())

    def test_policy_file_exists_and_parses(self):
        policy = self._policy()
        assert isinstance(policy, dict)

    def test_cli_kinds_cover_exactly_the_policy_sections(self):
        policy = self._policy()
        sections = set(policy) - {"_comment"}
        assert set(check_regression.KINDS) == sections
        # The CLI must accept every policy section as a --kind choice.
        for kind in sections:
            rc_args = ["--current", "x", "--kind", kind]
            # parse_args would exit on invalid choices before touching
            # the filesystem; valid choices proceed past parsing (the
            # missing file then returns 1, not an argparse error).
            assert check_regression.main(rc_args) == 1

    def test_resilience_recovery_floor_is_binary(self):
        assert _bound("resilience", "recovery_bit_identical") == 1.0

    def test_telemetry_floor_is_the_three_percent_contract(self):
        floors = [
            row["bound"]
            for row in check_regression.GATES["telemetry"]["gates"]
            if row["cmp"] == "min"
        ]
        assert floors == [0.97, 0.97]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            check_regression.main(["--current", "x", "--kind", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_cmp_is_rejected(self):
        section = {"threshold": 0.3, "gates": [
            {"path": "x", "cmp": "atleast", "why": "typo"}
        ]}
        with pytest.raises(ValueError):
            check_regression.evaluate(section, {"x": 1}, {"x": 1})

    @pytest.mark.parametrize("kind", check_regression.KINDS)
    def test_committed_baseline_passes_its_own_gates(self, kind):
        baseline = ROOT / f"BENCH_{kind}.json"
        assert check_regression.main(
            ["--kind", kind, "--current", str(baseline)]
        ) == 0
        # A mistyped row must not gate nothing.  Optional rows gate
        # sections a baseline may lack (TestBackendSections covers them).
        doc = json.loads(baseline.read_text())
        for row in check_regression.GATES[kind]["gates"]:
            if row["cmp"] in ("min", "max", "trend") and not row.get(
                "optional"
            ):
                parts = tuple(row["path"].split("."))
                assert list(check_regression._match(doc, parts)), row["path"]
