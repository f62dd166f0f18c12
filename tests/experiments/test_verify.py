"""Tests for the one-command reproduction verifier."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.verify import (
    ShapeCheck,
    render_verification,
    verify_reproduction,
)


class TestShapeCheck:
    def test_str_forms(self):
        assert "PASS" in str(ShapeCheck("c", True, "d"))
        assert "FAIL" in str(ShapeCheck("c", False, "d"))


class TestVerifyReproduction:
    def test_all_checks_pass_at_smoke_scale(self):
        checks = verify_reproduction(ExperimentScale(n_jobs=400, reps=1), seed=0)
        failed = [str(c) for c in checks if not c.passed]
        assert not failed, f"reproduction shape checks failed: {failed}"
        # One check per claim: 2 per fig2 panel + 2 fig3 + lb5 + 2 thms.
        assert len(checks) == 11

    def test_render_includes_verdict(self):
        checks = [ShapeCheck("a", True, "x"), ShapeCheck("b", True, "y")]
        text = render_verification(checks)
        assert "2/2" in text and "REPRODUCED" in text

    def test_render_flags_deviations(self):
        checks = [ShapeCheck("a", False, "x")]
        assert "DEVIATIONS FOUND" in render_verification(checks)


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["verify", "--n-jobs", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "REPRODUCED" in out

    @pytest.mark.parametrize(
        "argv, n_jobs",
        [([], 1000), (["--n-jobs", "100000"], 100_000)],
        ids=["default", "explicit"],
    )
    def test_n_jobs_reaches_verify_uncapped(
        self, monkeypatch, capsys, argv, n_jobs
    ):
        """An explicit --n-jobs is the scale verify checks; without it
        verify keeps its 1,000 jobs."""
        from repro.experiments import verify
        from repro.experiments.__main__ import main

        seen = []

        def fake(scale, seed):
            seen.append(scale)
            return [ShapeCheck("c", True, "d")]

        monkeypatch.setattr(verify, "verify_reproduction", fake)
        assert main(["verify", *argv]) == 0
        assert seen == [ExperimentScale(n_jobs=n_jobs, reps=1)]
