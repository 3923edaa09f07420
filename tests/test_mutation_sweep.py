"""The mutation sweep's time limit ends a run that gives no verdict.

tests/mutation_sweep.py takes minutes, so tier-1 never runs it; this test runs
its `run_check` alone on a throwaway package whose import never returns.
"""

import mutation_sweep


def test_a_check_past_its_limit_is_a_time_limit_kill(tmp_path):
    package = tmp_path / "descartes_folium"
    package.mkdir()
    (package / "__init__.py").write_text("while True:\n    pass\n")
    assert mutation_sweep.run_check(tmp_path, 1) == (mutation_sweep.TIME_LIMIT, "no verdict in 1.0 s")
