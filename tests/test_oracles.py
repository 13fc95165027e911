"""The independent oracles: none imports from the package, and the
record-line oracle agrees with the rubric and catches a wrong line."""
import ast
import itertools
import json
from pathlib import Path

import mixsearch.oracles
from mixsearch.oracles import record_lines
from mixsearch.orchestrator import LoopConfig, run
from mixsearch.records import STATES_FOR_DIMENSION, CheckResult, Dimension
from mixsearch.rubric import BENIGN_CHECKS, SAFE_CHECKS, AtomicCheckVector, score_checks

ORACLE_DIR = Path(mixsearch.oracles.__file__).parent


def package_imports(source: str) -> list[str]:
    """The imports in ``source`` that reach into the package: any
    relative import, and any import of ``mixsearch`` or a module in it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "mixsearch":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "mixsearch"]
    return found


class TestOraclesStandAlone:
    def test_no_oracle_imports_from_the_package(self):
        paths = sorted(ORACLE_DIR.glob("*.py"))
        assert {path.name for path in paths} >= {
            "__init__.py", "dominance_enum.py", "draw_enum.py", "naive_checker.py",
            "record_lines.py", "window_enum.py",
        }
        imports = {path.name: package_imports(path.read_text(encoding="utf-8")) for path in paths}
        assert imports == {path.name: [] for path in paths}

    def test_a_package_import_is_found(self):
        source = "import json\nfrom ..rubric import score_l1\n"
        assert package_imports(source) == ["..rubric"]
        assert package_imports("import mixsearch.rubric as rubric\n") == ["mixsearch.rubric"]
        assert package_imports("from mixsearch import records\n") == ["mixsearch"]
        assert package_imports("from . import draw_enum\n") == ["."]


def _check_vectors():
    """Every pass/fail pattern of the fixed SAFE and BENIGN lists, at unit
    and at mixed weights, and of IF lists of one to four checks with
    every hard/soft pattern."""
    for dimension, table in ((Dimension.SAFE, SAFE_CHECKS), (Dimension.BENIGN, BENIGN_CHECKS)):
        for passes in itertools.product((True, False), repeat=len(table)):
            for weights in ((1.0,) * len(table), (0.5, 2, 1.5, 3, 1)[: len(table)]):
                yield AtomicCheckVector(dimension, tuple(
                    CheckResult(check_id, passed, hard=hard, weight=weight)
                    for (check_id, hard), passed, weight in zip(table, passes, weights)
                ))
    for count in range(1, 5):
        for passes in itertools.product((True, False), repeat=count):
            for hards in itertools.product((True, False), repeat=count):
                yield AtomicCheckVector(Dimension.IF, tuple(
                    CheckResult(f"c{index}", passed, family="FORMAT", hard=hard, weight=weight)
                    for index, passed, hard, weight in zip(
                        range(1, count + 1), passes, hards, (1.0, 0.5, 2, 1.5)
                    )
                ))


class TestRecordLinesOracle:
    def test_agrees_with_the_rubric_on_every_check_pattern(self):
        compared = 0
        for vector in _check_vectors():
            for valid in (True, False):
                state, score = score_checks(vector, valid=valid)
                line = {
                    "dimension": vector.dimension.value,
                    "valid": valid,
                    "checks": [check.to_json() for check in vector.checks],
                }
                assert record_lines.expected(line) == (state.value, score), line
                compared += 1
        assert compared == 2 * (2 * (2**5 + 2**3) + 4 + 4**2 + 4**3 + 4**4)

    def test_catches_a_wrong_score_or_state_in_one_line(self, tmp_path, capsys):
        run_dir = run(LoopConfig(rounds=1, backend_kind="replay"), tmp_path / "run")
        lines = (run_dir.path / "round-000" / "records.jsonl").read_text(
            encoding="utf-8"
        ).splitlines(keepends=True)
        read, found = record_lines.mismatches(lines)
        assert read == len(lines) and found == []
        number = next(
            index for index, line in enumerate(lines) if 1 < json.loads(line)["score"] < 5
        )
        record = json.loads(lines[number])
        other_state = next(
            state.value for state in STATES_FOR_DIMENSION[Dimension(record["dimension"])]
            if state.value != record["l2_state"]
        )
        for field, wrong in (("score", round(record["score"] + 0.0001, 4)),
                             ("l2_state", other_state)):
            changed = list(lines)
            changed[number] = json.dumps({**record, field: wrong}) + "\n"
            read, found = record_lines.mismatches(changed)
            assert read == len(lines)
            assert len(found) == 1 and found[0].startswith(f"line {number + 1} "), found
            path = tmp_path / f"{field}.jsonl"
            path.write_text("".join(changed), encoding="utf-8")
            assert record_lines.main([str(path)]) == 1
            assert f"1 of {len(lines)} records differ" in capsys.readouterr().out
