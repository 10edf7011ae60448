"""scipy.linalg and jsonschema are imported on first use, not by `import maxacc`.

The finite-state verdict and sweep, `maxacc report` and every valid model
file need neither, so a cold process that does only those never loads them.
Each check that needs a cold interpreter runs in a fresh subprocess.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from maxacc.cli import run_command
from maxacc.deferred import DeferredModule

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
MODELS_DIR = ROOT / "models"
HEAVY = ("scipy.linalg", "jsonschema")


def cold(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports maxacc from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])),
               **env)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)


def cold_command(*argv: str) -> tuple[int, str, str, list[str]]:
    """Exit code, stdout, stderr and the heavy modules loaded of one command in a fresh interpreter."""
    code = (
        "import sys\n"
        "from maxacc.cli import run_command\n"
        f"code = run_command({list(argv)!r})\n"
        "sys.stdout.flush()\n"
        f"print(code, [m for m in {HEAVY!r} if m in sys.modules], file=sys.stderr)\n"
    )
    proc = cold(code)
    assert proc.returncode == 0, proc.stderr
    *err, last = proc.stderr.splitlines(keepends=True)
    exit_code, loaded = last.split(" ", 1)
    return int(exit_code), proc.stdout, "".join(err), ast.literal_eval(loaded)


class TestDeferredModule:
    def test_first_read_imports_and_later_reads_are_cached(self):
        stand_in = DeferredModule("json")
        assert "dumps" not in vars(stand_in)
        assert stand_in.dumps is json.dumps
        assert vars(stand_in)["dumps"] is json.dumps

    def test_setting_a_name_overrides_it_for_the_stand_in_only(self):
        stand_in = DeferredModule("json")
        stand_in.dumps = repr
        assert stand_in.dumps is repr
        assert json.dumps is not repr

    def test_missing_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            DeferredModule("json").no_such_name

    def test_threads_touching_first_all_see_the_finished_module(self, tmp_path, monkeypatch):
        """A module whose import sleeps before its last line: no reader may see it half done."""
        runs = tmp_path / "runs.txt"
        (tmp_path / "slow_deferred_target.py").write_text(
            f"import time\nwith open({str(runs)!r}, 'a') as fh:\n    fh.write('x')\n"
            "time.sleep(0.2)\nVALUE = 42\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "slow_deferred_target", raising=False)
        stand_in = DeferredModule("slow_deferred_target")
        start = threading.Barrier(8)
        seen = []

        def touch():
            start.wait(timeout=10)
            try:
                seen.append(stand_in.VALUE)
            except AttributeError as exc:
                seen.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            sys.modules.pop("slow_deferred_target", None)
        assert not any(t.is_alive() for t in threads)
        assert seen == [42] * 8
        assert runs.read_text() == "x"


class TestColdStart:
    def test_import_loads_neither(self):
        proc = cold(f"import sys, maxacc, maxacc.cli; print([m for m in {HEAVY!r} if m in sys.modules])")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "models/threestate.json"],
        ["reverse", "--model", "models/threestate.json", "--json"],
        ["sweep", "--model", "models/constant_obs.json", "--trials", "2", "--horizon", "10"],
    ])
    def test_finite_commands_load_neither(self, argv):
        code, out, err, loaded = cold_command(*argv)
        assert (code, err, loaded) == (0, "", [])
        assert out

    def test_report_loads_neither(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text("kappa,estimate,std_error,flag\n0.5,0.2,0.01,CONSISTENT\n0.2,0.05,0.01,CONSISTENT\n")
        assert cold_command("report", str(csv_path)) == (0, "", "", [])
        assert (tmp_path / "sweep.svg").read_text().startswith("<svg")

    def test_linear_gaussian_analyze_loads_scipy_and_prints_the_same_bundle(self, capsys):
        """The same bundle as a warm run in this process, up to the timestamp."""
        argv = ["analyze", "--model", str(MODELS_DIR / "ks_example.json")]
        code, out, err, loaded = cold_command(*argv)
        assert loaded == ["scipy.linalg"]
        assert run_command(argv) == code == 0
        warm = capsys.readouterr()
        assert warm.err == err == ""
        bundles = [json.loads(text) for text in (out, warm.out)]
        for bundle in bundles:
            del bundle["provenance"]["timestamp"]
        assert bundles[0] == bundles[1]

    def test_first_rejection_loads_jsonschema_and_keeps_its_message(self, tmp_path):
        doc = json.loads((MODELS_DIR / "twostate.json").read_text())
        doc["finite"]["h"][1][0] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err, loaded = cold_command("analyze", "--model", str(path))
        assert (code, out, loaded) == (1, "", ["jsonschema"])
        assert err == "error: $.finite.h[1][0]: True is not of type 'number', 'string'\n"

    def test_pool_threads_match_one_thread_on_numpy_alone(self):
        """A 2-chunk estimate on two pool threads matches one thread bit for bit, and loads no scipy."""
        code = (
            "import sys\n"
            "from maxacc import FiniteStateModel\n"
            "from maxacc.wonham import estimate_stationary_error\n"
            "model = FiniteStateModel([[-1.0, 1.0], [1.0, -1.0]], [[0.0], [1.0]])\n"
            "est, se = estimate_stationary_error(model, [0.0, 1.0], 0.5, trials=128, horizon=10.0, seed=8)\n"
            "print(est.hex(), se.hex(), 'scipy.linalg' in sys.modules)\n"
        )
        runs = [cold(code, MAXACC_THREADS=threads) for threads in ("1", "2")]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith(" False\n")


def test_no_module_imports_scipy_or_jsonschema():
    """The package reaches them only through a DeferredModule, on first use."""
    found = []
    for path in sorted((SRC_DIR / "maxacc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in ("scipy", "jsonschema")]
    assert found == []


def test_only_lingauss_and_modelfile_build_deferred_modules():
    """The finite path needs numpy alone: no other module holds a stand-in."""
    found = set()
    for path in sorted((SRC_DIR / "maxacc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "DeferredModule":
                found.add(path.name)
    assert found == {"lingauss.py", "modelfile.py"}
