"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gmmodes
from gmmodes import bounds
from gmmodes.cli import main
from gmmodes.mixture import make_mixture, save_mixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("gmmodes ")


def test_construct_and_modes_cross(tmp_path, capsys):
    base = str(tmp_path / "cross")
    code, out, _ = run(capsys, "construct", "cross", "--output", base)
    assert code == 0
    doc = json.loads((tmp_path / "cross.mixture.json").read_text())
    assert doc["tool"] == "gmmodes"
    assert doc["mixture"]["dim"] == 2
    meta = json.loads((tmp_path / "cross.meta.json").read_text())
    assert meta["metadata"]["expected_modes"] == 3

    code, out, _ = run(capsys, "modes", base + ".mixture.json", "--starts", "120")
    assert code == 0
    assert out.splitlines()[0].startswith("modes=3 ")
    assert out.splitlines()[0].endswith("upper_bound=968")


def test_modes_duistermaat_summary(tmp_path, capsys):
    base = str(tmp_path / "tri")
    run(capsys, "construct", "duistermaat", "--sigma", "0.72", "--output", base)
    code, out, _ = run(capsys, "modes", base + ".mixture.json", "--starts", "150")
    assert code == 0
    assert out.splitlines()[0].startswith("modes=4 ")


def test_modes_json_output(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "modes", base + ".mixture.json", "--starts", "80",
        "--format", "json", "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["mode_count"] == 3
    assert doc["config"]["start_budget"] == 80
    # identical reruns agree on everything except the timestamp
    out2 = tmp_path / "report2.json"
    run(
        capsys, "modes", base + ".mixture.json", "--starts", "80",
        "--format", "json", "--output", str(out2),
    )
    doc2 = json.loads(out2.read_text())
    doc.pop("timestamp"), doc2.pop("timestamp")
    doc["config"].pop("output_path"), doc2["config"].pop("output_path")
    assert doc == doc2


def test_modes_csv_output(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "modes", base + ".mixture.json", "--starts", "80",
        "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x_1,x_2,log_density,kind,min_eigenvalue,converged_from"
    assert sum("mode" == line.split(",")[3] for line in lines[1:]) == 3


@pytest.mark.parametrize("output", [[], ["--output", "-"]], ids=["no-output", "dash"])
def test_modes_document_on_stdout_is_all_of_stdout(tmp_path, capsys, output):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    argv = ["modes", base + ".mixture.json", "--starts", "80", *output]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["mode_count"] == 3
    assert err.startswith("modes=3 ") and err.count("\n") == 1
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x_1,x_2,log_density,kind,min_eigenvalue,converged_from"
    assert err.startswith("modes=3 ") and err.count("\n") == 1


def test_modes_text_output_is_the_summary_line(tmp_path, capsys):
    # The default --format text writes the summary line wherever --output
    # points, not a JSON document.
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    argv = ["modes", base + ".mixture.json", "--starts", "80"]
    code, summary, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert summary.startswith("modes=3 ") and summary.endswith(" upper_bound=968\n")
    out_path = tmp_path / "report.txt"
    code, out, err = run(capsys, *argv, "--output", str(out_path))
    assert code == 0 and out == "" and err == ""
    assert out_path.read_text() == summary
    code, out, err = run(capsys, *argv, "--output", "-")
    assert code == 0 and out == summary and err == ""


def test_bounds_single(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--k", "3")
    assert code == 0
    assert out.strip() == "d=2 k=3 lower=6 conjecture=6 upper=42592"


def test_bounds_table_csv(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "bounds", "--table", "3", "4", "--format", "csv",
                     "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "d,k,lower,conjecture,upper,lower_exceeds_known"
    assert len(lines) == 1 + 12


# From k = 167 the fewnomial upper bound has more digits than Python's
# default int -> str limit (4300); every subcommand prints it exactly.
@pytest.mark.parametrize(
    "argv, d, k",
    [
        pytest.param(["bounds", "--d", "2", "--k", "170"], 2, 170, id="bounds"),
        pytest.param(["bounds", "--table", "2", "200"], 2, 200, id="bounds-table"),
        pytest.param(["modes", "MIXTURE", "--starts", "200"], 1, 170, id="modes"),
        pytest.param(["modes", "MIXTURE", "--starts", "200", "--format", "json"], 1, 170, id="modes-json"),
    ],
)
def test_huge_upper_bound_is_printed_exactly(tmp_path, capsys, argv, d, k):
    path = tmp_path / "m.mixture.json"
    save_mixture(make_mixture(np.full(170, 1 / 170), 3.0 * np.arange(170)[:, None], [np.eye(1)] * 170), path)
    code, out, err = run(capsys, *(str(path) if a == "MIXTURE" else a for a in argv))
    assert code == 0
    upper = bounds.upper(d, k)
    if "json" in argv:
        # The report is all of stdout; the summary line goes to stderr.
        assert json.loads(out)["report"]["bound_check"]["upper"] == upper
        assert err.startswith("modes=") and err.endswith(f" upper_bound={upper}\n")
    else:
        assert err == ""
        assert str(upper) in out


def test_bounds_missing_args(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2
    assert "error:" in err


def test_scan_csv(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "scan", base + ".mixture.json", "--res", "30",
                     "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,y,log_density"
    assert len(lines) == 1 + 30 * 30


def test_scan_negative_corner_space_separated(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    grids = []
    for corners in (["--lo", "-1,-2", "--hi", "3,0.5"], ["--lo=-1,-2", "--hi=3,0.5"]):
        code, out, err = run(capsys, "scan", base + ".mixture.json", "--res", "7", *corners)
        assert code == 0 and err == ""
        grids.append(out)
    assert grids[0] == grids[1]
    assert grids[0].splitlines()[1].startswith("-1.0,-2.0,")
    assert grids[0].splitlines()[-1].startswith("3.0,0.5,")


def test_scan_csv_univariate(tmp_path, capsys):
    base = str(tmp_path / "u")
    run(capsys, "construct", "univariate", "--output", base)
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "scan", base + ".mixture.json", "--res", "30",
                     "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,log_density"
    assert len(lines) == 1 + 30


def test_scan_rejects_high_dim(tmp_path, capsys):
    base = str(tmp_path / "p")
    run(capsys, "construct", "product", "--n", "2", "--output", base)
    code, _, err = run(capsys, "scan", base + ".mixture.json")
    assert code == 2
    assert "d=4" in err


def test_ridgeline_csv(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    out_path = tmp_path / "ridge.csv"
    code, _, _ = run(capsys, "ridgeline", base + ".mixture.json", "--samples", "101",
                     "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,log_density"
    assert len(lines) == 102
    first = [float(v) for v in lines[1].split(",")]
    assert first[1:3] == [0.0, 1.0]  # t = 0 sits at one of the means


def test_ridgeline_requires_two_components(tmp_path, capsys):
    base = str(tmp_path / "tri")
    run(capsys, "construct", "duistermaat", "--output", base)
    code, _, err = run(capsys, "ridgeline", base + ".mixture.json")
    assert code == 2


def test_every_json_artifact_records_its_arguments(tmp_path, capsys):
    base = str(tmp_path / "tri")
    assert run(capsys, "construct", "duistermaat", "--sigma", "0.6", "--output", base)[0] == 0
    report, table = tmp_path / "report.json", tmp_path / "table.json"
    argv = (
        ["modes", base + ".mixture.json", "--starts", "40", "--format", "json", "--output", str(report)],
        ["bounds", "--table", "2", "2", "--format", "json", "--output", str(table)],
    )
    for args in argv:
        assert run(capsys, *args)[0] == 0
    paths = (tmp_path / "tri.mixture.json", tmp_path / "tri.meta.json", report, table)
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        assert {"tool", "version", "timestamp", "config"} <= set(doc)
    assert docs[0]["config"]["sigma"] == 0.6
    assert set(docs[2]["config"]) == {
        "command", "mixture", "seed", "start_budget", "dedup_radius", "gradient_tolerance", "output_path", "format",
    }
    assert docs[1]["config"] == docs[0]["config"]
    assert docs[3]["config"]["table"] == [2, 2]
    assert len(docs[3]["table"]) == 4


def test_construct_unknown_scenario(capsys):
    code, _, err = run(capsys, "construct", "pentagon")
    assert code == 2
    assert "pentagon" in err


def test_verify_filtered(capsys):
    code, out, _ = run(capsys, "verify", "--only", "cross", "--starts", "120")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("pass") and "cross" in lines[0]


def test_construct_arrangement_metadata(tmp_path, capsys):
    base = str(tmp_path / "arr")
    code, _, _ = run(capsys, "construct", "arrangement", "--d", "2", "--k", "3",
                     "--delta", "0.03125", "--seed", "1", "--output", base)
    assert code == 0
    meta = json.loads((tmp_path / "arr.meta.json").read_text())["metadata"]
    assert len(meta["vertices"]) == 3
    assert len(meta["normals"]) == 3
    assert meta["genericity_margin"] >= 0.05


def test_modes_rejects_non_finite_mixture(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    path = tmp_path / "c.mixture.json"
    doc = json.loads(path.read_text())
    doc["mixture"]["components"][0]["weight"] = float("nan")
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "modes", str(path))
    assert code == 2
    assert "error:" in err and "modes=" not in out


def test_modes_rejects_bad_budget_seed_and_box(tmp_path, capsys):
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    for flags in (["--starts", "1"], ["--seed", "-1"]):
        code, _, err = run(capsys, "modes", base + ".mixture.json", *flags)
        assert code == 2
        assert "error:" in err
    meta_path = tmp_path / "c.meta.json"
    meta = json.loads(meta_path.read_text())
    box = meta["metadata"]["search_box"]
    box["lo"], box["hi"] = box["hi"], box["lo"]
    meta_path.write_text(json.dumps(meta))
    code, _, err = run(capsys, "modes", base + ".mixture.json")
    assert code == 2
    assert "error:" in err


def test_modes_and_verify_load_no_scipy(tmp_path, capsys):
    # Every cold CLI run pays for each import: modes and verify load only the
    # standard library, numpy and gmmodes. Modules already loaded at start-up
    # (site .pth hooks) do not count, nor do the file-less modules that
    # Cython-compiled numpy extensions register (cython_runtime, _cython_*).
    base = str(tmp_path / "c")
    run(capsys, "construct", "cross", "--output", base)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from gmmodes.cli import main\n"
        f"assert main(['modes', {base + '.mixture.json'!r}, '--starts', '50']) == 0\n"
        "assert main(['verify', '--only', 'cross', '--starts', '50']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(t for t in tops - set(sys.stdlib_module_names) - {'numpy', 'gmmodes'}\n"
        "             if getattr(sys.modules.get(t), '__file__', None)))\n"
    )
    src = os.path.dirname(os.path.dirname(gmmodes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def _with_mixture(doc, **fields):
    return json.dumps({**doc, "mixture": {**doc["mixture"], **fields}})


def _with_arrangement(meta, vertices):
    """Give a cross sidecar the arrangement fields, with these vertices."""
    meta["metadata"].update(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[0.0, 0.0], genericity_margin=1.0,
                            vertices=vertices)


# Input from outside the program: each case must end in one `error:` line and
# exit 2, not a traceback. MIXTURE stands for a constructed cross mixture file,
# first rewritten by mixture_text and its sidecar by meta_edit.
@pytest.mark.parametrize(
    "mixture_text, meta_edit, argv",
    [
        pytest.param(lambda doc: '{"dim": 2}', None, ["modes", "MIXTURE"], id="dim-only"),
        pytest.param(lambda doc: "[1, 2]", None, ["modes", "MIXTURE"], id="top-level-list"),
        pytest.param(lambda doc: _with_mixture(doc, components=[{"weight": 1.0, "mean": [0.0, 0.0]}]),
                     None, ["modes", "MIXTURE"], id="component-without-cov"),
        pytest.param(lambda doc: _with_mixture(doc, dim="x"), None, ["modes", "MIXTURE"], id="dim-not-a-number"),
        pytest.param(lambda doc: json.dumps(doc)[:40], None, ["modes", "MIXTURE"], id="truncated-json"),
        pytest.param(lambda doc: None, None, ["modes", "MIXTURE"], id="missing-file"),
        pytest.param(None, lambda meta: meta["metadata"]["search_box"].pop("hi"), ["modes", "MIXTURE"],
                     id="meta-box-without-hi"),
        pytest.param(None, lambda meta: _with_arrangement(meta, [[0.0, float("nan")]]), ["modes", "MIXTURE"],
                     id="meta-vertices-not-finite"),
        pytest.param(None, lambda meta: _with_arrangement(meta, [0.0, 1.0]), ["modes", "MIXTURE"],
                     id="meta-vertices-not-rows"),
        pytest.param(None, lambda meta: _with_arrangement(meta, [[0.0, "x"]]), ["modes", "MIXTURE"],
                     id="meta-vertices-not-numbers"),
        pytest.param(None, None, ["scan", "MIXTURE", "--lo", "a,b"], id="scan-lo-not-numbers"),
        pytest.param(None, None, ["scan", "MIXTURE", "--lo", "0"], id="scan-lo-wrong-dim"),
        pytest.param(None, None, ["scan", "MIXTURE", "--res", "-5"], id="scan-negative-res"),
        pytest.param(None, None, ["ridgeline", "MIXTURE", "--samples", "-3"], id="ridgeline-negative-samples"),
        pytest.param(None, None, ["modes", "MIXTURE", "--dedup-radius", "-1"], id="modes-negative-dedup-radius"),
        pytest.param(None, None, ["modes", "MIXTURE", "--grad-tol", "0"], id="modes-zero-grad-tol"),
        pytest.param(None, None, ["bounds", "--d", "-1", "--k", "2"], id="bounds-negative-d"),
        pytest.param(None, None, ["verify", "--only", "nothing-matches"], id="verify-only-matches-nothing"),
        pytest.param(None, None, ["verify", "--only", "cross", "--starts", "-5"], id="verify-negative-starts"),
    ],
)
def test_bad_outside_input_is_an_error_line(tmp_path, capsys, mixture_text, meta_edit, argv):
    base = tmp_path / "c"
    run(capsys, "construct", "cross", "--output", str(base))
    path = tmp_path / "c.mixture.json"
    if mixture_text is not None:
        text = mixture_text(json.loads(path.read_text()))
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
    if meta_edit is not None:
        meta_path = tmp_path / "c.meta.json"
        meta = json.loads(meta_path.read_text())
        meta_edit(meta)
        meta_path.write_text(json.dumps(meta))
    code, out, err = run(capsys, *(str(path) if a == "MIXTURE" else a for a in argv))
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["modes", "MIXTURE", "--starts", "20", "--output", "OUT.json"], id="modes"),
        pytest.param(["modes", "MIXTURE", "--starts", "20", "--format", "csv", "--output", "OUT.csv"], id="modes-csv"),
        pytest.param(["construct", "cross", "--output", "OUT"], id="construct"),
        pytest.param(["bounds", "--d", "2", "--k", "3", "--output", "OUT"], id="bounds"),
        pytest.param(["bounds", "--table", "2", "2", "--format", "json", "--output", "OUT"], id="bounds-table"),
        pytest.param(["ridgeline", "MIXTURE", "--output", "OUT.csv"], id="ridgeline"),
    ],
)
def test_unwritable_output_is_an_error_line(tmp_path, capsys, argv):
    base = tmp_path / "c"
    run(capsys, "construct", "cross", "--output", str(base))
    out_path = str(tmp_path / "missing-dir" / "x")
    subst = {"MIXTURE": str(tmp_path / "c.mixture.json")}
    argv = [subst.get(a, a.replace("OUT", out_path)) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: cannot write ") and "Traceback" not in err
