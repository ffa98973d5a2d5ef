"""Config parsing, preset expansion, validation, and serialization."""

import os
import warnings

import numpy as np
import pytest

from otflow import ConfigError, derive_config, load_config, load_config_text, serialize_config
from otflow.config import _KEYS, editor_config
from otflow.presets import get_preset, preset_names

_BASE = [
    "[experiment]",
    "algorithm = invert_edit",
    "[dataset.d]",
    "points = 0,0; 1,1",
    "[inputs]",
    "x0 = 0.5, 0.5",
    "[editor]",
    "condition = d",
]

# A Gaussian dataset waiting for its cov line.
_GAUSSIAN = ["[experiment]", "algorithm = generate", "[dataset.d]", "mean = 0, 0"]

# A verify run waiting for its [verify] keys.
_VERIFY = ["[experiment]", "algorithm = verify", "[dataset.d]", "points = 0,0; 1,1", "[verify]"]


def _load(lines, **kw):
    return load_config_text("\n".join(lines), **kw)


def test_minimal_config_and_defaults():
    cfg = _load(_BASE)
    assert cfg.name == "experiment"
    assert cfg.algorithm == "invert_edit"
    assert cfg.seed == 0
    assert cfg.output_dir == "out"
    assert cfg.plot is False
    assert cfg.grid.n_steps == 28 and cfg.grid.direction == "reverse"
    assert cfg.transport.beta0 == 0.0
    assert cfg.transport.clip_tau == 10.0
    assert cfg.scales.w == 1.0
    assert np.array_equal(cfg.codec.scale, np.ones(2))
    assert cfg.editor["eta"] == 0.0
    assert cfg.editor["eta_window"] == (1.0, 0.0)
    assert cfg.inputs["count"] == 256
    assert cfg.replicates == 1
    assert cfg.verify["kind"] == "all"
    assert cfg.verify["beta0_list"] == [0.0, 0.1, 0.2, 0.4]


def test_preset_expansion():
    body = _BASE[2:]  # preset supplies [experiment] algorithm
    cfg = _load(body, preset="reconstruction")
    assert cfg.algorithm == "invert_edit"
    assert cfg.editor["eta"] == 1.0
    assert cfg.editor["eta_window"] == (1.0, 0.0)
    assert cfg.transport.beta0 == 0.1
    assert cfg.transport.phi == 0.3
    assert cfg.transport.clip_tau == 1.0
    assert cfg.grid.n_steps == 28
    assert cfg.scales.w == 7.5
    assert cfg.resolved["experiment.preset"] == "reconstruction"


def test_preset_named_in_file():
    body = ["[experiment]", "preset = semantic"] + _BASE[2:]
    cfg = _load(body)
    assert cfg.editor["eta"] == 1.0
    # eta_start 0, eta_stop 0.25 translate to the time window (1.0, 0.75)
    assert cfg.editor["eta_window"] == (1.0, 0.75)


def test_file_beats_preset_and_set_beats_file():
    body = _BASE[2:] + ["[transport]", "beta0 = 0.7"]
    cfg = _load(body, preset="reconstruction")
    assert cfg.transport.beta0 == 0.7
    cfg = _load(body, preset="reconstruction", overrides=["transport.beta0=0.9"])
    assert cfg.transport.beta0 == 0.9


def test_set_cannot_choose_preset():
    with pytest.raises(ConfigError, match="--preset"):
        _load(_BASE, overrides=["experiment.preset=semantic"])


def test_set_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        _load(_BASE, overrides=["transport.bogus=1"])
    with pytest.raises(ConfigError, match="key=value"):
        _load(_BASE, overrides=["transport.beta0"])


@pytest.mark.parametrize("lines, err_line, match", [
    (["[bogus]"], 1, "unknown section"),
    (["[experiment]", "nope = 3"], 2, "unknown key"),
    (["[grid]", "n_steps = 4", "n_steps = 5"], 3, "duplicate"),
    (["algorithm = invert_edit"], 1, "before any"),
    (["[experiment]", "algorithm"], 2, "key = value"),
    (["[dataset]"], 1, "dataset sections need a name"),
    (["[dataset.]"], 1, "dataset sections need a name"),
    # A dotted name would split one dataset's keys over two names, and a
    # path-like one would make gen-data write outside its output directory.
    (["[dataset.a.b]"], 1, "letters, digits, '_' and '-'"),
    (["[dataset.d]", "points = 0,0", "[dataset.d.e]"], 3, "dataset sections need a name"),
    (["[dataset./abs/dir/name]"], 1, "dataset sections need a name"),
])
def test_parse_errors_carry_line_numbers(lines, err_line, match):
    with pytest.raises(ConfigError, match=match) as ei:
        _load(lines)
    assert ei.value.line == err_line


def test_empty_config_rejected():
    for text in ("", "# only a comment\n"):
        with pytest.raises(ConfigError, match="no configuration"):
            load_config_text(text)


@pytest.mark.parametrize("mutation, match", [
    (["[experiment]", "algorithm = nope"] + _BASE[2:], "algorithm must be one of"),
    (_BASE + ["[grid]", "t_start = 0.0", "t_end = 1.0"], "reverse grid"),
    (_BASE + ["[grid]", "n_steps = 0"], "n_steps"),
    (_BASE[:4], "inputs.x0 or inputs.sample_source"),
    (_BASE[:6] + ["count = -2"] + _BASE[6:], "count must be >= 1"),
    (_BASE + ["[scales]", "w = inf"], "finite"),
    (_BASE + ["[transport]", "beta0 = -0.5"], "beta0"),
    (_BASE + ["[codec]", "scale = 0"], "nonzero"),
    (_BASE + ["[codec]", "scale = 1, 2, 3"], "expected 1 or 2"),
    (_BASE + ["[verify]", "kind = nope"], "unknown verification kind"),
    (_BASE + ["[sweep]", "replicates = 0"], "replicates"),
    (_BASE[:5] + ["x0 = 1, 2, 3"] + _BASE[6:], "expected 2 entries"),
    (["[experiment]", "seed = -1"] + _BASE[1:2] + _BASE[2:], "nonnegative"),
    (_BASE + ["eta_start = 0.5", "eta_stop = 0.2"], "eta_start"),
    (["[experiment]", "algorithm = generate", "[dataset.d]", "mean = 0, 0"],
     "exactly one of"),
    (_BASE[:4] + ["cov = 1,0; 0,1"] + _BASE[4:], "exactly one of"),
    (_BASE[:3] + ["points = nan,0; 1,1"] + _BASE[4:], "dataset.d: .*non-finite"),
    (_GAUSSIAN + ["cov = 1, 2; 0, 1"], "dataset.d: .*symmetric"),
    (_GAUSSIAN + ["cov = 1, 0; 0, -1"], "dataset.d: .*positive semidefinite"),
    (_GAUSSIAN[:3] + ["mean = nan, 0", "cov = 1, 0; 0, 1"], "dataset.d: .*mean .*non-finite"),
    (_BASE[:5] + ["x0 = nan, 0"] + _BASE[6:], "inputs.x0: .*finite"),
    (_BASE[:6] + ["x_target = inf, 0"] + _BASE[6:], "inputs.x_target: .*finite"),
    (_BASE + ["[verify]", "beta0_list = 0, nan, 0.2, 0.4"], "verify.beta0_list: .*finite"),
    (_BASE + ["[verify]", "edit_beta0_list = 0, -0.1, 0.2"], "verify.edit_beta0_list: .*>= 0"),
    (_BASE + ["eta = 1.5"], r"editor.eta: eta must be in \[0, 1\], got 1.5"),
    (_BASE + ["eta = nan"], r"editor.eta: eta must be in \[0, 1\], got nan"),
    (_VERIFY + ["phi = 0"], r"verify.phi: phi must lie in \(0, 1\]"),
    (_VERIFY + ["phi = 1.5"], r"verify.phi: phi must lie in \(0, 1\]"),
    (_VERIFY + ["n_runs = 0"], "verify.n_runs: n_runs must be a positive integer"),
    (_VERIFY + ["n_runs = -3"], "verify.n_runs: n_runs must be a positive integer"),
    (_VERIFY + ["kind = convergence", "beta0_list = 0.1, 0.2, 0.4"],
     "verify.beta0_list: .*must include 0"),
    (_VERIFY + ["kind = edit_control", "edit_beta0_list = 0, 0.1, 0.2"],
     "verify.edit_beta0_list: .*three positive"),
    (_VERIFY + ["kind = discretization", "step_counts = 10, 20"],
     "verify.step_counts: .*three positive"),
    (_VERIFY + ["kind = convergence", "beta0_list = 0, 0.1, 1e155"],
     r"verify.beta0_list: beta0 = 1e\+155 has a square of inf"),
    (_VERIFY + ["kind = edit_control", "edit_beta0_list = 0, 1e-170, 0.1, 0.2", "phi = 0.01"],
     "verify.edit_beta0_list: beta0 = 1e-170 gives .* of 0 at phi = 0.01"),
    (_VERIFY + ["kind = edit_control", "edit_beta0_list = 0, 1e-300, 0.1", "phi = 5e-324"],
     "verify.phi: phi = 5e-324 gives a schedule integral of 0"),
])
def test_validation_errors(mutation, match):
    with pytest.raises(ConfigError, match=match):
        _load(mutation)


def test_run_values_are_checked_only_where_read():
    # A value the runtime would reject fails at load only in a run that reads
    # it, with its line when it came from the file.
    with pytest.raises(ConfigError) as ei:
        _load(_BASE + ["eta = 1.5"])
    assert ei.value.line == len(_BASE) + 1
    with pytest.raises(ConfigError, match="^editor.eta: ") as ei:
        _load(_BASE, overrides=["editor.eta=1.5"])
    assert ei.value.line is None
    loads = [
        _GAUSSIAN + ["cov = 1, 0; 0, 1", "[editor]", "eta = 1.5"],
        _BASE + ["[verify]", "n_runs = 0", "phi = 0", "beta0_list = 0.1", "step_counts = 10"],
        _VERIFY + ["kind = discretization", "n_runs = 0", "phi = 0", "beta0_list = 0.1",
                   "edit_beta0_list = 0"],
        _VERIFY + ["kind = convergence", "phi = 0", "step_counts = 10, 20",
                   "edit_beta0_list = 0, 0.1"],
        _VERIFY + ["kind = edit_control", "beta0_list = 0.1", "step_counts = 10, 20"],
    ]
    for lines in loads:
        _load(lines)


# A minimal config of each algorithm, as section -> key -> value.
_ALGORITHM_BASES = {
    "invert_edit": {"experiment": {"algorithm": "invert_edit"},
                    "dataset.d": {"points": "0,0; 1,1"}, "inputs": {"x0": "0.5, 0.5"},
                    "editor": {"condition": "d"}},
    "flowedit": {"experiment": {"algorithm": "flowedit"},
                 "dataset.d": {"points": "0,0; 1,1"}, "inputs": {"x0": "0.5, 0.5"},
                 "editor": {"source_condition": "d", "target_condition": "d"}},
    "generate": {"experiment": {"algorithm": "generate"}, "dataset.d": {"points": "0,0; 1,1"}},
    "verify": {"experiment": {"algorithm": "verify"}, "dataset.d": {"points": "0,0; 1,1"}},
}


def _render(sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return lines


@pytest.mark.parametrize("algorithm", list(_ALGORITHM_BASES))
def test_every_given_key_parses_whatever_the_algorithm_reads(algorithm):
    # A key the algorithm never reads must still parse as its kind: "@@"
    # fails under its key, with its line when the value came from the file.
    base = _ALGORITHM_BASES[algorithm]
    _load(_render(base))
    for path, (kind, _) in _KEYS.items():
        if kind == "str":
            continue
        with pytest.raises(ConfigError) as ei:
            _load(_render(base), overrides=[f"{path}=@@"])
        assert ei.value.line is None, path
        assert str(ei.value).startswith(f"{path}: cannot parse '@@' as {kind}"), path
        section, _, key = path.rpartition(".")
        lines = _render({**base, section: {**base.get(section, {}), key: "@@"}})
        line = lines.index(f"{key} = @@") + 1
        with pytest.raises(ConfigError) as ei:
            _load(lines)
        assert ei.value.line == line, path
        assert str(ei.value).startswith(f"line {line}: {path}: cannot parse '@@'"), path


def test_generate_transport_without_target_fails_at_load():
    # The run-time rule of a generate run, applied at load under
    # transport.beta0 with its line; a sweep over beta0 still loads, and its
    # beta0 > 0 cells fail alone at run time (tests/test_runner_cli.py).
    lines = _GAUSSIAN + ["cov = 1, 0; 0, 1", "[transport]", "beta0 = 0.5"]
    message = "transport.beta0: generate with transport.beta0 > 0 needs inputs.x_target"
    with pytest.raises(ConfigError) as ei:
        _load(lines)
    assert ei.value.line == len(lines) and str(ei.value) == f"line {len(lines)}: {message}"
    with pytest.raises(ConfigError) as ei:
        _load(lines[:5], overrides=["transport.beta0=0.5"])
    assert ei.value.line is None and str(ei.value) == message
    _load(lines + ["[inputs]", "x_target = 1, 0"])
    _load(lines[:5] + ["[sweep]", "axis = transport.beta0: 0, 0.5"])


def test_set_override_drops_the_file_line():
    # Once --set replaces a file value, the file's line holds a different one.
    with pytest.raises(ConfigError) as ei:
        _load(_BASE + ["eta = 0.5"], overrides=["editor.eta=nan"])
    assert ei.value.line is None
    assert str(ei.value).startswith("editor.eta: ")


def test_constructor_errors_carry_key_line():
    # A runtime constructor's error is reported under the key its message
    # names, with that key's line; window names window_hi, its first key.
    n = len(_BASE)
    cases = [
        (["[transport]", "phi = 0"], n + 2, "transport.phi: phi must lie in (0, 1]"),
        (["[scales]", "w_tar = inf"], n + 2, "scales.w_tar: guidance scale w_tar must be finite"),
        (["[codec]", "offset = nan"], n + 2, "codec.offset: offset contains non-finite"),
        (["[grid]", "t_end = 2"], n + 2, "grid.t_end: t_end must lie in [0, 1], got 2.0"),
        (["[transport]", "window_lo = 0.5", "window_hi = 0.2"], n + 3,
         "transport.window_hi: window must satisfy"),
    ]
    for extra, line, text in cases:
        with pytest.raises(ConfigError) as ei:
            _load(_BASE + extra)
        assert ei.value.line == line
        assert str(ei.value).startswith(f"line {line}: {text}")


def test_dataset_errors_carry_key_line(tmp_path):
    # The line is that of the key holding the rejected value, or the
    # dataset's first key when the keys do not make a dataset.
    (tmp_path / "bad.csv").write_text("nan,0\n1,1\n", encoding="utf-8")
    cases = [
        (_BASE[:3] + ["points = nan,0; 1,1"] + _BASE[4:], 4, "points contain non-finite"),
        (_GAUSSIAN + ["cov = 1, 2; 0, 1"], 5, "cov must be symmetric"),
        (_GAUSSIAN + ["cov = 1, 0; 0, -1"], 5, "cov is not positive semidefinite"),
        (_GAUSSIAN[:3] + ["cov = 1, 0; 0, 1", "mean = nan, 0"], 5, "mean contains non-finite"),
        (_GAUSSIAN[:3] + ["csv = bad.csv"], 4, "points contain non-finite"),
        (_GAUSSIAN, 4, "give exactly one of"),
        (_BASE[:4] + ["cov = 1,0; 0,1"] + _BASE[4:], 4, "give exactly one of"),
    ]
    for lines, line, text in cases:
        with pytest.raises(ConfigError) as ei:
            _load(lines, base_dir=str(tmp_path))
        assert ei.value.line == line
        assert str(ei.value).startswith(f"line {line}: dataset.d: {text}")
        assert "dataset 'd'" not in str(ei.value)


def test_dataset_name_rule_covers_set_axes_and_derive_config():
    with pytest.raises(ConfigError) as ei:
        _load(_BASE, overrides=["dataset.d.e.points=0,0; 1,1"])
    assert str(ei.value) == "--set: unknown key 'dataset.d.e.points'"
    with pytest.raises(ConfigError) as ei:
        _load(_BASE + ["[sweep]", "axis = dataset.d.e.csv: a.csv, b.csv"])
    assert str(ei.value) == "line 10: axis over unknown key 'dataset.d.e.csv'"
    with pytest.raises(ConfigError) as ei:
        derive_config(_load(_BASE), {"dataset.d/e.points": "0,0; 1,1"})
    assert str(ei.value) == "override of unknown key 'dataset.d/e.points'"
    cfg = _load(_BASE, overrides=["dataset.set_2-b.points=2,2; 3,3"])
    assert cfg.registry.names() == ["d", "set_2-b"]


@pytest.mark.parametrize("name", ["../escaped", "a/b"])
def test_experiment_name_must_be_one_path_component(name):
    # run and sweep write <out-dir>/<name>_*, so a name with '/' or '..'
    # would write outside --out-dir; it fails at load with its key and line.
    with pytest.raises(ConfigError) as ei:
        _load(_BASE[:1] + [f"name = {name}"] + _BASE[1:])
    assert ei.value.line == 2
    assert str(ei.value) == ("line 2: experiment.name: name must be letters, digits, '_' and "
                             f"'-', since it is a file stem, got {name!r}")
    assert _load(_BASE[:1] + ["name = run_2-b"] + _BASE[1:]).name == "run_2-b"


def test_every_preset_key_is_declared():
    # _merge copies preset paths without checking them, so a mistyped key
    # would be ignored and then break a reload of serialize_config output.
    from otflow.config import _KEYS, editor_config

    for name in preset_names():
        assert set(get_preset(name)) <= set(_KEYS), name


def test_docstring_key_list_matches_table():
    from otflow import config

    block = config.__doc__.split("Keys:\n")[1].split("\n\n")[0]
    listed, section = [], None
    for line in block.splitlines():
        head, _, keys = line.strip().rpartition("]")
        section = head.lstrip("[") or section
        listed += [f"{section}.{k.strip()}" for k in keys.split(",") if k.strip()]
    dataset = [p for p in listed if p.startswith("dataset.")]
    assert sorted(set(listed) - set(dataset)) == sorted(config._KEYS)
    assert len(listed) == len(config._KEYS) + len(dataset)
    assert sorted(p.rpartition(".")[2] for p in dataset) == sorted(config._DATASET_KINDS)


def test_invalid_dataset_exits_with_config_code(tmp_path, monkeypatch):
    from otflow.cli import EXIT_CONFIG, main

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(_GAUSSIAN + ["cov = 1, 2; 0, 1", ""]))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_flowedit_editor_validation():
    base = [
        "[experiment]", "algorithm = flowedit",
        "[dataset.a]", "points = 0,0; 1,1",
        "[dataset.b]", "points = 2,2; 3,3",
        "[inputs]", "x0 = 0.5, 0.5",
        "[editor]", "source_condition = a", "target_condition = b",
    ]
    cfg = _load(base)
    # An absent n_max is left to FlowEditConfig, which defaults it to the
    # step count.
    assert cfg.editor["n_max"] is None and editor_config(cfg).n_max == 28
    assert cfg.editor["cond_src"].name == "a"
    with pytest.raises(ConfigError, match="n_min"):
        _load(base + ["n_min = 10", "n_max = 5"])
    with pytest.raises(ConfigError, match="n_avg"):
        _load(base + ["n_avg = 0"])
    with pytest.raises(ConfigError, match="required key missing"):
        _load(base[:-1])  # target_condition omitted
    with pytest.raises(ConfigError, match="not registered"):
        _load(base[:-1] + ["target_condition = zzz"])


def test_flowedit_errors_carry_key_line():
    # FlowEditConfig's own rule and wording, under the key it names.
    base = [
        "[experiment]", "algorithm = flowedit",
        "[dataset.a]", "points = 0,0; 1,1",
        "[inputs]", "x0 = 0.5, 0.5",
        "[editor]", "source_condition = a", "target_condition = a",
    ]
    n = len(base)
    cases = [
        (["n_max = 5", "n_min = 10"], n + 2,
         "editor.n_min: need 0 <= n_min <= n_max <= n_steps, got n_min=10 n_max=5 n_steps=28"),
        (["n_avg = 0"], n + 1, "editor.n_avg: n_avg must be a positive integer, got 0"),
    ]
    for extra, line, text in cases:
        with pytest.raises(ConfigError) as ei:
            _load(base + extra)
        assert ei.value.line == line
        assert str(ei.value) == f"line {line}: {text}"


def test_generate_needs_no_inputs():
    cfg = _load(["[experiment]", "algorithm = generate",
                 "[dataset.d]", "points = 0,0; 1,1"])
    assert cfg.inputs["x0"] is None


def test_sample_source_replaces_x0():
    cfg = _load(_BASE[:4] + ["[inputs]", "sample_source = d"])
    assert cfg.inputs["sample_source"] == "d"
    with pytest.raises(ConfigError, match="not registered"):
        _load(_BASE[:4] + ["[inputs]", "sample_source = zzz"])


def test_sweep_axes_parse():
    cfg = _load(_BASE + ["[sweep]",
                         "axis = transport.beta0: 0, 0.5, 1.0",
                         "axis = scales.w: 1, 2",
                         "replicates = 3"])
    assert cfg.sweep_axes == [("transport.beta0", ["0", "0.5", "1.0"]),
                              ("scales.w", ["1", "2"])]
    assert cfg.replicates == 3


@pytest.mark.parametrize("axis_line, match", [
    ("axis = bogus.k: 1", "unknown key"),
    ("axis = transport.beta0", "axis needs"),
    ("axis = transport.beta0:", "no values"),
    # Every row takes these keys from the base config: such an axis would
    # only relabel rows.
    *[(f"axis = {path}: 1, 2", f"axis over {path}: sweep rows read it from the base config")
      for path in ("experiment.seed", "experiment.name", "experiment.output_dir",
                   "experiment.plot", "experiment.preset", "sweep.replicates")],
    # Commas split axis values, so no cell could hold a whole matrix or list.
    *[(f"axis = {path}: {values}", f"axis over {path}: its {kind} values hold commas, "
       "which separate axis values")
      for path, values, kind in (("dataset.d.points", "0,0; 1,1", "matrix"),
                                 ("dataset.g.cov", "1, 0; 0, 1", "matrix"),
                                 ("verify.step_counts", "10, 20, 40", "ints"),
                                 ("verify.beta0_list", "0, 0.1", "floats"),
                                 ("verify.edit_beta0_list", "0.5", "floats"))],
])
def test_sweep_axis_errors(axis_line, match):
    with pytest.raises(ConfigError, match=match) as ei:
        _load(_BASE + ["[sweep]", axis_line])
    assert ei.value.line == len(_BASE) + 2


def test_sweep_duplicate_axis():
    with pytest.raises(ConfigError, match="duplicate axis") as ei:
        _load(_BASE + ["[sweep]",
                       "axis = transport.beta0: 0, 1",
                       "axis = transport.beta0: 2, 3"])
    assert ei.value.line == len(_BASE) + 3


def test_sweep_cell_cap():
    big = ", ".join(str(i) for i in range(400))
    mid = ", ".join(str(i) for i in range(300))
    with pytest.raises(ConfigError, match="cap"):
        _load(_BASE + ["[sweep]",
                       f"axis = transport.beta0: {big}",
                       f"axis = scales.w: {mid}"])


def test_sweep_row_cap_counts_replicates():
    # 1000 cells under the cap, but 10**9 rows once replicated; load only.
    axis = ", ".join(str(i) for i in range(1000))
    with pytest.raises(ConfigError, match="cap"):
        _load(_BASE + ["[sweep]", f"axis = transport.beta0: {axis}", "replicates = 1000000"])
    assert _load(_BASE + ["[sweep]", f"axis = transport.beta0: {axis}",
                          "replicates = 100"]).replicates == 100


def test_sweep_axis_over_algorithm_and_dataset_keys_loads():
    cfg = _load(_BASE + ["[sweep]", "axis = experiment.algorithm: invert_edit, generate",
                         "axis = dataset.d.csv: a.csv, b.csv"])
    assert [path for path, _ in cfg.sweep_axes] == ["experiment.algorithm", "dataset.d.csv"]


def test_sweep_axis_over_vector_key_loads():
    cfg = _load(_BASE + ["[sweep]", "axis = codec.scale: 1, 2", "axis = inputs.x0: 0.5, 1.0",
                         "axis = dataset.d.mean: 0, 1"])
    assert cfg.sweep_axes == [("codec.scale", ["1", "2"]), ("inputs.x0", ["0.5", "1.0"]),
                              ("dataset.d.mean", ["0", "1"])]


def test_sweep_axis_is_not_a_set_key():
    from otflow.config import _KEYS, editor_config

    assert "sweep.axis" not in _KEYS
    with pytest.raises(ConfigError, match="unknown key 'sweep.axis'"):
        _load(_BASE + ["[sweep]", "axis = transport.beta0: 0, 1"],
              overrides=["sweep.axis=scales.w: 1, 2"])


def test_csv_dataset_resolves_relative_to_config(tmp_path):
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
    lines = ["[experiment]", "algorithm = generate",
             "[dataset.c]", "csv = pts.csv"]
    cfg = _load(lines, base_dir=str(tmp_path))
    assert np.allclose(cfg.registry.points("c"), pts)
    # load_config resolves against the config file's own directory
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg2 = load_config(str(cfg_file))
    assert np.allclose(cfg2.registry.points("c"), pts)
    with pytest.raises(ConfigError, match="file not found"):
        _load(["[experiment]", "algorithm = generate",
               "[dataset.c]", "csv = missing.csv"], base_dir=str(tmp_path))


@pytest.mark.parametrize("text", ["", "# no rows\n"])
def test_csv_dataset_without_rows_fails_with_its_config_error_alone(tmp_path, text):
    # No numpy warning comes before the error, which keeps the key's line.
    (tmp_path / "empty.csv").write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as ei:
            _load(_GAUSSIAN[:3] + ["csv = empty.csv"], base_dir=str(tmp_path))
    assert ei.value.line == 4
    assert str(ei.value) == "line 4: dataset.d: points must be a non-empty (n, d) array"


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="config file not found"):
        load_config("/nonexistent/path.cfg")


def test_gaussian_dataset_and_verify_lists():
    cfg = _load(["[experiment]", "algorithm = verify",
                 "[dataset.g]", "mean = 1.0, -0.5", "cov = 0.8, 0.2; 0.2, 0.5",
                 "[verify]", "kind = convergence", "beta0_list = 0, 0.2, 0.4",
                 "step_counts = 5, 10, 20", "condition = g"])
    assert cfg.registry.kind("g") == "gaussian"
    assert cfg.verify["beta0_list"] == [0.0, 0.2, 0.4]
    assert cfg.verify["step_counts"] == [5, 10, 20]
    assert cfg.verify["condition"].name == "g"


@pytest.mark.parametrize("line, path", [
    ("probe_t = 1.5", "verify.probe_t"),
    ("probe_t = 0.0", "verify.probe_t"),
    ("probe_t = -0.2", "verify.probe_t"),
    ("step_counts = 0, 10, 20", "verify.step_counts"),
])
def test_verify_probe_step_must_stay_in_span(line, path):
    # The coarsest probe step (dt = 1 / min(step_counts)) runs from probe_t
    # toward t = 0 and must stay inside [0, 1].
    base = ["[experiment]", "algorithm = verify", "[dataset.g]", "mean = 0, 0",
            "cov = 1, 0; 0, 1", "[verify]", "condition = g"]
    with pytest.raises(ConfigError, match=path) as err:
        _load(base + [line])
    assert err.value.line == len(base) + 1
    assert _load(base + ["probe_t = 1.0"]).verify["probe_t"] == 1.0
    assert _load(base + ["probe_t = 0.1"]).verify["probe_t"] == 0.1


def test_serialize_round_trip_including_axes():
    cfg = _load(_BASE + ["[sweep]",
                         "axis = transport.beta0: 0, 0.25, 0.5",
                         "replicates = 2"],
                preset="stroke")
    text = serialize_config(cfg)
    cfg2 = load_config_text(text)
    assert cfg2.resolved == cfg.resolved
    assert cfg2.sweep_axes == cfg.sweep_axes
    assert cfg2.replicates == 2
    assert cfg2.transport.beta0 == cfg.transport.beta0


def test_serialize_round_trip_after_set_overrides():
    cfg = _load(_BASE + ["[sweep]", "axis = transport.beta0: 0, 0.5", "replicates = 2"],
                overrides=["experiment.seed=9", "scales.w=2.5", "editor.eta=0.25"])
    cfg2 = load_config_text(serialize_config(cfg))
    assert cfg2.resolved == cfg.resolved
    assert cfg2.sweep_axes == cfg.sweep_axes


def test_derive_config_overrides_and_drops_axes():
    cfg = _load(_BASE + ["[sweep]", "axis = transport.beta0: 0, 1"])
    cell = derive_config(cfg, {"transport.beta0": 0.25})
    assert cell.transport.beta0 == 0.25
    assert cell.sweep_axes == []
    assert cfg.transport.beta0 == 0.0  # original untouched
    with pytest.raises(ConfigError, match="unknown key"):
        derive_config(cfg, {"nope.k": 1})


def test_derive_config_reuses_registry_unless_data_changes():
    # A sweep cell over a transport knob shares the parent's (immutable)
    # registry; an axis over a dataset key must rebuild it from the new data.
    cfg = _load(_BASE + ["[sweep]", "axis = transport.beta0: 0, 1"])
    cell = derive_config(cfg, {"transport.beta0": 0.25, "scales.w": 2.0})
    assert cell.registry is cfg.registry
    moved = derive_config(cfg, {"dataset.d.points": "5,5; 6,6"})
    assert moved.registry is not cfg.registry
    assert np.array_equal(moved.registry.points("d"), np.array([[5.0, 5.0], [6.0, 6.0]]))
    assert np.array_equal(cfg.registry.points("d"), np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_codec_broadcast_scalar_to_dim():
    cfg = _load(_BASE + ["[codec]", "scale = 2", "offset = 0.5, -0.5"])
    assert np.array_equal(cfg.codec.scale, np.array([2.0, 2.0]))
    assert np.array_equal(cfg.codec.offset, np.array([0.5, -0.5]))


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_loads(name):
    body = [
        "[dataset.a]", "points = 0,0; 1,1",
        "[dataset.b]", "points = 2,2; 3,3",
        "[inputs]", "x0 = 0.5, 0.5",
        "[editor]", "condition = a",
        "source_condition = a", "target_condition = b",
    ]
    cfg = _load(body, preset=name)
    assert cfg.algorithm in ("invert_edit", "flowedit")
    assert cfg.resolved["experiment.preset"] == name


def test_unknown_preset():
    with pytest.raises(KeyError, match="available"):
        get_preset("nope")
    with pytest.raises(ConfigError, match="unknown preset"):
        _load(_BASE, preset="nope")


def test_unparsable_bool_exits_with_config_code(tmp_path, capsys):
    from otflow.cli import EXIT_CONFIG, main

    path = tmp_path / "p.cfg"
    path.write_text("\n".join(_BASE[:1] + ["plot = maybe"] + _BASE[1:] + [""]))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: line 2: experiment.plot: cannot parse "
                                       "'maybe' as bool (expected true/false)\n")
    assert not os.path.exists(tmp_path / "out")


def test_config_without_datasets_rejected():
    with pytest.raises(ConfigError, match=r"^at least one \[dataset.<name>\] section"):
        _load(["[experiment]", "algorithm = generate", "[inputs]", "count = 4"])
