"""Config file parsing, preset expansion, validation, and serialization.

The format is line-oriented text: `[section]` headers, `key = value` lines,
`#` comment lines, nothing else.  Values are scalars, comma-separated vectors
("1.0, 2.0"), or semicolon-separated matrix rows ("1,0; 0,1").  Unknown
sections and keys are hard errors with the offending line number.

Resolution order, later wins: preset defaults, then file keys, then --set
overrides.  The preset comes from [experiment] preset unless the caller
passes one explicitly.  After resolution every value is a string; typed
parsing and invariant checks happen in one place when the runtime objects are
built, so error messages can always point at a config path; that includes
values the run reads that its runtime would reject.  _KEYS alone declares
each key's kind and default.

Keys:
  [experiment]  name, algorithm, seed, output_dir, preset, plot
  [grid]        n_steps, t_start, t_end
  [codec]       scale, offset
  [inputs]      x0, x_target, sample_source, count
  [transport]   beta0, phi, delta, clip_tau, orientation, window_hi, window_lo
  [editor]      eta, eta_start, eta_stop, condition, n_avg, n_max, n_min,
                source_condition, target_condition
  [scales]      w, w_src, w_tar
  [sweep]       axis, replicates
  [verify]      kind, beta0_list, edit_beta0_list, step_counts, phi, n_runs,
                probe_t, condition
  [dataset.X]   points, csv, mean, cov

algorithm is invert_edit|flowedit|generate|verify; codec scale and offset
are a scalar or a d-vector (identity when omitted); sample_source names the
dataset x0 is drawn from.  invert_edit reads the editor keys eta through
condition, flowedit n_avg through target_condition, generate condition.
`axis = path: v1, v2, ...` may repeat.  A dataset gives exactly one of
`points = x,y; x,y; ...`, `csv = path`, or mean and cov.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .core import LatentCodec, make_time_grid
from .editors import RngSeed, check_eta
from .fields import Condition, FieldRegistry, GuidanceScales
from .metrics import (check_convergence_arms, check_edit_control_arms, check_probe_step,
                      check_run_count, check_step_counts)
from .presets import get_preset
from .transport import TransportConfig, check_phi

_ALGORITHMS = ("invert_edit", "flowedit", "generate", "verify")
_SWEEP_CAP = 100_000

# Each key outside [dataset.*], declared once: path -> (kind in _PARSERS,
# default).  A None default makes a key required where a run reads it; the
# "" algorithm fails the algorithm check by name; _parse_axes reads sweep.axis.
_KEYS = {
    "experiment.name": ("str", "experiment"),
    "experiment.algorithm": ("str", ""),
    "experiment.seed": ("int", "0"),
    "experiment.output_dir": ("str", "out"),
    "experiment.preset": ("str", None),
    "experiment.plot": ("bool", "false"),
    "grid.n_steps": ("int", "28"),
    "grid.t_start": ("float", "1.0"),
    "grid.t_end": ("float", "0.0"),
    "codec.scale": ("vector", None),
    "codec.offset": ("vector", None),
    "inputs.x0": ("vector", None),
    "inputs.x_target": ("vector", None),
    "inputs.sample_source": ("str", None),
    "inputs.count": ("int", "256"),
    "transport.beta0": ("float", "0.0"),
    "transport.phi": ("float", "0.3"),
    "transport.delta": ("float", "0.01"),
    "transport.clip_tau": ("float", "10.0"),
    "transport.orientation": ("str", "elapsed"),
    "transport.window_hi": ("float", "1.0"),
    "transport.window_lo": ("float", "0.0"),
    "editor.eta": ("float", "0.0"),
    "editor.eta_start": ("float", "0.0"),
    "editor.eta_stop": ("float", "1.0"),
    "editor.condition": ("str", "null"),
    "editor.n_avg": ("int", "1"),
    "editor.n_max": ("int", None),
    "editor.n_min": ("int", "0"),
    "editor.source_condition": ("str", None),
    "editor.target_condition": ("str", None),
    "scales.w": ("float", "1.0"),
    "scales.w_src": ("float", "1.0"),
    "scales.w_tar": ("float", "1.0"),
    "sweep.axis": ("str", None),
    "sweep.replicates": ("int", "1"),
    "verify.kind": ("str", "all"),
    "verify.beta0_list": ("floats", "0, 0.1, 0.2, 0.4"),
    "verify.edit_beta0_list": ("floats", "0, 0.1, 0.2, 0.4, 0.8"),
    "verify.step_counts": ("ints", "10, 20, 40, 80"),
    "verify.phi": ("float", "0.3"),
    "verify.n_runs": ("int", "64"),
    "verify.probe_t": ("float", "0.6"),
    "verify.condition": ("str", "null"),
}
# [dataset.<name>] key -> kind; these keys have no default.
_DATASET_KINDS = {"points": "matrix", "csv": "str", "mean": "vector", "cov": "matrix"}
_SECTIONS = {path.rpartition(".")[0] for path in _KEYS}

# Editor or verifier -> the keys it reads whose values its runtime checks,
# each with the function that check is.
_RUN_RULES = {
    "invert_edit": (("editor.eta", check_eta),),
    "discretization": (("verify.step_counts", check_step_counts),),
    "convergence": (("verify.n_runs", check_run_count),
                    ("verify.beta0_list", check_convergence_arms)),
    "edit_control": (("verify.n_runs", check_run_count),
                     ("verify.edit_beta0_list", check_edit_control_arms),
                     ("verify.phi", check_phi)),
}


class ConfigError(Exception):
    """Raised for parse errors, unknown keys, and invariant violations."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _known_path(path):
    if path in _KEYS:
        return True
    section, _, key = path.rpartition(".")
    return section.startswith("dataset.") and key in _DATASET_KINDS


def _parse_lines(text, source):
    """First pass: (path -> (raw string, line number), sweep axis lines)."""
    entries = {}
    axes = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            base = section.split(".", 1)[0]
            if not section or (base != "dataset" and section not in _SECTIONS):
                raise ConfigError(f"unknown section [{section}] in {source}", lineno)
            if base == "dataset" and ("." not in section or not section.split(".", 1)[1]):
                raise ConfigError("dataset sections need a name: [dataset.<name>]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' in {source}, got {line!r}", lineno)
        if section is None:
            raise ConfigError(f"key before any [section] in {source}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        path = f"{section}.{key}"
        if section == "sweep" and key == "axis":
            axes.append((value, lineno))
            continue
        if not _known_path(path):
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if path in entries:
            raise ConfigError(f"duplicate key {path}", lineno)
        entries[path] = (value, lineno)
    if not entries and not axes:
        raise ConfigError(f"no configuration found in {source}")
    return entries, axes


def _merge(entries, preset_name, overrides):
    resolved = {}
    lines = {}
    if preset_name is not None:
        for path, value in get_preset(preset_name).items():
            resolved[path] = str(value)
    for path, (value, lineno) in entries.items():
        resolved[path] = value
        lines[path] = lineno
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, _, value = item.partition("=")
        path = path.strip()
        if path == "experiment.preset":
            raise ConfigError("select presets with --preset, not --set")
        if not _known_path(path):
            raise ConfigError(f"--set: unknown key {path!r}")
        resolved[path] = value.strip()
        lines.pop(path, None)  # the file's line no longer holds the value
    return resolved, lines


def _parse_vector(text):
    return np.array([float(p) for p in text.split(",") if p.strip() != ""], dtype=float)


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip() != ""]
    return np.array([[float(p) for p in r.split(",")] for r in rows], dtype=float)


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true/false")
    return text.lower() == "true"


_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "vector": _parse_vector, "matrix": _parse_matrix,
            "floats": lambda text: [float(p) for p in text.split(",") if p.strip() != ""],
            "ints": lambda text: [int(p) for p in text.split(",") if p.strip() != ""]}


class _Resolved:
    """Typed accessors over the merged path->string map."""

    def __init__(self, resolved, lines):
        self.map = resolved
        self.lines = lines

    def _fail(self, path, message):
        raise ConfigError(f"{path}: {message}", self.lines.get(path))

    def build(self, section, make, *args, **kwargs):
        """make(*args, **kwargs); a ValueError it raises fails under the first
        key of section that its message names, by the key or by the key's stem
        before '_' (window for window_hi), else under the section."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            message = str(exc)
        for word in re.findall(r"\w+", message):
            for path in _KEYS:
                if path == f"{section}.{word}" or path.startswith(f"{section}.{word}_"):
                    self._fail(path, message)
        self._fail(section, message)

    def has(self, path):
        return path in self.map

    def get(self, path, default=None):
        """The value at path, parsed as its declared kind; default, when
        given, stands in for the declared default."""
        kind, declared = _KEYS.get(path) or (_DATASET_KINDS[path.rpartition(".")[2]], None)
        text = self.map.get(path)
        if text is None:
            text = declared if default is None else default
            if text is None:
                self._fail(path, "required key missing")
        try:
            return _PARSERS[kind](text)
        except ValueError as exc:
            self._fail(path, f"cannot parse {text!r} as {kind} ({exc})")


@dataclass
class ExperimentConfig:
    """A fully validated experiment: runtime objects plus the resolved map
    they were built from (the map is what serialize_config re-emits)."""

    name: str
    algorithm: str
    seed: int
    output_dir: str
    plot: bool
    registry: FieldRegistry
    codec: LatentCodec
    grid: object
    transport: TransportConfig
    scales: GuidanceScales
    editor: dict
    inputs: dict
    verify: dict
    sweep_axes: list
    replicates: int
    resolved: dict = field(repr=False, default_factory=dict)
    base_dir: str = "."


def _build_registry(res, base_dir):
    names = sorted({p.split(".")[1] for p in res.map if p.startswith("dataset.")})
    registry = FieldRegistry()
    for name in names:
        prefix = f"dataset.{name}"
        have = {k for k in _DATASET_KINDS if res.has(f"{prefix}.{k}")}
        lines = {k: res.lines.get(f"{prefix}.{k}") for k in have}
        try:
            if have == {"points"}:
                registry.add_points(name, res.get(f"{prefix}.points"))
            elif have == {"csv"}:
                path = res.get(f"{prefix}.csv")
                if not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                if not os.path.exists(path):
                    res._fail(f"{prefix}.csv", f"file not found: {path}")
                registry.add_points(name, np.loadtxt(path, delimiter=",", ndmin=2))
            elif have == {"mean", "cov"}:
                registry.add_gaussian(name, res.get(f"{prefix}.mean"), res.get(f"{prefix}.cov"))
            else:
                first = min((n for n in lines.values() if n is not None), default=None)
                raise ConfigError(f"{prefix}: give exactly one of: points, csv, or mean+cov", first)
        except ValueError as exc:
            # The registry's messages open with the dataset's name, then name
            # the mean when it is at fault; a Gaussian's other faults are the cov's.
            message = str(exc).removeprefix(f"dataset {name!r}").removeprefix(":").strip()
            key = "mean" if message.startswith("mean") else "cov" if "cov" in have else min(have)
            raise ConfigError(f"{prefix}: {message}", lines[key])
    return registry


def _build_codec(res, dim):
    def broadcast(path):
        vec = res.get(path)
        if vec.shape[0] == 1:
            vec = np.full(dim, vec[0])
        if vec.shape[0] != dim:
            res._fail(path, f"expected 1 or {dim} entries, got {vec.shape[0]}")
        return vec

    scale = broadcast("codec.scale") if res.has("codec.scale") else np.ones(dim)
    offset = broadcast("codec.offset") if res.has("codec.offset") else np.zeros(dim)
    return res.build("codec", LatentCodec, scale=scale, offset=offset)


def _condition(res, path, registry):
    name = res.get(path)
    if name == "null":
        return Condition.null()
    if not registry.has(name):
        res._fail(path, f"dataset {name!r} is not registered")
    return Condition.dataset(name)


def _build_transport(res):
    return res.build(
        "transport", TransportConfig,
        beta0=res.get("transport.beta0"),
        phi=res.get("transport.phi"),
        delta=res.get("transport.delta"),
        clip_tau=res.get("transport.clip_tau"),
        orientation=res.get("transport.orientation"),
        window=(res.get("transport.window_hi"), res.get("transport.window_lo")),
    )


def _build_editor(res, algorithm, registry, n_steps):
    ed = {}
    if algorithm == "invert_edit":
        ed["eta"] = res.get("editor.eta")
        start = res.get("editor.eta_start")
        stop = res.get("editor.eta_stop")
        if not 0.0 <= start <= stop <= 1.0:
            res._fail("editor.eta_start", f"need 0 <= eta_start <= eta_stop <= 1, got {start}, {stop}")
        ed["eta_window"] = (1.0 - start, 1.0 - stop)
        ed["condition"] = _condition(res, "editor.condition", registry)
    elif algorithm == "flowedit":
        ed["n_avg"] = res.get("editor.n_avg")
        ed["n_max"] = res.get("editor.n_max", default=str(n_steps))
        ed["n_min"] = res.get("editor.n_min")
        ed["cond_src"] = _condition(res, "editor.source_condition", registry)
        ed["cond_tar"] = _condition(res, "editor.target_condition", registry)
    elif algorithm == "generate":
        ed["condition"] = _condition(res, "editor.condition", registry)
    return ed


def _build_inputs(res, algorithm, registry):
    inputs = {"x0": None, "x_target": None, "sample_source": None,
              "count": res.get("inputs.count")}
    for key in ("x0", "x_target"):
        if res.has(f"inputs.{key}"):
            vec = res.get(f"inputs.{key}")
            if not np.all(np.isfinite(vec)):
                res._fail(f"inputs.{key}", f"entries must be finite, got {vec.tolist()}")
            inputs[key] = vec
    if res.has("inputs.sample_source"):
        name = res.get("inputs.sample_source")
        if not registry.has(name):
            res._fail("inputs.sample_source", f"dataset {name!r} is not registered")
        inputs["sample_source"] = name
    if algorithm in ("invert_edit", "flowedit"):
        if inputs["x0"] is None and inputs["sample_source"] is None:
            res._fail("inputs.x0", "editing runs need inputs.x0 or inputs.sample_source")
    if inputs["count"] < 1:
        res._fail("inputs.count", "count must be >= 1")
    return inputs


def _build_verify(res, registry):
    kind = res.get("verify.kind")
    if kind not in ("discretization", "convergence", "edit_control", "all"):
        res._fail("verify.kind", f"unknown verification kind {kind!r}")
    beta0_list = res.get("verify.beta0_list")
    edit_list = res.get("verify.edit_beta0_list")
    for path, values in (("verify.beta0_list", beta0_list), ("verify.edit_beta0_list", edit_list)):
        if not all(0.0 <= b < np.inf for b in values):
            res._fail(path, f"beta0 entries must be finite and >= 0, got {values}")
    steps = res.get("verify.step_counts")
    if not steps or min(steps) < 1:
        res._fail("verify.step_counts", f"step counts must be positive integers, got {steps}")
    probe_t = res.get("verify.probe_t")
    try:
        check_probe_step(probe_t, steps)
    except ValueError as exc:
        res._fail("verify.probe_t", str(exc))
    return {
        "kind": kind,
        "beta0_list": beta0_list,
        "edit_beta0_list": edit_list,
        "step_counts": steps,
        "phi": res.get("verify.phi"),
        "n_runs": res.get("verify.n_runs"),
        "probe_t": probe_t,
        "condition": _condition(res, "verify.condition", registry),
    }


def _check_run_values(res, algorithm, verify_kind):
    """Fail, with its key and line, on any value the run reads that its
    runtime's rule rejects; a verify run is the verifiers its kind selects."""
    runs = [algorithm] + [v for v in ("discretization", "convergence", "edit_control")
                          if algorithm == "verify" and verify_kind in (v, "all")]
    for run in runs:
        for path, rule in _RUN_RULES.get(run, ()):
            try:
                rule(res.get(path))
            except ValueError as exc:
                res._fail(path, str(exc))


def _parse_axes(axis_lines):
    axes = []
    seen = set()
    for value, lineno in axis_lines:
        if ":" not in value:
            raise ConfigError(f"axis needs 'path: v1, v2, ...', got {value!r}", lineno)
        path, _, values = value.partition(":")
        path = path.strip()
        if not _known_path(path):
            raise ConfigError(f"axis over unknown key {path!r}", lineno)
        if path in seen:
            raise ConfigError(f"duplicate axis {path}", lineno)
        seen.add(path)
        vals = [v.strip() for v in values.split(",") if v.strip() != ""]
        if not vals:
            raise ConfigError(f"axis {path} has no values", lineno)
        axes.append((path, vals))
    total = 1
    for _, vals in axes:
        total *= len(vals)
    if total > _SWEEP_CAP:
        raise ConfigError(f"sweep grid has {total} cells, cap is {_SWEEP_CAP}")
    return axes


def load_config_text(text, source="<string>", preset=None, overrides=None, base_dir="."):
    """Parse, merge with preset defaults and overrides, validate, and build."""
    entries, axis_lines = _parse_lines(text, source)
    preset_name = preset
    if preset_name is None and "experiment.preset" in entries:
        preset_name = entries["experiment.preset"][0]
    if preset_name is not None:
        try:
            get_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    resolved, lines = _merge(entries, preset_name, overrides)
    if preset_name is not None:
        resolved["experiment.preset"] = preset_name
    return _build_config(resolved, lines, axis_lines, base_dir)


def _build_config(resolved, lines, axis_lines, base_dir, registry=None):
    """Build the runtime objects; a given registry stands in for the
    [dataset.*] sections, which the caller guarantees it was built from."""
    res = _Resolved(resolved, lines)

    algorithm = res.get("experiment.algorithm")
    if algorithm not in _ALGORITHMS:
        res._fail("experiment.algorithm",
                  f"algorithm must be one of {', '.join(_ALGORITHMS)}, got {algorithm!r}")
    if registry is None:
        registry = _build_registry(res, base_dir)
    if not registry.names():
        raise ConfigError("at least one [dataset.<name>] section is required")
    n_steps = res.get("grid.n_steps")
    grid = res.build("grid", make_time_grid, n_steps, res.get("grid.t_start"),
                     res.get("grid.t_end"))
    if algorithm in ("invert_edit", "flowedit", "generate") and grid.direction != "reverse":
        res._fail("grid.t_start", f"{algorithm} needs a reverse grid (t_start > t_end)")
    transport = _build_transport(res)
    scales = res.build("scales", GuidanceScales, w=res.get("scales.w"),
                       w_src=res.get("scales.w_src"), w_tar=res.get("scales.w_tar"))
    seed = res.get("experiment.seed")
    res.build("experiment", RngSeed, seed)

    cfg = ExperimentConfig(
        name=res.get("experiment.name"),
        algorithm=algorithm,
        seed=seed,
        output_dir=res.get("experiment.output_dir"),
        plot=res.get("experiment.plot"),
        registry=registry,
        codec=_build_codec(res, registry.dim()),
        grid=grid,
        transport=transport,
        scales=scales,
        editor=_build_editor(res, algorithm, registry, n_steps),
        inputs=_build_inputs(res, algorithm, registry),
        verify=_build_verify(res, registry),
        sweep_axes=_parse_axes(axis_lines),
        replicates=res.get("sweep.replicates"),
        resolved=dict(resolved),
        base_dir=base_dir,
    )
    if cfg.replicates < 1:
        res._fail("sweep.replicates", "replicates must be >= 1")

    # Cross-checks that need several sections at once.
    dim = registry.dim()
    for key in ("x0", "x_target"):
        vec = cfg.inputs[key]
        if vec is not None and vec.shape[0] != dim:
            res._fail(f"inputs.{key}", f"expected {dim} entries, got {vec.shape[0]}")
    if algorithm == "flowedit":
        n_min, n_max = cfg.editor["n_min"], cfg.editor["n_max"]
        if not 0 <= n_min <= n_max <= n_steps:
            res._fail("editor.n_min",
                      f"need 0 <= n_min <= n_max <= n_steps, got {n_min}, {n_max}, {n_steps}")
        if cfg.editor["n_avg"] < 1:
            res._fail("editor.n_avg", "n_avg must be >= 1")
    # Last, so a config that fails an earlier check keeps that error.
    _check_run_values(res, algorithm, cfg.verify["kind"])
    return cfg


def derive_config(cfg, overrides):
    """Rebuild a config with path -> value overrides applied to its resolved
    map; sweep axes are dropped since the result describes a single cell.

    The registry is immutable, so unless an override touches a [dataset.*]
    key the result shares cfg's registry instead of re-reading its data."""
    resolved = dict(cfg.resolved)
    for path, value in overrides.items():
        if not _known_path(path):
            raise ConfigError(f"override of unknown key {path!r}")
        resolved[path] = str(value)
    touches_data = any(path.startswith("dataset.") for path in overrides)
    return _build_config(resolved, {}, [], cfg.base_dir,
                         registry=None if touches_data else cfg.registry)


def load_config(path, preset=None, overrides=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return load_config_text(text, source=path, preset=preset, overrides=overrides,
                            base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_config(cfg):
    """Emit the resolved key map back as config text; reloading the output
    yields an equivalent configuration (same resolved map)."""
    by_section = {}
    for path, value in cfg.resolved.items():
        section, _, key = path.rpartition(".")
        by_section.setdefault(section, {})[key] = value
    if cfg.sweep_axes:
        by_section.setdefault("sweep", {})
    out = []
    for section in sorted(by_section):
        out.append(f"[{section}]")
        for key in sorted(by_section[section]):
            out.append(f"{key} = {by_section[section][key]}")
        if section == "sweep":
            for path, vals in cfg.sweep_axes:
                out.append(f"axis = {path}: {', '.join(vals)}")
        out.append("")
    return "\n".join(out)
