"""Golden SHA-256 digests of CLI outputs.

Three fixed scans, the shipped example config and every default README
quick-start command are pinned byte for byte, outputs and manifests alike,
so a change that shifts a single bit of the simulated data, a fit or the
manifest layout fails here even when every physics tolerance still holds.
A manifest is pinned with its "version" value replaced by VERSION_PLACEHOLDER,
after checking that the value is coldspin.__version__ and appears once, so
a release that changes nothing else re-pins nothing.  Each run is a sequence of
commands (a fit first simulates its input) with relative output paths
inside a temporary directory, so the manifests do not depend on where the
test runs.

Every golden is also run with the C library's exp, expm1, log and log1p
replaced: by correctly rounded values, under which every golden holds, and
by values one ulp off, which move only LAST_BIT_SENSITIVE.  So a replay on
another C library that rounds these calls correctly reproduces every
output, and only those outputs depend on its last bits.
"""

import ast
import hashlib
import importlib
import json
import math
import pkgutil
import types
from pathlib import Path

import mpmath
import pytest

import coldspin
from coldspin import cli

# the digests must hold under every numpy that pyproject.toml allows
pytestmark = pytest.mark.numpy_oracle

GOLDEN = {
    "default": {
        "scan.csv": "4039c03ac525ed6dd5494254ea3b9e1314eaee583e7c26852d71549f7c20b1c5",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "b447b807f8ee21923872122f4b48b6edcb9ca4bfd5e27b0deae27221a52bc0e7",
    },
    "long_trains": {
        "scan.csv": "e5d43a1364c60fef9d626e660979300f90cea5fd15986a6685262e3bfe191e06",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "feb0dbb4a521aa111685f7a62922dddb35335cba49bbf1fdd03bd53a9154b672",
    },
    "three_threads": {
        "scan.csv": "4039c03ac525ed6dd5494254ea3b9e1314eaee583e7c26852d71549f7c20b1c5",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "9e1be25d5d03a67175cdaf7c1959ea5a49118919fb9177f96ef80db6284fe3fa",
    },
    "fit": {
        "fit.json": "d48f873f27406a52d6bfc2d06adf9d725563aed12a61fbb099a5784c21bd22e4",
        "fit.json.manifest.json": "2572a0a914076dc7ab5596681d015a152c55380e8cd6f3e080d333408900d481",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "7eed65be42b12ae58829f69250ab851899c2e244929d8888ebab7f44d8720352",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "3d5af75e2be6ebba89f8a70039f68968832840e91088a898690ca2fede0cc10c",
    },
    "decay_fit": {
        "decay_fit.json": "c7c95804cc9ebe48dba2a128c390b178a74a3bba52a41064bb5431e2d251832e",
        "decay_fit.json.manifest.json": "d2c73dc858797fe105d2ed7b2e5035838b4f908c1facc35f0ec2c50366983fd6",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "3a799b744bf3f47594700ef81498970971e774c6279af33cd8117ca9935781d8",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "a5e560d45a37200959301b260d22b1dc1749853acb29fda9e39ca5b54a8ec93c",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "a39354cd34edad19ffe316fcc9c3741e20c91cfbc7e0b99a0906fde14abe3f0c",
    },
}
# the shipped example config spells out the default scan, byte for byte
GOLDEN["example_config"] = GOLDEN["default"]

VERSION_PLACEHOLDER = b'"version": "<version>"'

EXAMPLE_CONFIG = Path(__file__).parents[1] / "configs" / "scan_example.json"
SCAN = ["scan", "--out", "scan.csv"]
DECAY_SIMULATE = ["decay", "simulate", "--out", "decay.csv"]
TOF_SIMULATE = ["tof", "simulate", "--out", "tof.csv"]


def _default(tmp_path):
    return [SCAN]


def _example_config(tmp_path):
    return [["scan", "--config", str(EXAMPLE_CONFIG), "--out", "scan.csv"]]


def _long_trains(tmp_path):
    # 15 detunings x 4 runs x 1000 pulses
    config = tmp_path / "long.json"
    config.write_text(
        json.dumps({"scan": {"runs_per_point": 4, "pulses_per_sample": 1000}}) + "\n"
    )
    return [["scan", "--config", str(config), "--out", "scan.csv"]]


def _three_threads(tmp_path):
    return [["scan", "--threads", "3", "--out", "scan.csv"]]


def _fit(tmp_path):
    return [SCAN, ["fit", "--in", "scan.csv", "--out", "fit.json"]]


def _budget(tmp_path):
    return [["budget", "--theta", "0.0268", "--photons-per-pulse", "4.3e6",
             "--out", "budget.json"]]


def _decay_simulate(tmp_path):
    return [DECAY_SIMULATE]


def _decay_fit(tmp_path):
    return [DECAY_SIMULATE, ["decay", "fit", "--in", "decay.csv", "--out", "decay_fit.json"]]


def _tof_simulate(tmp_path):
    return [TOF_SIMULATE]


def _tof_fit(tmp_path):
    return [TOF_SIMULATE, ["tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"]]


def _pulse_noisy(tmp_path):
    return [["pulse", "--noisy", "--seed", "7", "--out", "pulse.csv"]]


RUNS = {
    "default": _default,
    "example_config": _example_config,
    "long_trains": _long_trains,
    "three_threads": _three_threads,
    "fit": _fit,
    "budget": _budget,
    "decay_simulate": _decay_simulate,
    "decay_fit": _decay_fit,
    "tof_simulate": _tof_simulate,
    "tof_fit": _tof_fit,
    "pulse_noisy": _pulse_noisy,
}


def pinned_bytes(path: Path) -> bytes:
    """The file's bytes, a manifest's with its version value replaced by
    VERSION_PLACEHOLDER once that value is checked."""
    data = path.read_bytes()
    if not path.name.endswith(".manifest.json"):
        return data
    assert json.loads(data)["version"] == coldspin.__version__
    value = json.dumps(coldspin.__version__).encode()
    assert data.count(value) == 1, path.name
    return data.replace(b'"version": ' + value, VERSION_PLACEHOLDER)


def run_digests(name, tmp_path, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    for argv in RUNS[name](tmp_path):
        assert cli.main(argv) == 0
    return {
        filename: hashlib.sha256(pinned_bytes(tmp_path / filename)).hexdigest()
        for filename in GOLDEN[name]
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scan_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    assert run_digests(name, tmp_path, monkeypatch) == GOLDEN[name]


# the math functions whose results a C library may round differently
LIBM = ("exp", "expm1", "log", "log1p")
# the others coldspin calls, whose results IEEE 754 fixes exactly
EXACT = {"ceil", "isfinite", "isinf", "isnan", "sqrt"}
# the runs whose digests move when every LIBM result is one ulp off
LAST_BIT_SENSITIVE = {"decay_fit"}


def math_functions_used() -> set:
    """Every math function a coldspin module, in a subpackage too, names:
    math.<name> or a name imported from math."""
    names = set()
    for path in Path(coldspin.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                names.update(alias.name for alias in node.names)
    return {name for name in names if callable(getattr(math, name))}


def replace_libm(monkeypatch, replacement):
    """Every coldspin module's LIBM functions, a subpackage's modules' too,
    through its math module or imported by name, become
    replacement(name, math's function)."""
    shim = types.ModuleType("math")
    shim.__dict__.update(vars(math))
    functions = {name: replacement(name, getattr(math, name)) for name in LIBM}
    shim.__dict__.update(functions)
    for info in pkgutil.walk_packages(coldspin.__path__, "coldspin."):
        module = importlib.import_module(info.name)
        if getattr(module, "math", None) is math:
            monkeypatch.setattr(module, "math", shim)
        for name, function in functions.items():
            if getattr(module, name, None) is getattr(math, name):
                monkeypatch.setattr(module, name, function)


def correctly_rounded(name, function):
    exact = getattr(mpmath, name)

    def call(x):
        y = function(x)  # math's own errors and special values
        if y == 0.0 or not (math.isfinite(x) and math.isfinite(y)):
            return y
        with mpmath.workprec(200):
            return float(exact(mpmath.mpf(x)))

    return call


def one_ulp_off(name, function):
    def call(x):
        y = function(x)
        return math.nextafter(y, math.copysign(math.inf, y))

    return call


def test_shims_cover_every_math_function_used():
    assert math_functions_used() <= set(LIBM) | EXACT


@pytest.mark.parametrize("name", sorted(RUNS))
def test_goldens_hold_under_a_correctly_rounded_libm(name, tmp_path, monkeypatch):
    replace_libm(monkeypatch, correctly_rounded)
    assert run_digests(name, tmp_path, monkeypatch) == GOLDEN[name]


def test_a_one_ulp_libm_moves_only_the_last_bit_sensitive_goldens(tmp_path, monkeypatch):
    replace_libm(monkeypatch, one_ulp_off)
    moved = set()
    for name in RUNS:
        (tmp_path / name).mkdir()
        if run_digests(name, tmp_path / name, monkeypatch) != GOLDEN[name]:
            moved.add(name)
    assert moved == LAST_BIT_SENSITIVE
