"""Golden bytes: drawn inputs, campaign records and the CLI's outputs and
exit codes.

The sha256 digests in DIGESTS pin the exact output bytes on Python 3.11,
numpy 2.4.6 and scipy-openblas 0.3.31 on x86-64; another platform or BLAS
may round the last bit of a float differently.  Each digest is
regenerated only together with a named format change recorded in
CHANGES.md: print the current table with

    PYTHONPATH=src python tests/test_golden.py

and replace only the entries that change names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from entbound import EnsembleConfig, normalization_coeffs, run_campaign
from entbound.cli import main
from entbound.ensembles import FAMILIES, generate_spec
from entbound.report import VARIANTS, summary_to_json, trial_stream
from entbound.serialize import config_to_json, dumps, spec_to_json

TRIALS = 4
NS = (2, 4, 8)
# (variant, coefficient mode, families): every variant on inputs it accepts.
MATRIX = (
    ("constrained", "constrained", ("haar", "bell_like", "biorthogonal_blocks")),
    ("unconstrained", "simplex_uniform", ("haar", "product_states", "biorthogonal_blocks")),
    ("minimized", "simplex_uniform", ("haar", "bell_like", "orthogonal_shared_support")),
    ("exact", "simplex_uniform", ("biorthogonal_blocks",)),
    ("assistant", "simplex_uniform", ("haar", "biorthogonal_blocks")),
)
SPEC_NS = (2, 4)
SPEC_TRIALS = 2

DIGESTS = {
    "spec haar": "c2ecc4bdc39ccf97de3bdb5946d021cff10b2102172fac00efe31953edf4be8a",
    "spec biorthogonal_blocks": "d27f4adc9288a4b7dd0edc048180e1d99186a563111a8cf6e8213b63ad8a63af",
    "spec orthogonal_shared_support": "b9414571a89b4c61c298591cc873c028cf9f4cb5660a53ee265f5e902ebf0147",
    "spec product_states": "72c91b02b8d327f2d3d14a85efffa8c85d345f974dc4426f515eb24ff4a6fb35",
    "spec bell_like": "c0474a0d7d3bc7b8af551b792f4a21c797b4e63ebc3f7e7dc94dcbaee9c4f29d",
    "campaign constrained": "3003289bb63265b8074696844c0d42d6879d545f91eed358373079753e907a9f",
    "eval constrained": "2032141540f18b06ac3bf06b654c9a5067b224be90ed5ca739e848cb019ec842",
    "campaign unconstrained": "9d0bd5dfcb381842ef5eb09bc76345828d27bc07409e8b197f483f3accc7f26c",
    "eval unconstrained": "2e648f6e9af29ac135b72b8c6e340a3c1d96d2f628ef9c3749d670d371e9d731",
    "campaign minimized": "262a0e8e778df1da11db5631972f68f933dcc0c651292b1a55c5cf0b1b1b3600",
    "eval minimized": "a72e1dc5e606d4535894fd4809ad9ac1d8c2d1f24b99f0c0fecc3c739c11d96b",
    "campaign exact": "8abb9fc71cc7294588ce5fbc25693a0449d4080591e7dac4852dfee08cbc3f48",
    "eval exact": "8f6bbe514da2cb54d9736fbbb10106340508a3436bdfdc94dc4a6478c7429d7e",
    "campaign assistant": "fcfe9b26a324f8fe5dee1a79eebf75c6b37c706a8eb41231653e5497ab3c91fd",
    "eval assistant": "e30673239e274cbafb144b39b348bcb532fe610e70e1d6e835806d89a4c9362b",
    "coeffs 16": "1b6d24fc5316ce7c9414efc73f7ae817ccdef3bd0684a9753a1e3a8e8df98cae",
    "verify": "46bcdaac1f27500d01327e9c87ee749f64c8c0e8197562301d36c9fe20f63c79",
}


def spec_configs(family: str) -> list[EnsembleConfig]:
    """The configs whose drawn specs pin a family's amplitudes: n in SPEC_NS
    under the constrained and simplex coefficients.  The biorthogonal blocks
    are drawn padded into larger dims and filling the dims exactly, the
    shared-support family also with dim_b = 1, and haar once with fixed
    coefficients."""
    shapes = {
        "biorthogonal_blocks": lambda n: [(8, 8, 1, 2), (2 * n, 2 * n, 2, 2)],
        "orthogonal_shared_support": lambda n: [(4, 4, 1, 1), (4, 1, 1, 1)],
    }.get(family, lambda n: [(4, 4, 1, 1)])
    out = [
        EnsembleConfig(
            n=n, dim_a=da, dim_b=db, family=family, seed=len(family) + n,
            coefficient_mode=mode, block_a=ba, block_b=bb,
        )
        for n in SPEC_NS
        for mode in ("constrained", "simplex_uniform")
        for da, db, ba, bb in shapes(n)
    ]
    if family == "haar":
        out.append(
            EnsembleConfig(
                n=3, dim_a=2, dim_b=3, family=family, seed=1, coefficient_mode="fixed",
                fixed_coefficients=(0.5, 0.5j, -(0.5**0.5)),
            )
        )
    return out


def config(mode: str, family: str, n: int, seed: int) -> EnsembleConfig:
    dim = 8 if family == "biorthogonal_blocks" else 4
    return EnsembleConfig(
        n=n, dim_a=dim, dim_b=dim, family=family, seed=seed, coefficient_mode=mode
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def deterministic_summary(summary_json: dict) -> str:
    return dumps({k: v for k, v in summary_json.items() if k != "runtime_seconds"})


def golden_digests(workdir: Path) -> dict[str, str]:
    """Digest of every pinned output, computed in a scratch directory."""
    digests = {}
    for family in FAMILIES:
        specs = (
            generate_spec(cfg, normalization_coeffs(cfg.n), trial_stream(cfg, t))
            for cfg in spec_configs(family)
            for t in range(SPEC_TRIALS)
        )
        digests[f"spec {family}"] = sha256("".join(dumps(spec_to_json(s)) + "\n" for s in specs))
    for variant, mode, families in MATRIX:
        data = b""
        for seed, (family, n) in enumerate((f, n) for f in families for n in NS):
            cfg = config(mode, family, n, seed)
            path = workdir / f"{variant}-{family}-n{n}.jsonl"
            summary = run_campaign(cfg, variant, TRIALS, path)
            data += path.read_bytes() + deterministic_summary(summary_to_json(summary)).encode()
        digests[f"campaign {variant}"] = sha256(data)

        cfg = config(mode, families[-1], 4, 99)
        spec = generate_spec(cfg, normalization_coeffs(4), trial_stream(cfg, 0))
        spec_path = workdir / f"{variant}-spec.json"
        spec_path.write_text(dumps(spec_to_json(spec)), encoding="utf-8")
        code, out = run_cli(["eval", str(spec_path), "--variant", variant])
        assert code == 0, (variant, code)
        digests[f"eval {variant}"] = sha256(out)

    code, out = run_cli(["coeffs", "16"])
    assert code == 0
    digests["coeffs 16"] = sha256(out)

    cfg_path = workdir / "verify-config.json"
    cfg_path.write_text(dumps(config_to_json(config("constrained", "haar", 4, 7))))
    code, out = run_cli(
        ["verify", "--config", str(cfg_path), "--trials", "10", "--out", str(workdir / "v.jsonl")]
    )
    assert code == 0
    digests["verify"] = sha256(deterministic_summary(json.loads(out)))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return golden_digests(tmp_path_factory.mktemp("golden"))


def test_matrix_covers_every_variant():
    assert tuple(variant for variant, _, _ in MATRIX) == VARIANTS


@pytest.mark.parametrize("key", list(DIGESTS))
def test_digest(digests, key):
    assert digests[key] == DIGESTS[key]


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    missing = str(tmp_path / "missing.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps(config_to_json(config("simplex_uniform", "haar", 3, 42))))
    unconstrained = tmp_path / "unconstrained.json"
    cfg = config("simplex_uniform", "haar", 2, 5)
    spec = generate_spec(cfg, normalization_coeffs(2), trial_stream(cfg, 0))
    unconstrained.write_text(dumps(spec_to_json(spec)))
    vanishing = tmp_path / "vanishing.json"
    obj = spec_to_json(spec)
    obj["components"][1] = obj["components"][0]
    obj["coefficients"] = [[1.0, 0.0], [-1.0, 0.0]]
    vanishing.write_text(dumps(obj))
    out = str(tmp_path / "o.jsonl")
    cases = {
        ("coeffs", "17"): 2,
        ("coeffs", "1"): 2,
        ("eval", str(bad)): 2,
        ("eval", missing): 2,
        ("eval", str(unconstrained), "--variant", "constrained"): 3,
        ("eval", str(vanishing), "--variant", "unconstrained"): 3,
        ("eval", str(vanishing), "--variant", "minimized"): 3,
        ("verify", "--config", str(bad), "--trials", "1", "--out", out): 2,
        ("verify", "--config", str(cfg_path), "--trials", "0", "--out", out): 2,
        ("verify", "--config", str(cfg_path), "--trials", "3", "--variant", "exact", "--out", out): 3,
    }
    assert {argv: run_cli(list(argv))[0] for argv in cases} == cases


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in golden_digests(Path(tmp)).items():
            print(f'    "{key}": "{value}",')
