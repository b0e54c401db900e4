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
    "spec haar": "ba36a6537a52dde82092cc0d7bd27914187cd084d8518fd728c91c9dafebe28d",
    "spec biorthogonal_blocks": "9d84b946b48993a66ae354a1064d7fd1f22e1284aa66b88e387883a34f73bfd8",
    "spec orthogonal_shared_support": "8f74324397ec5423096b88bf076b948b5fb60163412f1ea92a0670341458e88f",
    "spec product_states": "3c7b5df74b18aa4d40ecce9329e94fe8d89c6e92ec61e40764be914bfac6cc34",
    "spec bell_like": "76784902983f7167efc884092a91312fa8d7fd6704c4d807a58b477f45090a7a",
    "campaign constrained": "b766d543bbea7b9f0b31c0e8f5d5e9be5b5f6340f34b29ecc1129b8db42cec6d",
    "eval constrained": "60ed18cd2c82be9fce601c97fe0a00fa88fd18c069ce66ca3acaaeb9ec288e03",
    "campaign unconstrained": "dcbeab765332de2863212ac0e8096e73c92894a7f313ea20f018ef32dbee8446",
    "eval unconstrained": "b62b411f457e3581f8a363779ba0ad8406bde57a4cb7cd381de082d838a4e986",
    "campaign minimized": "07cabcd180305db0c838cd8b1f051b26fdfa0d214a1d0e4f6f31b0a5bd59d906",
    "eval minimized": "cc798e3d99d44beb4a263b68d02380beaf1bf3956d382e8f6c3aeeccfd92b8b6",
    "campaign exact": "18e95341c37c0ac287a54343185444529d71d121bd48050941fc2e806f0bb282",
    "eval exact": "dd53ae5b32dd092dedc70086345118b51dbd36f6d05e159b3d29f234110511cc",
    "campaign assistant": "aaa0a7e3548d79246ad8c607164a6ad908566cea432dd756149a8fc942aa78ae",
    "eval assistant": "1033f4b0bff11118a00131cb7844d3d17d23e91981ac8391c853a014df919485",
    "coeffs 16": "1b6d24fc5316ce7c9414efc73f7ae817ccdef3bd0684a9753a1e3a8e8df98cae",
    "verify": "505d1597e869ed597acf65d92d91c57cad40cd8bd97150fbd8704c76c1ecfa26",
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
