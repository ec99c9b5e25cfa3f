"""The pinned documents: sha256 digests of ``beslab.cli.run`` output on
fixed inputs, the same digests the CI workflow pins for the command-line
runs.  Any change to a witness, a merge trace or a weight changes one.
The dense packing run (m = 16) stays in CI alone: it takes seconds."""

from __future__ import annotations

import hashlib

import pytest

from beslab import cli

# input, argv after the input, sha256 of stdout
PINS = [
    pytest.param(
        "f63", ["certify", "--k", "6", "--json"],
        "eb0f9743324cff2cccffea5a235df4205931988f62b09e134532b29c45a1c479", id="f63-certify-k6",
    ),
    pytest.param(
        "ds8", ["certify", "--k", "7", "--json"],
        "82e945ff51f9b2ec32d8967ac715c64b2869c163399bebf13291c652be88805f", id="ds8-certify-k7",
    ),
    pytest.param(
        "ds256", ["certify", "--k", "5", "--json"],
        "c8d9db1553f20abeabc84b8f342b2fd117ab5045ffb463d62c0bb2a0e6670666", id="ds256-certify-k5",
    ),
    pytest.param(
        "ds256", ["certify", "--k", "7", "--json"],
        "5bf62d2647a70f069f97acdff848f49ee7faa062f15c7e51cca498cf230b2500", id="ds256-certify-k7",
    ),
    pytest.param(
        "sunflower", ["partition", "--stage", "m11", "--json"],
        "16625f88baeed496384e365eefdad27bc844ae14513866031dcb92f2344519d4", id="sunflower-m11",
    ),
    pytest.param(
        "f63", ["partition", "--stage", "m12", "--json"],
        "585ae6eeea09742d19a9edcb0dec9332c18970b577202830307ff95f01fef778", id="f63-m12",
    ),
    pytest.param(
        "f63", ["partition", "--stage", "m2plus", "--json"],
        "49fb5a2e1cd04644e0cb998709f862b56e1a34934ca711b8108433c4998eea32", id="f63-m2plus",
    ),
    pytest.param(
        "ds8", ["partition", "--stage", "m12", "--json"],
        "b3cdadc3cd2837e03c74946d366724181c1283bae4ed811ca14171d571d1df0f", id="ds8-m12",
    ),
    pytest.param(
        "ds8", ["partition", "--stage", "m2plus", "--json"],
        "3c762a841ad695d4e68d310c26c5db8132d48014b3678c3794336776ce58ea87", id="ds8-m2plus",
    ),
    pytest.param(
        "f63", ["partition", "--stage", "m11", "--seed", "3", "--json"],
        "05d8e71fc0fecaa44cd88c1437366a60ee8cd6e406ad2509ed3fed67ca617c6b", id="f63-m11-seed3",
    ),
    pytest.param(
        "f63", ["partition", "--stage", "m12", "--seed", "3", "--json"],
        "2cd3f23c9c47eb6de127f87c51f788e646b45f08b6df4b6a24b17579a7b0f213", id="f63-m12-seed3",
    ),
    pytest.param(
        "ds8", ["partition", "--stage", "m11", "--seed", "3", "--json"],
        "333159f89d15c89b8a5a6a4adde67e450e21111c5ed4fd98e671d8c41b38aa7a", id="ds8-m11-seed3",
    ),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files, written as the workflow writes them."""
    where = tmp_path_factory.mktemp("pins")
    paths = {name: str(where / f"{name}.txt") for name in ("f63", "ds8", "ds256", "sunflower")}
    assert cli.run(["construct", "f63", "--output", paths["f63"]]) == 0
    assert cli.run(["construct", "diamond-star", "--t", "8", "--output", paths["ds8"]]) == 0
    assert cli.run(["construct", "diamond-star", "--t", "256", "--output", paths["ds256"]]) == 0
    c = 2000  # the sunflower {0, 1, i}
    text = f"3 {c + 2} {c}\n" + "".join(f"0 1 {i + 2}\n" for i in range(c))
    with open(paths["sunflower"], "w") as f:
        f.write(text)
    return paths


@pytest.mark.parametrize("name, argv, digest", PINS)
def test_pinned_digest(inputs, capsys, name, argv, digest):
    code = cli.run(argv[:1] + ["--input", inputs[name]] + argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
