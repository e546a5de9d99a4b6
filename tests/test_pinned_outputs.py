"""Pinned bytes of the seeded pipeline: gen, check, fit, eval, project and plot, and of one wide gen.

Each file the CLI writes, and each stdout, is compared by SHA-256 with a
digest recorded on x86-64 with numpy 2.4.6.  fit's stdout drops its
``time_s`` field and gen's names the output directory as ``DIR``.  A change
that is meant to move these bytes is a declared re-baseline: it updates
PINNED in the same commit and says so in CHANGES.md.
"""

import hashlib
import re

import pytest

from troppca.cli import main

SHAPES = {"m10_n200": (10, 200), "m60_n12": (60, 12)}
SEED = "1"


def pipeline_digests(directory, capsys, m: int, n: int) -> dict[str, str]:
    """SHA-256 of every output file and stdout of one seeded pipeline run in directory."""
    out = {}

    def run(name: str, argv: list[str]) -> None:
        assert main(argv) == 0
        text = capsys.readouterr().out
        text = text.replace(str(directory), "DIR")
        text = re.sub(r" time_s=\S+", "", text)
        out[name + ".stdout"] = hashlib.sha256(text.encode()).hexdigest()

    def path(name: str) -> str:
        return str(directory / name)

    trees = path("trees.nwk")
    run("gen", ["gen", "--m", str(m), "--n", str(n), "--seed", SEED, "--out", trees])
    run("check", ["check", "--input", trees])
    for mode in ("simultaneous", "cyclic"):
        run(f"fit_{mode}", ["fit", "--input", trees, "--s", "3", "--iters", "30", "--seed", SEED,
                            "--update-mode", mode, "--out", path(f"model_{mode}.json"),
                            "--trace", path(f"trace_{mode}.csv")])
        model = ["--model", path(f"model_{mode}.json"), "--input", trees]
        run(f"eval_{mode}", ["eval", *model])
        run(f"project_{mode}", ["project", *model, "--out", path(f"project_{mode}.csv")])
        run(f"plot_{mode}", ["plot", *model, "--out", path(f"plot_{mode}.svg")])
        run(f"plot_topology_{mode}", ["plot", *model, "--color-by", "topology",
                                      "--out", path(f"plot_topology_{mode}.svg")])
    for file in sorted(directory.iterdir()):
        out[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


PINNED = {
    "m10_n200": {
        "check.stdout": "cfe9111addf6c28450f167b919579bf4654d2dd504340f7fe2ed1ea33eb1327d",
        "eval_cyclic.stdout": "d4adb49f0abc6c1bb55170afe93fde1a63276d0e475527ba0193a920097a2322",
        "eval_simultaneous.stdout": "81cb148cdf212d8c57236d69836da98825e40efa3c66495a518944d6ae76b9d9",
        "fit_cyclic.stdout": "d4adb49f0abc6c1bb55170afe93fde1a63276d0e475527ba0193a920097a2322",
        "fit_simultaneous.stdout": "81cb148cdf212d8c57236d69836da98825e40efa3c66495a518944d6ae76b9d9",
        "gen.stdout": "9c2bcf7e23943fedec896bab8e1d1ad3c44fd9e571b7f15ef707ac57282fdc82",
        "model_cyclic.json": "5773338433e77ce77a4e07e5066c8d0e7e770a96137371c8fde1a3371bc884e7",
        "model_simultaneous.json": "4c573b4c10285f3771a414359af382942d2c18cc124db2e8a93f145778856dc8",
        "plot_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_cyclic.svg": "ea5e5eb410e90077bb9c1fa1264daa9476dfa966fadc4cab908acbd5439a698e",
        "plot_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_simultaneous.svg": "6abe13f9cccb6f143cad743b884fbf63453df98c6d28773c7ba4b4ee7219e599",
        "plot_topology_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_cyclic.svg": "d7f821c8881c3aec635132b327859fa15c0617655e705b8ccf3503ed52974bfe",
        "plot_topology_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_simultaneous.svg": "815c24f8f6e3fee96a15d7cfff6f7f103ec712310ee0e86d3068b48391bd15d6",
        "project_cyclic.csv": "1048ee6595d79b02c170cbcefb7bb37931804ae5f4c1e41a18e527b581f91464",
        "project_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "project_simultaneous.csv": "3f52ad29e2cee5c1ae86d150282811aac52ec77878fa66d49e9e75bc4d448208",
        "project_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_cyclic.csv": "829b6ee2c69c222b37c4d8e18d4fe8b70d1c41c3bff42e93b27181fd561a5307",
        "trace_simultaneous.csv": "83cf083edba5493aec7b6bd3cb59cca7bb0ee02b7d5d58acc4778d8032115cdf",
        "trees.nwk": "d0305ce4fabef4e7921b9770eba52228a11bd3025144d96b43bccc0e231ab7ff",
    },
    "m60_n12": {
        "check.stdout": "02b0abac4b0938d5f83f3d89993d4724c8e8cc270d02b48ccbd7cb85b966c643",
        "eval_cyclic.stdout": "47673c40bfa1f64bf7f1df348904d409ab4c287ad4a586180c4d0c625a3443f9",
        "eval_simultaneous.stdout": "4d8076c12e7df9dc89468c9465e6bddcf472eec50e9c5c35443514011e30a59e",
        "fit_cyclic.stdout": "47673c40bfa1f64bf7f1df348904d409ab4c287ad4a586180c4d0c625a3443f9",
        "fit_simultaneous.stdout": "4d8076c12e7df9dc89468c9465e6bddcf472eec50e9c5c35443514011e30a59e",
        "gen.stdout": "6da4b0589a0b213a7bfd531987f50159d895255a13634c1e8f7a1ee6f8620b82",
        "model_cyclic.json": "a267da0001c35911c23adfe3e09612b5644f443deeceb7ceb9c10675ac1eb5f9",
        "model_simultaneous.json": "d5d771825a8d97185cdc86c13f0a773f81faac59732f16c27abd867867944b3f",
        "plot_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_cyclic.svg": "b6bd3423a6b78db623c6372b68cfc38f9c20d1f30b99f0ba374ef9f3bcfb61a6",
        "plot_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_simultaneous.svg": "3bbbf317b003b7edbf110a3e58ef1853c6519bcfaf22ad613eaea03fe4912267",
        "plot_topology_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_cyclic.svg": "6fae190338fd16d7cd2d2c4c0cd175469d33b615ec8a4dca6daaf09fbcf90336",
        "plot_topology_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_simultaneous.svg": "58ccb45d3a348851f3dda819d144b9f8ee52a05914acb148280b75f55be5e2c1",
        "project_cyclic.csv": "465e25501c7b8d4004cdacbba611380f8f4811cebef599a233f78430848bb9e6",
        "project_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "project_simultaneous.csv": "423420e40949b06393f9b940ce20dcdb8fd537d4f607cbefddbe77bc46fe891f",
        "project_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_cyclic.csv": "7b47d64b5d23e519789e79ac5855f1e9ef493822df74e5659a5ed766245808ca",
        "trace_simultaneous.csv": "61f91956b8aa0793a4158da9f8adcaff623ef71f647edfc727c2b555ed9dbd70",
        "trees.nwk": "02913501c41f8aed02c64700347ab42e6987ad8f9c85e5ba3a68d2999d3ba42b",
    },
}


# gen --m 300 --n 2 --seed 1: wide trees that reconstruct_tree checks with Prim's record alone
GEN_M300 = "816fa61b23d5b9bce059409a11f96465cec0a689103b5db9b60218c220b79e58"


def test_wide_gen_bytes_are_pinned(tmp_path):
    path = tmp_path / "trees.nwk"
    assert main(["gen", "--m", "300", "--n", "2", "--seed", "1", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_M300


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_seeded_pipeline_bytes_are_pinned(shape, tmp_path, capsys):
    assert pipeline_digests(tmp_path, capsys, *SHAPES[shape]) == PINNED[shape]
