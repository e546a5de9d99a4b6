"""Pinned bytes of the seeded pipeline: gen, check, fit, eval, project and plot, and of one wide gen.

Each file the CLI writes, and each stdout, is compared by SHA-256 with a
digest recorded on x86-64 with numpy 2.4.6.  fit's stdout drops its
``time_s`` field and gen's names the output directory as ``DIR``.  A change
that is meant to move these bytes is a declared re-baseline: it updates
PINNED in the same commit and says so in CHANGES.md.  Run as a script,
``python tests/test_pinned_outputs.py`` prints the digests the current code
gives, laid out as PINNED and GEN_M300 are.
"""

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: use the package next to the tests
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from troppca.cli import main  # noqa: E402

SHAPES = {"m10_n200": (10, 200), "m60_n12": (60, 12)}
SEED = "1"

# Gene trees as they come: root-to-leaf depths differ, nodes have up to four
# children, one is unary, some carry internal labels, and one branch is 0.
# Read with --project-inputs --normalize-height, the ingest the gene-trees
# benchmark workload runs.
GENE_TREES = """\
# hand-written gene trees on 8 taxa
((A:0.5,B:0.7):0.3,(C:0.2,D:0.4,E:0.9):0.6,(F:1.1,(G:0.3,H:0.5):0.2):0.4);
((A:0.4,B:0.6,C:0.5):0.5,((D:0.3,E:0.2):0.4,F:0.8)x:0.3,(G:0.6,H:0.6):0.7);
(A:1.2,(B:0.3,C:0.9):0.8,(D:0.7,E:0.4,F:0.2,G:1.0):0.3,H:1.4);
(((A:0.2,B:0.25):0.6,C:0.9):0.2,((D:0.5,E:0.55):0.3,(F:0.4,G:0.45,H:0.6):0.35):0.5);
((A:0.9,(B:0.4,(C:0.1,D:0.3):0.5):0.2):0.4,(E:0.7,F:0.6):0.9,(G:1.3,H:0.2):0);
((A:0.6,H:0.5):0.8,(B:0.7,G:0.9):0.4,(C:0.3,F:0.2,(D:0.4,E:0.4):0.6)y:0.5);
((A:0.3,B:0.3,C:0.3,D:1.0):0.7,((E:0.8):0.2,(F:0.5,(G:0.2,H:0.9):0.3):0.4):0.6);
(((A:0.45,C:0.35):0.3,(B:0.6,D:0.2):0.4):0.5,(E:1.1,F:0.7,G:0.5,H:0.8):0.3);
((A:0.8,B:0.1):0.9,(C:0.5,(D:0.6,(E:0.3,F:0.4):0.25):0.35):0.2,(G:0.7,H:0.75):0.65);
(A:0.9,B:1.1,(C:0.4,D:0.4):0.6,((E:0.2,G:0.3):0.5,(F:0.6,H:0.1):0.4):0.3);
((A:0.35,(B:0.5,C:0.55):0.2,D:0.9):0.6,(E:0.4,(F:0.3,G:0.3,H:0.3):0.45):0.8);
(((A:0.7,B:0.6):0.2,(C:0.8,D:0.5):0.3)z:0.4,((E:0.6,F:0.9):0.1,(G:0.4,H:0.4):0.5):0.6);
"""
INGEST = ["--project-inputs", "--normalize-height"]
CASES = sorted([*SHAPES, "gene_trees"])


def pipeline_digests(directory: Path, shape: str) -> dict[str, str]:
    """SHA-256 of every output file and stdout of one seeded pipeline run in directory.

    A shape of SHAPES starts from gen; "gene_trees" starts from GENE_TREES
    and reads it with INGEST.
    """
    out = {}

    def run(name: str, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0
        text = stdout.getvalue().replace(str(directory), "DIR")
        text = re.sub(r" time_s=\S+", "", text)
        out[name + ".stdout"] = hashlib.sha256(text.encode()).hexdigest()

    def path(name: str) -> str:
        return str(directory / name)

    trees = path("trees.nwk")
    if shape == "gene_trees":
        Path(trees).write_text(GENE_TREES, encoding="utf-8")
        flags = INGEST
    else:
        m, n = SHAPES[shape]
        run("gen", ["gen", "--m", str(m), "--n", str(n), "--seed", SEED, "--out", trees])
        flags = []
    run("check", ["check", "--input", trees])
    for mode in ("simultaneous", "cyclic"):
        run(f"fit_{mode}", ["fit", "--input", trees, "--s", "3", "--iters", "30", "--seed", SEED,
                            "--update-mode", mode, "--out", path(f"model_{mode}.json"),
                            "--trace", path(f"trace_{mode}.csv"), *flags])
        model = ["--model", path(f"model_{mode}.json"), "--input", trees, *flags]
        run(f"eval_{mode}", ["eval", *model])
        run(f"project_{mode}", ["project", *model, "--out", path(f"project_{mode}.csv")])
        run(f"plot_{mode}", ["plot", *model, "--out", path(f"plot_{mode}.svg")])
        run(f"plot_topology_{mode}", ["plot", *model, "--color-by", "topology",
                                      "--out", path(f"plot_topology_{mode}.svg")])
    for file in sorted(directory.iterdir()):
        out[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


def wide_gen_digest(directory: Path) -> str:
    """SHA-256 of gen --m 300 --n 2 --seed 1 written in directory."""
    path = directory / "trees.nwk"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--m", "300", "--n", "2", "--seed", "1", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


PINNED = {
    "gene_trees": {
        "check.stdout": "416982154d448600fa08d8c53af25d4e21840f95472c5b21e18a4f33c52c39d3",
        "eval_cyclic.stdout": "ad65906df85c99d7e8c284328313261f560ea4fcefce920393bcea50af2d6fff",
        "eval_simultaneous.stdout": "55e340df4ba1d6f7e9439b39425a974f66ece8ecf08d289fb0177a63d685a07e",
        "fit_cyclic.stdout": "ad65906df85c99d7e8c284328313261f560ea4fcefce920393bcea50af2d6fff",
        "fit_simultaneous.stdout": "55e340df4ba1d6f7e9439b39425a974f66ece8ecf08d289fb0177a63d685a07e",
        "model_cyclic.json": "ccb3c83d070fa8b315648649e52c3c88a760547855cadc7489fbfa2bf6a3ccbf",
        "model_simultaneous.json": "a84335647679a81e691c333ad64a69a75c177d20623e129faa1537f7f4f2638e",
        "plot_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_cyclic.svg": "249cc6c9135ec65315176eb7c297c04259feb79ae1989f7419799da99ccbbc0a",
        "plot_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_simultaneous.svg": "632760c3de27a57dc04b4b5afccb69eacd1b4220079d526268f584c10168a103",
        "plot_topology_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_cyclic.svg": "3656dd71db50787b813832d869d38a1d03fbd85e5ad4d378d40bbe40782120cf",
        "plot_topology_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plot_topology_simultaneous.svg": "a07a2d23d7d4bb0b9bb970cc76b5006c0a0b5f4623262fc49b1addefdec270c4",
        "project_cyclic.csv": "a5115ad849973ef8edafc325518ce27d4cfa56e5dbc420c3a3ebec180191b95b",
        "project_cyclic.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "project_simultaneous.csv": "2765371747bda79cd4290f265d526871d0d46ddd7e6d02941fa9c1f0dd0aff4a",
        "project_simultaneous.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_cyclic.csv": "9cdaf13054964c2c058fff7f6e39e7b191e717b8106285805ceb368a69a19071",
        "trace_simultaneous.csv": "88977d900fe7d48554145da1fb76e9aa959657204b6980e7e52e0f6cca25e423",
        "trees.nwk": "9c6c4a5c627f5649ac71df58aef7587d3ccd53b513503c57bd9bd7e681c56fd3",
    },
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
    assert wide_gen_digest(tmp_path) == GEN_M300


@pytest.mark.parametrize("shape", CASES)
def test_seeded_pipeline_bytes_are_pinned(shape, tmp_path):
    assert pipeline_digests(tmp_path, shape) == PINNED[shape]


if __name__ == "__main__":
    print("PINNED = {")
    for shape in CASES:
        with tempfile.TemporaryDirectory() as directory:
            digests = pipeline_digests(Path(directory), shape)
        print(f'    "{shape}": {{')
        for name, digest in sorted(digests.items()):
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")
    with tempfile.TemporaryDirectory() as directory:
        print("\n\n# gen --m 300 --n 2 --seed 1: wide trees that reconstruct_tree checks with Prim's record alone")
        print(f'GEN_M300 = "{wide_gen_digest(Path(directory))}"')
