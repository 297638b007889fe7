"""Golden outputs: the commands' bytes on the bench workloads are pinned.

For each bench workload at seeds 1-3, the sha256 of what each command
writes (its exit code, standard output and standard error) and of the
model files is compared with a committed table.  A change that is meant
to keep every output byte for byte leaves the table as it is; a change
that alters output on purpose rewrites the changed rows and says why.
The commands run in-process, in the workload's directory, so the paths
they print are the same on every run.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from spantag import tagger
from spantag.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

TAG = ["tag", "input.txt", "--model", "trained.model", "--lexicon", "lexicon.tsv",
       "--abbrev", "abbrev.txt"]

# The commands, in the order they run.
COMMANDS = {
    "train": ["train", "--corpus", "gold.vrt", "--model", "trained.model"],
    "tokenize": ["tokenize", "input.txt", "--abbrev", "abbrev.txt",
                 "--multiwords", "multiwords.txt"],
    "tag": TAG,
    "tag --rules": TAG + ["--rules", "rules.txt"],
    "tag --multiwords": TAG + ["--multiwords", "multiwords.txt"],
    "tag --no-enclitic-split": TAG + ["--no-enclitic-split"],
    "validate --rules": ["validate", "plain.vrt", "--rules", "rules.txt"],
    "eval": ["eval", "--gold", "text-gold.vrt", "--pred", "multiwords.vrt",
             "--lexicon", "lexicon.tsv"],
}
SAVED = {"tag": "plain.vrt", "tag --multiwords": "multiwords.vrt"}  # read by later commands
MODELS = ("trained.model", "resaved.model")  # `train`'s model, and its load and save copy


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    """`spantag ARGV` in-process: its exit code, stdout and stderr."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n") for _ in "12"]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = main(argv)
    for stream in streams:
        stream.flush()
    out, err = (stream.buffer.getvalue() for stream in streams)
    return code, out, err


def golden_hashes(workload: str, seed: int, work: Path) -> dict[str, str]:
    """The sha256 of each command's output and of each model file for one
    workload and seed, its files written to `work`, which becomes the
    working directory."""
    wl = synth.generate(workload, seed)
    for name, content in wl.files.items():
        (work / name).write_text(content, encoding="utf-8")
    # the generator's tags for the text, which `eval` scores the tagger on
    text_gold = synth.vertical([[part for item in s for part in item.parts] for s in wl.sentences])
    (work / "text-gold.vrt").write_text(text_gold, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        outputs = {}
        for name, argv in COMMANDS.items():
            code, out, err = run_cli(argv)
            if name in SAVED:
                Path(SAVED[name]).write_bytes(out)
            outputs[name] = b"exit %d\0%s\0%s" % (code, out, err)
        tagger.save_model(tagger.load_model("trained.model"), "resaved.model")
        outputs.update((name, Path(name).read_bytes()) for name in MODELS)
        return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    finally:
        os.chdir(cwd)


GOLDEN = {
    ("news-stream", 1): {
        "train": "7eb9244c1b61aed39fd0f1ec7952365b4fccdf23889612dae9c795cf41f31c82",
        "trained.model": "9047973b4cf912f4d782933867908d6e7ff3b24b90c42b0585976c803e2d5a0f",
        "resaved.model": "9047973b4cf912f4d782933867908d6e7ff3b24b90c42b0585976c803e2d5a0f",
        "tokenize": "c8df66c65468ef36d7c6c56c5a74ef8f593b78b8984b3bf9ce08de5cc8ac1d70",
        "tag": "1e52a409f27d5783db377561b3f21277af3da678811ffaa7ce4d802af9efd311",
        "tag --rules": "1fe5ea5383dfaf62c89a7ce259f36d515a8f41f540810f4ad662ca3bcfe0b81e",
        "tag --multiwords": "39b64b11792db5d3dff11ae07bc58438b96cb30738c44a0955cc713ab2ce2f93",
        "tag --no-enclitic-split":
            "901d51d60b136fce8eedcfc8d2e24f42785f71947d195f840f3894af23fc12ec",
        "validate --rules": "b1bf5cb7d8df7d4d76c813415d7c93dbf43bc19439a79b9554a8a67b91bd3ea7",
        "eval": "c8af6aadc2a01248de14ff4f77c8f90cb0a85edb325b250a48e8f9d95387a1a8",
    },
    ("news-stream", 2): {
        "train": "f569962e2dab8341d1b4a8d5c33c199c33bf6e8f591fa2988a18b70517d2e4f2",
        "trained.model": "d2e385c4ce89252d875ed64fbd8d6719db8af11eb0fa3a9eccff6960616f71b1",
        "resaved.model": "d2e385c4ce89252d875ed64fbd8d6719db8af11eb0fa3a9eccff6960616f71b1",
        "tokenize": "e97fdca58457633096498f1ef87c39a5f7e387254f62c960d164fce35bd5894d",
        "tag": "22e170c2e88a4a1c25d3c64b49fd19389c5a0d0348f8dc60373d98362356c557",
        "tag --rules": "39b9f88d30726ce339dda42fd10d860db2fe60e5a4a68d18c648fd2dede9ac46",
        "tag --multiwords": "865e681c96014e342cea22e830aa10dd87175e9cd9aa7234ab86ca96b67752f0",
        "tag --no-enclitic-split":
            "cdf385050f9c28b0bea911813c14432458109341c6b0f0e07855720bc81dcbb1",
        "validate --rules": "bd46ec296fa979cf2cfa29d2726f45609ff3e810c5ef67b6edbb309ff0077460",
        "eval": "838ace1082500c2583d78f4a3d39cf8cbcfad63aa4e92aeac84554bdcce43155",
    },
    ("news-stream", 3): {
        "train": "a3547daf280cef483defb205bacd5a6238e82f60e38891feead85542df7c3e7c",
        "trained.model": "fd02c291f63cf92a1cc57c417eee74de5e2dacd30bf82dc08d4a4b4e8f45bc42",
        "resaved.model": "fd02c291f63cf92a1cc57c417eee74de5e2dacd30bf82dc08d4a4b4e8f45bc42",
        "tokenize": "9bafcb94cf3b1f838e0dcb3050cb35b3c7ca91f53a61d0f90e23b0d4d490875a",
        "tag": "0a113b4100f32a98f096c06ccdcfe7a97eb32edd1e2886ba02264200afee9314",
        "tag --rules": "7daa9f8a7dde14b2ee73ee282ab3ecf4535036ae34807d947c94a874887fe86c",
        "tag --multiwords": "cfc3b8cb2cbaf0ea329fb2755a46103072edcd4159554fcb6a3341cd8266a21a",
        "tag --no-enclitic-split":
            "fdf32e292d2bae6821870076250acee3a364841cf7dc67968df5807da7bda697",
        "validate --rules": "6bd9026c861bfcb9311ce8268db10873b1442c31bfb6e834e32801dc6db8267d",
        "eval": "cef78d3c04fefce9c7dc1dd858959fca2019bddb3e1eb5bd1eb656144f32b4c1",
    },
    ("long-sentence", 1): {
        "train": "7a08fc4c45004a62971fc5beb1bdab64a5b90be1caae70040576e1fea5fc58cf",
        "trained.model": "b46437403fd58dfd1e13ae600a4de5ea6b61e61f0559598c6b224640dc457c96",
        "resaved.model": "b46437403fd58dfd1e13ae600a4de5ea6b61e61f0559598c6b224640dc457c96",
        "tokenize": "0480cf42450a1aca53e81e27f6ee15b41caa41f2a6ea513948c3cc0863fd778d",
        "tag": "48792ff001a19bd27845c877ff6643cb6b02b5c1cd0f16b588674b6056a5b174",
        "tag --rules": "cf00a8f75c9391bae50aa60218a48bed7124e82eab912dc8679e34bd7eb801ac",
        "tag --multiwords": "48792ff001a19bd27845c877ff6643cb6b02b5c1cd0f16b588674b6056a5b174",
        "tag --no-enclitic-split":
            "8515b4d38c70196dbe0516baf9cf441442146e47f235c68924ce6fe32102fb8c",
        "validate --rules": "0293bfc7d53a26d18a7dc9b559f5337cb87d7e31db44087c2b5aaecff1c25df6",
        "eval": "976450fe34bbade2e0fb6ab7e9702ba292f574f22001c6c2fd75371fd5f60c34",
    },
    ("long-sentence", 2): {
        "train": "2327a081b429d00cca24a37a79a6dd123e78378a1e20593e6c85a8bec0313198",
        "trained.model": "c8377fa027517e92e48852eeebf56d68d7daae1962eb1c6cd5028d4761068833",
        "resaved.model": "c8377fa027517e92e48852eeebf56d68d7daae1962eb1c6cd5028d4761068833",
        "tokenize": "442c69995ac1865ea1ae6f464c254515982951b9341da25afc131559b4db8303",
        "tag": "d067c1a55367d438b718e2f8d8c832d0b3566295b6b8d8c269acda6c6ff98382",
        "tag --rules": "e79e6a0d9546c5af208ddee8a145fd3ff522e93b2d93f2f095d8db947ab85e8a",
        "tag --multiwords": "d067c1a55367d438b718e2f8d8c832d0b3566295b6b8d8c269acda6c6ff98382",
        "tag --no-enclitic-split":
            "bf1a24498f3c658236661d59ca7ef69d3f31a6d6d735a679513880994b34a723",
        "validate --rules": "0d8b1703ed406a8517ccd01958db0829fadb58a325b9c72e52db37d278e18051",
        "eval": "ee408982d10a5abec527635a3d5f5301f5ca20797e5700dda02938decdb96120",
    },
    ("long-sentence", 3): {
        "train": "1e59bcb114da7c8973c7c74c2919d86a6ec2174ac7af8c3b9335a008f4885d95",
        "trained.model": "d8313f56653a769794e2a28d566ce46aa8035e292c04a87ec3e6b5da1c02132f",
        "resaved.model": "d8313f56653a769794e2a28d566ce46aa8035e292c04a87ec3e6b5da1c02132f",
        "tokenize": "03bc46d7fa61dae7d794606e945ab2489aca65a89d6bd31684dfbb4ec62fd14e",
        "tag": "fa5fcd32156602d8767bdb8b394d84343683686ab1d7c0a7f1e77fa99c2f19e0",
        "tag --rules": "5affbb0044a901b64947e4d08653a8a1a16971a935f0f92573e8c34e94b6617c",
        "tag --multiwords": "fa5fcd32156602d8767bdb8b394d84343683686ab1d7c0a7f1e77fa99c2f19e0",
        "tag --no-enclitic-split":
            "a00b8c6a8448b7a50d44babde638ab3a9ebc10aaeb9debdbcb09d709c184f7b2",
        "validate --rules": "20d3d7446cb61f966cc9ad02afb5d421e2432a9de6b888c907b6c82e734d330c",
        "eval": "e97426f686de054263efbbc86abb6775dd22f99fbd6f53abe9aae1fd26f8f438",
    },
}


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN))
def test_outputs_match_the_golden_table(workload, seed, tmp_path):
    hashes = golden_hashes(workload, seed, tmp_path)
    golden = GOLDEN[workload, seed]
    assert hashes.keys() == golden.keys()
    changed = sorted(name for name, digest in golden.items() if hashes[name] != digest)
    assert not changed, f"{workload} seed {seed}: changed outputs {changed}"
    # a load and save gives back the trained model's bytes
    assert hashes["resaved.model"] == hashes["trained.model"]
