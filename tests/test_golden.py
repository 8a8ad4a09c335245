"""Golden digests: every artifact of three fixed runs, byte for byte.

The digests pin the exact output bytes, manifest included.  A change that
alters any of them changes what the tool reports and must say so (and why)
in CHANGES.md; regenerating them silently is not allowed.

Every run uses relative input names from inside its own directory, so the
paths echoed into ``manifest.json`` do not depend on where the checkout is.
The synthetic run covers what the 3-group demo does not: similarity over
many groups and many burst episodes per group.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from culturestream.cli import main

DEMO_DIGESTS = {
    "edges_following.csv":
        "48a01f279afa74b0a48ab9fa5d83a43ce5bdedffde9710a1d275db18ccb8632c",
    "edges_mentioning.csv":
        "e95dc28d0639c993c1a991c364b347c90af578d5b136e5868d2f9a645b877cad",
    "edges_retweeting.csv":
        "b386e32ed13ac5d15cb029d8ee5e2a7ebf13feec78e61512386b9e7b108b1b7c",
    "facts_mentioning.csv":
        "d7a4e88e16bb70daa592512114aca3be981502eb0f187d0ee54c432ffe5cc1af",
    "facts_retweeting.csv":
        "ce6b3e433fa44f1809a9f30592d82a3b7b811dfc42073e9d46e9c100d3c1288f",
    "facts_tagging.csv":
        "c83ef11db5e8194954df58a17cd66feacb3ee4f97b02d96a2ac9800fd1767bb8",
    "focus_mentioning.csv":
        "9fcbc83cd54f20194d301ec1852691bafc0936310dfe02763a51a218f46374ed",
    "focus_retweeting.csv":
        "56a38431946f75f1eaa875bd7f664a12814567586844519172128cffb6c6bc80",
    "focus_tagging.csv":
        "1c6edc55fd43c12cb87f5297aa52570201f92139f6b740fae278a94d320af909",
    "frequency_mentioning.csv":
        "708882bebdd60303ab500f6bb0c03bf9c6c40cc7ab6a002b93808c0666d34988",
    "frequency_retweeting.csv":
        "9c05e09b528cc83122b40f3aabe758a9aa25ccea1780b491f8f2283e55bf70f5",
    "frequency_tagging.csv":
        "f711469d6d4a83a1e397ae16112c06f1830655a2efd0548ee7a1974e8189d5a8",
    "ingest_report.csv":
        "de96da6900e29f2212ff895de0c674f24a1e9c4caea3d0dbfd9684e9a6d5a3b6",
    "manifest.json":
        "672d8f291b01e75f1f3b3e79dc0a256c0c40100cb20958928b037b55e35b9bc4",
    "network_following.csv":
        "d867a63863bacc1c369143761a6a1bd39a873ed143e03d16f315830dc51d7fd3",
    "network_mentioning.csv":
        "beb4e3acfa906a58b8b5f6ca6b1834175ffad8fe8036838610a1182d0e1db6c0",
    "network_retweeting.csv":
        "9b8988ffb06c54c48ad4a7d9c3d117c5b78415f83a5b4a2a79eb59b66121b128",
    "reproduction_mentioning.csv":
        "71c0a71e2e7a50e1c890da0658a3d46629b87cd1d67c59b809a5bc254513cdfc",
    "reproduction_retweeting.csv":
        "68899cc12640d4b954829fa1c2d2cde3f6217253d45e9af3f0fe1338ada790c0",
    "reproduction_tagging.csv":
        "ce5edbc8be18a051f9f0dbfbe40e620e426dfc9029d68e97652f73757f3da4bd",
    "similarity_mentioning.csv":
        "5cd7276d07ded5b3024b6ef1346bc91f6f65a87f8eb898954685a24f0a07eeda",
    "similarity_retweeting.csv":
        "736dd056ee40ff099a038061e49b6bb35bc41010a841b330b85dc4d55cc0b4f9",
    "similarity_tagging.csv":
        "379792f478626952a6290da903a678acf1900b355ec465b995ea4540a988a35c",
    "vectors_mentioning.csv":
        "9da4cc43639b63c4ec6da290e0da62a0c5ee316282a4cfb4368b4bedee87cdd3",
    "vectors_retweeting.csv":
        "2f3151f4d7f293cf533ac3c14010320ed8cbfb8b6e723f96710009a6c1c570c2",
    "vectors_tagging.csv":
        "5019cd06cb040651e5d8360bec34ef27e3e3c5e8f3fe6087f51eee2a6c181680",
}

RAW_DIGESTS = {
    "edges_following.csv":
        "c82e12399eb06ac1ec0774af74a700defd0d5ba749fd374fe05177b2b94272aa",
    "edges_mentioning.csv":
        "6f8cbc9049c6724b41fca4555f6695210467494fd94f080026a45abfbcc0ebf6",
    "facts_mentioning.csv":
        "6afc4be8174e30677141e7576912256302fc8d9016cf8f562507db1a36345e41",
    "facts_tagging.csv":
        "8b6cd7a1d1ab9f59e9fef6041d27ed5e35c87b75ec38faeb0cf2add4e5cc11d2",
    "focus_mentioning.csv":
        "6543c2602209baa35fef40a15817827651d36184753136985270af8581e7afcf",
    "focus_tagging.csv":
        "b636b7edfd2e3740d1823626c396d35ce1c0827e469c7ff61613adf01d8450bc",
    "frequency_mentioning.csv":
        "9b841f6c673fb728c5c43d6538f2f779c9f9fd5d254b9ff5c6e6f628b94147b8",
    "frequency_tagging.csv":
        "a4b72b84f6ba8ff5a9fda4028435f7840f8c549400f73992b10e0aba5b625ddf",
    "ingest_report.csv":
        "cfc88e6cc006cba79a961229189bef9cf17ceb2f155191bb19f5c94a8225a3cb",
    "manifest.json":
        "14ab62b539f0a761104a21454f5b2bb5d471dffafc88bcd4425463753dbd2e32",
    "network_following.csv":
        "19a1231607b699da0b6c34e5b33d40d64ba4ceef6f9806cac0d72411df306bb1",
    "network_mentioning.csv":
        "08bc423777a264d0c85fe201933a632927ed0d90c464215aa3d43405b247e9cd",
    "reproduction_mentioning.csv":
        "f32d6a826bc4bc05890f03b155b66422e01bd9949aeedb0c0c73ca36d1cd7ee8",
    "reproduction_tagging.csv":
        "e9f43e5835dc790d17e2f8d853740c56c0fd75dc74e5449086db723d39203b01",
    "similarity_mentioning.csv":
        "1ba53bf75ebe791c941a1ced7a1616b3ea0162c03a61e2261d1e39d44589ff67",
    "similarity_tagging.csv":
        "ee6c99da7b9e74a91987b4c65403ba28a3ccdbd22247389c38a25a9848df44c3",
    "vectors_mentioning.csv":
        "bfbfab8fc6b79ccb5782856978c2a7c917e3f7471a97129629a4bd0ff7b9ea53",
    "vectors_tagging.csv":
        "795909c81a1630ea43d6200cbf27f304268d862487b18873628340e1aeff028f",
}

RAW_INGEST_DIGESTS = {
    "ingest_report.csv":
        "cfc88e6cc006cba79a961229189bef9cf17ceb2f155191bb19f5c94a8225a3cb",
    "transactions.jsonl":
        "cead9f16e463cac29ddade8dbbade50b8db2a82ee2b337a3f888f825e11199ae",
}

SYNTH_DIGESTS = {
    "edges_mentioning.csv":
        "d5bf0458e51111b00caca2452ee4e3021ec0aa71f22a69cab402b0c82a9ada4a",
    "edges_retweeting.csv":
        "ceb4f87fa4699b77fe8787d47fc1420321d7c5ff5451f1af8e1a6d2d1347a84b",
    "facts_mentioning.csv":
        "3cdbf4ad437c64248efac212bf616c98cea848520ff07d3fc471a8a92f464a64",
    "facts_retweeting.csv":
        "b816047786c739ded9066b9329751128f6e20e35d813afc35d0d11bf39fbbb78",
    "facts_tagging.csv":
        "6cc55ecfa9c93e9f9444668ebc3c8a1e88725cf3da46e3a29318c7cdd6a229c7",
    "focus_mentioning.csv":
        "e62bf3a7ddfc8bf2d24394468bd5d84106c5407bba5da6e796158a6df30e263a",
    "focus_retweeting.csv":
        "df7cfe58122e7e5f4e1fd382632f2005120894747531c9df62e0a71144234b3d",
    "focus_tagging.csv":
        "b86f94a89c4fa027c92690a88e7fd3fdd1510401f82cca3be7667643afabbacf",
    "frequency_mentioning.csv":
        "23576e6456493651273c7e641d2fd645b34ca8f6edc20d364e9c3439c58940b7",
    "frequency_retweeting.csv":
        "d6b846eb20fb84787dd914f8aab3ff426610189cfb2cd7208b4796b6416ac3e2",
    "frequency_tagging.csv":
        "ed95ad787945be8137d01ca73f956c533253a0eb3612fc485e4ac7618df7a33e",
    "ingest_report.csv":
        "de96da6900e29f2212ff895de0c674f24a1e9c4caea3d0dbfd9684e9a6d5a3b6",
    "manifest.json":
        "da03c50f24d702f059cd4c5bcf200de3307aabf1a773746d1d45f234dfab3ce0",
    "network_mentioning.csv":
        "ee45e347b2ddf3f752ab9ea89bab92ba1a76c1e623671c88798ce55f545b7ab5",
    "network_retweeting.csv":
        "9169160d17c39d3170651d007a01dde06decb786fd7b86ee30e0067564607ab4",
    "reproduction_mentioning.csv":
        "6a4d627630af02010d66011a6cbac81415afd4b09853212c4f5931346b5520ce",
    "reproduction_retweeting.csv":
        "8e3789a27df8578e59756ebf460b211093302169c8d3bd3687c629e9d93ba279",
    "reproduction_tagging.csv":
        "6d2e67df19b0fe6180446a593545ce4204d5ffeb9fa41fee3a4de71fb1eaa4e2",
    "similarity_mentioning.csv":
        "170920647eba37a3e8edadb06d43c75b2b4f879a3ccf3969109df297e93066d1",
    "similarity_retweeting.csv":
        "54e029c11b8103bfdd2b0ac328934bc3fe4dcecfe62f983d1721557d7edaeab0",
    "similarity_tagging.csv":
        "aae7d7b83ed8a5f004a3aa777492f5e6033436ac1677fa4f88457d132411110c",
    "vectors_mentioning.csv":
        "ac5aaad1a6e6b45d00bbece818cbfea4fb31e11d1634ee998098e68b6094a1bd",
    "vectors_retweeting.csv":
        "902df0a13eea0f1a3235409c714aaa697b311769ef729a378a974293c0644214",
    "vectors_tagging.csv":
        "1fe6cf1a70cfe7f7b0362fb18bc015459cec75ebb7bbd3cd520d3505970c9ff8",
}

# synth with every setting at its default.
SYNTH_DEFAULT_DIGESTS = {
    "corpus.jsonl":
        "7d3eca65f56ae93c2a592d883bd9bcc03735b18b5acdc1ef4b0a711434f95acd",
    "roster.csv":
        "ecab90c437cd755ce5bad2ad5f561df0b52d94783a01d0bcb41bc3022e48d97a",
}

SYNTH_ARGS = [
    "synth", "--out", "in", "--seed", "5", "--weeks", "13",
    "--groups", ",".join(f"G{i}:4" for i in range(10)),
    "--rate", "2", "--burst", "storm:7:8:5", "--warmup-facts", "30", "--warmup-tokens", "10",
]

# Every one of the run settings at a non-default value.
RAW_SETTINGS = {
    "corpus": "corpus.jsonl",
    "roster": "roster.csv",
    "follow_edges": "follow.csv",
    "out": "out_cfg",
    "epoch": "2014-03-01T00:00:00Z",
    "weeks": "6",
    "width_seconds": "172800",
    "rbo_p": "0.75",
    "inst_variant": "normalized",
    "practices": "tagging,mentioning",
    "markers": "2:launch,5:storm",
    "restrict_to_roster": "false",
    "retweet_hashtags": "false",
}

RAW_FLAGS = [
    "--corpus", "corpus.jsonl",
    "--roster", "roster.csv",
    "--follow-edges", "follow.csv",
    "--out", "out_flags",
    "--epoch", "2014-03-01T00:00:00Z",
    "--weeks", "6",
    "--width-seconds", "172800",
    "--rbo-p", "0.75",
    "--inst-variant", "normalized",
    "--practices", "tagging,mentioning",
    "--markers", "2:launch,5:storm",
    "--no-restrict-to-roster",
    "--no-retweet-hashtags",
]

USERS = [("ana", "G1"), ("ben", "G1"), ("cai", "G1"),
         ("dee", "G2"), ("eli", "G2"), ("fay", "G2"),
         ("gus", "G3"), ("hal", "G3"), ("ivy", "G3")]

TAGS = ["Politics", "Élection", "Vote2014", "ÉTÉ", "débat", "Straße"]

TEMPLATES = [
    "RT @{t}: loving #Café and #{tag} today",
    "@{t} what about #{tag}? cc @{u}",
    "#{tag} #{tag2} via @{t}",
    "RT {t} #Naïve stuff @{u} #{tag}",
    "@stranger{k} and @{t} #{tag2}",
    "plain text without any facts",
]

EPOCH = 1393632000  # 2014-03-01T00:00:00Z


def _timestamp(i: int):
    seconds = EPOCH + (i * 7919) % (12 * 86400)
    if i % 3 == 0:
        return seconds
    day, rest = divmod(seconds - EPOCH, 86400)
    hh, rest = divmod(rest, 3600)
    mm, ss = divmod(rest, 60)
    stamp = f"2014-03-{day + 1:02d}T{hh:02d}:{mm:02d}:{ss:02d}"
    return stamp + "Z" if i % 3 == 1 else stamp  # naive times are UTC


def _write_raw_inputs(directory: Path) -> None:
    handles = [u for u, _ in USERS]
    lines = []
    for i in range(240):
        text = TEMPLATES[i % len(TEMPLATES)].format(
            t=handles[(i * 5 + i // 9) % 9],
            u=handles[(i * 2 + i // 7 + 4) % 9].upper(),
            k=i % 4,
            tag=TAGS[i % len(TAGS)],
            tag2=TAGS[(i // 2) % len(TAGS)],
        )
        record = {"id": f"r{i:04d}", "user": handles[i % 9], "timestamp": _timestamp(i),
                  "text": text}
        lines.append(json.dumps(record, ensure_ascii=i % 2 == 0))
    lines += [
        "not json at all",
        "[1, 2, 3]",
        json.dumps({"id": "m1", "user": "ana"}),
        json.dumps({"id": "r0003", "user": "ben", "timestamp": EPOCH, "text": "#dup"}),
        json.dumps({"id": "u1", "user": "zed", "timestamp": EPOCH, "text": "#who"}),
        json.dumps({"id": "o1", "user": "cai", "timestamp": EPOCH - 5, "text": "#early"}),
        json.dumps({"id": "o2", "user": "dee", "timestamp": "2014-03-20T00:00:00Z",
                    "text": "#late"}),
        "",
    ]
    (directory / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "roster.csv").write_text(
        "user,group\n" + "".join(f"{u},{g}\n" for u, g in USERS), encoding="utf-8"
    )
    (directory / "follow.csv").write_text(
        "source,target\n@Ana,ben\nana,dee\nben,cai\ncai,cai\ndee,zed\n"
        "eli,fay\nfay,ana\ngus,hal\nhal,ivy\nivy,eli\nivy,eli\n",
        encoding="utf-8",
    )
    (directory / "raw.cfg").write_text(
        "# every setting away from its default\n"
        + "".join(f"{key} = {value}\n" for key, value in RAW_SETTINGS.items()),
        encoding="utf-8",
    )


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def test_demo_fixture_digests(fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "demo"
    assert main(["report", "--config", "demo.cfg", "--out", str(out)]) == 0
    assert _digests(out) == DEMO_DIGESTS


@pytest.fixture()
def raw_dir(tmp_path, monkeypatch):
    _write_raw_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_raw_text_digests_config_file_and_flags_agree(raw_dir):
    assert main(["report", "--config", "raw.cfg"]) == 0
    assert main(["report", *RAW_FLAGS]) == 0
    assert _digests(raw_dir / "out_cfg") == RAW_DIGESTS
    assert _digests(raw_dir / "out_flags") == RAW_DIGESTS


def test_raw_text_ingest_digests(raw_dir):
    assert main(["ingest", "--config", "raw.cfg", "--out", "ingest"]) == 0
    assert _digests(raw_dir / "ingest") == RAW_INGEST_DIGESTS


def test_synthetic_ten_group_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(SYNTH_ARGS) == 0
    assert main(["report", "--corpus", "in/corpus.jsonl", "--roster", "in/roster.csv",
                 "--epoch", "0", "--weeks", "13", "--out", "out"]) == 0
    assert _digests(tmp_path / "out") == SYNTH_DIGESTS


def test_synth_default_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "in"]) == 0
    assert _digests(tmp_path / "in") == SYNTH_DEFAULT_DIGESTS
