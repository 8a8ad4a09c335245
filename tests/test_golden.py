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
        "44b316bb9a0e70ba96ea1bd2fa1d9d99d3a5adb248c055c9d4ef8f8291ea5ca8",
    "edges_mentioning.csv":
        "ed0cd08129ca2577c5d2bddbfb803d8ad3362457f022d91a19dd0b7101341f71",
    "edges_retweeting.csv":
        "473de9146a033ea283879ce1c6e9ddfb02abed2c6e593e70755e6da46f40ac61",
    "facts_mentioning.csv":
        "64f368913c2349e32cddf9af1e199915769484a833a20c658cc8fdb18fa59b12",
    "facts_retweeting.csv":
        "5f5e37383efe7fd24a55604d55903674ca33f6226e9a4bf0985e76987b0a42d1",
    "facts_tagging.csv":
        "8e9af9025b8228a5e14f88e1e9c26d103e79fcd12a0e75a1cc7e4bd5aab0bc5c",
    "focus_mentioning.csv":
        "99bb606bb70b552c98ef6918aedf7d1f67c4be275953328c58f31e58c24ca230",
    "focus_retweeting.csv":
        "13da5b80443111344c79d229643afe14948586c706714e3222803ea4d327e869",
    "focus_tagging.csv":
        "e2c5c632ba192d758f0b9991efc523b82ed581c06782cca2fef80d087d407f39",
    "frequency_mentioning.csv":
        "54e92eebeced9a0e8e5f022a1af7b3933c8c8a090ff69fa064dcba0e5c6fadd1",
    "frequency_retweeting.csv":
        "b13adbddcf0f4a2662319a9103915c5337c32750d9d8d9afb5fe70015949c6f3",
    "frequency_tagging.csv":
        "3ae72ef5e9615ea0e1122052f5b3d3a238323e8a6de0e517d2b05624c98ee53c",
    "ingest_report.csv":
        "de96da6900e29f2212ff895de0c674f24a1e9c4caea3d0dbfd9684e9a6d5a3b6",
    "manifest.json":
        "23bcd1dd43d7f8d4fd7d6db55f18e3ebc2f0a9a3b40235f22952fabe4fc67b52",
    "network_following.csv":
        "864549c8d1aa7b282e03397fdb3a3678f3bd7745c8afc31ce8e23685b5ce31b5",
    "network_mentioning.csv":
        "0fdb11f6c159db182ccf75574e6a2a647cd62d0bff6cc1491a03af8c06d32c59",
    "network_retweeting.csv":
        "bab8dbdbaeb85b068415cb97684e43314f26d5080d743b5f1c792aee11676786",
    "reproduction_mentioning.csv":
        "70d5f623679a39f8591ebe5fc7b5999a57bff27644d8fdec2c3780a0bd6c7f3d",
    "reproduction_retweeting.csv":
        "1fcd6cae311ed7f0d42fd84e549ac0055c2b88942b5c6e81b487d38e1f251246",
    "reproduction_tagging.csv":
        "cdc33dfc8218943e4981bc75fe8c9506fc1e82e6ca0ef49e77a6ef5eed152ba3",
    "similarity_mentioning.csv":
        "ea8a043dcd01a073f316d3541cc6d8c628ea6a85ba25b3b439d6248622ad4b7e",
    "similarity_retweeting.csv":
        "945a01de03dcb29afeacebd79f6c0bee32980c40b0dfb3f0bc05378b579c830d",
    "similarity_tagging.csv":
        "0429d5dd97e419d3aa0eec904e1c4a9d6c391b7a602427754ff82f9a3aa273bf",
    "vectors_mentioning.csv":
        "6e755d2ec3e742cdfe86cb8923b708b69a7ba1f5ebb762a6b1b61b1b7856e0d6",
    "vectors_retweeting.csv":
        "505e258208adf0d10c55adc76c8b2531c1d212d7f9e8a07f188769a54203829b",
    "vectors_tagging.csv":
        "65f66d21abde5cddb47157b1001ab3807b1c97c8a591b42fe425a501c42118e4",
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
        "963fe6e377a508b2492e0f605d4d4ce6f44f09ad635fba4b6af25480440a3ab8",
    "edges_retweeting.csv":
        "5c340c3602d77f17bb85c35608c992413f1d7b84d281cf841edfdaedb7315ec6",
    "facts_mentioning.csv":
        "b8413a84d704214dc0973d20d244545d032ea6e1bc3ddeafcac7fea20761b1f1",
    "facts_retweeting.csv":
        "4cfc280fe4d4579bbb21a92f63e7cb89e5635dafe8e99fc1b55dad434bb093a4",
    "facts_tagging.csv":
        "f7d059fa0e38f46bc9ffb6b61f9166b60e48782360cd3515412db426aa34f35b",
    "focus_mentioning.csv":
        "fbd3b8d4f76f4382133816de677ef23862a9f924be5541882a5e42c95d19166d",
    "focus_retweeting.csv":
        "e0a700e04f6755805871002f7b5d911ac46ec309424d90c3509ba7a6db24f94e",
    "focus_tagging.csv":
        "78475c82932128c709758f8956ef79095402d733cbfbab7e2f84a61f3770e438",
    "frequency_mentioning.csv":
        "e24a91c2c18ba58cad493fba64b924f1dd0954e42081c5808d611c283757c29a",
    "frequency_retweeting.csv":
        "555f0c80e9eb0d7b5d8387da9b4612eb9d8f328c8c803288d5175c27e7f12126",
    "frequency_tagging.csv":
        "b65d16bfeb5929c7cd2bea7b9dbd726aec0f73c0a3cb6462cef7bcd90d44a5e8",
    "ingest_report.csv":
        "de96da6900e29f2212ff895de0c674f24a1e9c4caea3d0dbfd9684e9a6d5a3b6",
    "manifest.json":
        "2bf3a7209c23ea00be2e83c3f7d57f486c964c5908973ece1d97c74e82b95d2b",
    "network_mentioning.csv":
        "996159e4f2f42c4b51cce41f31ab29543ef1816e80410424e869ebbaddbaba17",
    "network_retweeting.csv":
        "f4a84206496dd69c547781a2001d4b0fca2df2551d57ffdc0c3a862c858a8c03",
    "reproduction_mentioning.csv":
        "0fdd095ab45994309da09b80d3f4379eb0b72e238b1a8953ec58aa3fa3df7cb6",
    "reproduction_retweeting.csv":
        "339469f7339d85f01cf19c4f68ff46fabada2e352bd803422e1a6f63f8e700f0",
    "reproduction_tagging.csv":
        "11ba438b0eaaf021db3bd4b0546d779fec547a9d19652f6a757edfc981f96926",
    "similarity_mentioning.csv":
        "e4bebab141742ae23dd08ff07e79e8da0a5d7cc26c6410bc695fe9e7c9094b3b",
    "similarity_retweeting.csv":
        "3de1d9e8069a060ae3866ab0261e951815b9c221bbc9850655c2ac419ff9298a",
    "similarity_tagging.csv":
        "8df90564915f9f65ca55ca2b86449bfd41e2fe25d4ce0779c722376ea316552b",
    "vectors_mentioning.csv":
        "c2e84b2848b57fafd780a5a091b3dc94415526cad4ca3caca41713ba6a7beadf",
    "vectors_retweeting.csv":
        "96f8f0b36d60e6f68fd12733fbbb634deb9443ce194eaceff6afaf2bc4b96d11",
    "vectors_tagging.csv":
        "c118c96ca53e6328b8abaef9c129a731be1ff10b264f5c031b96c03f8c79a6ba",
}

# synth with every setting at its default.
SYNTH_DEFAULT_DIGESTS = {
    "corpus.jsonl":
        "99e500b236fd54a29a0919cd9d2e38d963a658e76c4e2c841d81ab3840d91890",
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
