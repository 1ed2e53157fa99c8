"""Byte-identical CLI output on a fixed grid.

Each case pins the exit code and the sha256 of the command's canonical JSON
(``sort_keys``, compact separators, ``rank``'s volatile ``elapsed`` dropped).
A usage error prints no JSON and pins ``None``.  ``rank`` at (3, 3) is D=405
and is left to the ``BMW_EXTENDED`` run.  ``LARGE`` adds ``identities`` and
``omega`` at the sizes where one window or step is shared by the most walks
and labels, and ``params`` and ``br2`` at r=5, where the Q_a coefficients
of the omega family run to the highest a.  It also adds ``rep`` at (1, 4),
which the benchmark's relation workload runs and the grid does not reach,
and at (3, 1), where no relation has a step; and ``identities`` at (5, 4)
and ``omega`` at (3, 4), which have the widest flank sets and the largest
integers of the residue layer; ``tabs --list`` at (3, 4), which pins the
order of the walks, and ``basis`` at (5, 4), the benchmark's size.  Last,
``gram`` at n=4, the largest n whose value is cross-checked on the module:
``--ell 1`` at r=3 and ``--ell 0`` at r=1, plus ``--ell 1`` at r=1, which
lies outside the moment window and is a usage error.  ``EXTENDED`` pins
``identities`` at (3, 5) and ``omega`` at (3, 5) and (5, 4), the largest
cases of ROADMAP item 7, in the ``BMW_EXTENDED`` run (``identities`` at
(5, 4) is in ``LARGE``).

Print the table for the current tree with
``PYTHONPATH=src python3 tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from cycbmw.cli import run

COMMANDS = ("params", "tabs", "rep", "identities", "omega", "br2", "basis",
            "rank", "gram", "classify")
LARGE = (("identities", 3, 4), ("identities", 5, 3), ("omega", 1, 4),
         ("params", 5, 2), ("br2", 5, 2), ("rep", 1, 4), ("rep", 3, 1),
         ("identities", 5, 4), ("omega", 3, 4), ("tabs --list", 3, 4), ("basis", 5, 4),
         ("gram --ell 1", 1, 4), ("gram --ell 1", 3, 4), ("gram --ell 0", 1, 4))

EXTENDED = (("identities", 3, 5), ("omega", 3, 5), ("omega", 5, 4))


def _grid():
    for cmd in COMMANDS:
        for r, n in ((1, 2), (1, 3), (3, 2), (3, 3)):
            if cmd == "rank" and (r, n) == (3, 3):
                continue
            for seed in (0, 7):
                argv = [cmd, "--r", str(r), "--n", str(n), "--seed", str(seed)]
                if cmd == "gram":
                    argv += ["--ell", "0"]
                yield " ".join(argv)
    for cmd, r, n in LARGE:
        for seed in (0, 7):
            yield f"{cmd} --r {r} --n {n} --seed {seed}"


def _extended():
    for cmd, r, n in EXTENDED:
        for seed in (0, 7):
            yield f"{cmd} --r {r} --n {n} --seed {seed}"


def _run(case: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(case.split())
        except SystemExit as exc:
            code = exc.code
    if not out.getvalue():
        return code, None
    report = json.loads(out.getvalue())
    if case.startswith("rank "):
        report.pop("elapsed")
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return code, hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "params --r 1 --n 2 --seed 0":
        (0, "0bbb6acbcd9e37aac1d1c524311d59df3d61b80a009bb5b2c23c031d22891590"),
    "params --r 1 --n 2 --seed 7":
        (0, "ed19ae3287c97781843aa324102d33e04a68f861d8aaccaea4095b4408dab6e5"),
    "params --r 1 --n 3 --seed 0":
        (0, "6b7be18499f27064cd4f0f8db8379928a83db95dcda9b340f3a3aaf309571527"),
    "params --r 1 --n 3 --seed 7":
        (0, "5e719c0d8bc53603f024a85b57fae981f83be8f8d342206b0964dfd99e027f0f"),
    "params --r 3 --n 2 --seed 0":
        (0, "73832489909a92d9ef7149a888f1fe1503469fbdd491eb336980a18d44a8de50"),
    "params --r 3 --n 2 --seed 7":
        (0, "0298c3d76c5cda41e0f80e51a271bcc7eff0db446fb48ec22505c66f4e40d4fc"),
    "params --r 3 --n 3 --seed 0":
        (0, "60d0bde6327cb0ced7dbae5e8d2a4b93f6c59d1d367bf95dba1dd545a04349ef"),
    "params --r 3 --n 3 --seed 7":
        (0, "56c66bf5e0c0e6aa20a241494ccd909029e42c54452725e458ddcee71a96be39"),
    "tabs --r 1 --n 2 --seed 0":
        (0, "56b8333037f608a6af85442093a8d66b23ceb884ebced80471a40673a137a03c"),
    "tabs --r 1 --n 2 --seed 7":
        (0, "56b8333037f608a6af85442093a8d66b23ceb884ebced80471a40673a137a03c"),
    "tabs --r 1 --n 3 --seed 0":
        (0, "bec65c62cbaa3d6b995a40c88280d4ee22b95979acbc3547c7cc5a6f00eba8f1"),
    "tabs --r 1 --n 3 --seed 7":
        (0, "bec65c62cbaa3d6b995a40c88280d4ee22b95979acbc3547c7cc5a6f00eba8f1"),
    "tabs --r 3 --n 2 --seed 0":
        (0, "65ed76dd9ac79c2bba533741f005271b3149b68058e0e8ec95092cfa21da31cc"),
    "tabs --r 3 --n 2 --seed 7":
        (0, "65ed76dd9ac79c2bba533741f005271b3149b68058e0e8ec95092cfa21da31cc"),
    "tabs --r 3 --n 3 --seed 0":
        (0, "2dfd6b394440ecbca538aa46241da66e7b072ce62cce169f353e9ffe37370220"),
    "tabs --r 3 --n 3 --seed 7":
        (0, "2dfd6b394440ecbca538aa46241da66e7b072ce62cce169f353e9ffe37370220"),
    "rep --r 1 --n 2 --seed 0":
        (0, "fd22fda7ff4a09fe22de0ba139f1465e2ed651a82ecec6e41a2d5ff194c6ea02"),
    "rep --r 1 --n 2 --seed 7":
        (0, "fd22fda7ff4a09fe22de0ba139f1465e2ed651a82ecec6e41a2d5ff194c6ea02"),
    "rep --r 1 --n 3 --seed 0":
        (0, "22b89af34fd9136f19e5d3ad0f6739c6feb75b5f7c165cbbeee97020799750f8"),
    "rep --r 1 --n 3 --seed 7":
        (0, "22b89af34fd9136f19e5d3ad0f6739c6feb75b5f7c165cbbeee97020799750f8"),
    "rep --r 3 --n 2 --seed 0":
        (0, "a90c2c7abafb67af99ef387b105452a5d1ce93edfc013287bea8e79b75834ad0"),
    "rep --r 3 --n 2 --seed 7":
        (0, "a90c2c7abafb67af99ef387b105452a5d1ce93edfc013287bea8e79b75834ad0"),
    "rep --r 3 --n 3 --seed 0":
        (0, "ff767aa435e9e8fef673d2caf1675ca4b3269e731967eb0fcfedb7335b1ea5c0"),
    "rep --r 3 --n 3 --seed 7":
        (0, "ff767aa435e9e8fef673d2caf1675ca4b3269e731967eb0fcfedb7335b1ea5c0"),
    "identities --r 1 --n 2 --seed 0":
        (0, "d24d4bebe54d2c170b1bfb7a318b43013131be98fe31d734f31d134d3f503080"),
    "identities --r 1 --n 2 --seed 7":
        (0, "d24d4bebe54d2c170b1bfb7a318b43013131be98fe31d734f31d134d3f503080"),
    "identities --r 1 --n 3 --seed 0":
        (0, "d1169684abc6df74b4d72f5542b36916aae26ecfa49ffcecaa35a26fd665ce2d"),
    "identities --r 1 --n 3 --seed 7":
        (0, "d1169684abc6df74b4d72f5542b36916aae26ecfa49ffcecaa35a26fd665ce2d"),
    "identities --r 3 --n 2 --seed 0":
        (0, "3e0d25c75222cf9be79e12f01b53fbe2b42f13390e3c4a36fe2759c9fbb4c31e"),
    "identities --r 3 --n 2 --seed 7":
        (0, "3e0d25c75222cf9be79e12f01b53fbe2b42f13390e3c4a36fe2759c9fbb4c31e"),
    "identities --r 3 --n 3 --seed 0":
        (0, "bf7df70917a5deece78bb0eab38f043cf6fd6dcbee9914548a597d4eb1b77a90"),
    "identities --r 3 --n 3 --seed 7":
        (0, "bf7df70917a5deece78bb0eab38f043cf6fd6dcbee9914548a597d4eb1b77a90"),
    "omega --r 1 --n 2 --seed 0":
        (0, "aaf2f0cefe868e71916f5f35b39572a3c3de9e6c7c9ac4fda6cc1f0f6c5203ba"),
    "omega --r 1 --n 2 --seed 7":
        (0, "8e87447adf8ef7afe4365f25a8576d520ae2cef96be8a196ea8c9f1080623538"),
    "omega --r 1 --n 3 --seed 0":
        (0, "b68658d3334c674a2f0edd41eb2cc0998ed88b33c5c90fb27666b14025fce2a1"),
    "omega --r 1 --n 3 --seed 7":
        (0, "a5fd1bdb3b6d15eb8ff52d5555a6006fb914e6eea51c3e5bf237b43740fa3704"),
    "omega --r 3 --n 2 --seed 0":
        (0, "e45a4ecf8e4aa6c4ea879bae1504d36c32e417a74fe4a51268caab3ef2e27b69"),
    "omega --r 3 --n 2 --seed 7":
        (0, "7d2374d679bde99c22a9e5e33b4d67d4cfb2bc865124d34f5c7c59baa9280fac"),
    "omega --r 3 --n 3 --seed 0":
        (0, "d4ae3da4bdd65206042e810e6d3c30cea90c314d154e7282473a9408c6440ea5"),
    "omega --r 3 --n 3 --seed 7":
        (0, "2e70ccf5ef05457253efb524df1c249414b51879e20a08c3f865d9b904ea6654"),
    "br2 --r 1 --n 2 --seed 0":
        (0, "d77a02020b45a95428bd45252ae59b7a7dfcb6ed00be79424d27f4d8a81b8e86"),
    "br2 --r 1 --n 2 --seed 7":
        (0, "d77a02020b45a95428bd45252ae59b7a7dfcb6ed00be79424d27f4d8a81b8e86"),
    "br2 --r 1 --n 3 --seed 0":
        (0, "d77a02020b45a95428bd45252ae59b7a7dfcb6ed00be79424d27f4d8a81b8e86"),
    "br2 --r 1 --n 3 --seed 7":
        (0, "d77a02020b45a95428bd45252ae59b7a7dfcb6ed00be79424d27f4d8a81b8e86"),
    "br2 --r 3 --n 2 --seed 0":
        (0, "25ffac925e77677e79e6ebbd9e02a4ae0501cbbbda7b8ba32ed33fa5b692fd74"),
    "br2 --r 3 --n 2 --seed 7":
        (0, "25ffac925e77677e79e6ebbd9e02a4ae0501cbbbda7b8ba32ed33fa5b692fd74"),
    "br2 --r 3 --n 3 --seed 0":
        (0, "25ffac925e77677e79e6ebbd9e02a4ae0501cbbbda7b8ba32ed33fa5b692fd74"),
    "br2 --r 3 --n 3 --seed 7":
        (0, "25ffac925e77677e79e6ebbd9e02a4ae0501cbbbda7b8ba32ed33fa5b692fd74"),
    "basis --r 1 --n 2 --seed 0":
        (0, "7d40f061d316e19092cb0a5e470ee56f125ae64ec9b5a2bcb36b38d47557bd1a"),
    "basis --r 1 --n 2 --seed 7":
        (0, "7d40f061d316e19092cb0a5e470ee56f125ae64ec9b5a2bcb36b38d47557bd1a"),
    "basis --r 1 --n 3 --seed 0":
        (0, "4bcc0bd65615d5f0a085a4a6ba828f20b19787a28569c347b35c9048434f1acf"),
    "basis --r 1 --n 3 --seed 7":
        (0, "4bcc0bd65615d5f0a085a4a6ba828f20b19787a28569c347b35c9048434f1acf"),
    "basis --r 3 --n 2 --seed 0":
        (0, "7aed888a11c8b20095ba064d428890601e00cf88d8e42b27eadf4a6667c8c98f"),
    "basis --r 3 --n 2 --seed 7":
        (0, "7aed888a11c8b20095ba064d428890601e00cf88d8e42b27eadf4a6667c8c98f"),
    "basis --r 3 --n 3 --seed 0":
        (0, "dc258adc129c399c7f00ebef61dd6d486740673cbe18f468e61b5886a25ed6e7"),
    "basis --r 3 --n 3 --seed 7":
        (0, "dc258adc129c399c7f00ebef61dd6d486740673cbe18f468e61b5886a25ed6e7"),
    "rank --r 1 --n 2 --seed 0":
        (0, "9887e511626db0a483f210530871a26e8de819302389c623fe12eb846b3e3d41"),
    "rank --r 1 --n 2 --seed 7":
        (0, "9887e511626db0a483f210530871a26e8de819302389c623fe12eb846b3e3d41"),
    "rank --r 1 --n 3 --seed 0":
        (0, "1e29192e4dc90aa12e487f690bc8d9dc987ab2215f3cd658e4459e74020dd58d"),
    "rank --r 1 --n 3 --seed 7":
        (0, "1e29192e4dc90aa12e487f690bc8d9dc987ab2215f3cd658e4459e74020dd58d"),
    "rank --r 3 --n 2 --seed 0":
        (0, "f0ed6f4343ae5514825a0b1720ce169117fcd014bbced424f853607d125ad378"),
    "rank --r 3 --n 2 --seed 7":
        (0, "f0ed6f4343ae5514825a0b1720ce169117fcd014bbced424f853607d125ad378"),
    "gram --r 1 --n 2 --seed 0 --ell 0":
        (0, "62a23e533d62a1ee574b7dc5201d10ac0897191a26452f9042f75657f9d7ff12"),
    "gram --r 1 --n 2 --seed 7 --ell 0":
        (0, "5ce4e0e7b0780b3e1321c30df7f2e397a6ef51e78315ec3fa656f086c5af2cd0"),
    "gram --r 1 --n 3 --seed 0 --ell 0":
        (2, None),
    "gram --r 1 --n 3 --seed 7 --ell 0":
        (2, None),
    "gram --r 3 --n 2 --seed 0 --ell 0":
        (0, "9dee535243ed66d4813fc5967d9b1f73a283feae80362064195061dd46b06ed3"),
    "gram --r 3 --n 2 --seed 7 --ell 0":
        (0, "0423a58bfeb3919e5afd11d37c05ba5704814f5b322fd9ef05c3c2a79036bb17"),
    "gram --r 3 --n 3 --seed 0 --ell 0":
        (2, None),
    "gram --r 3 --n 3 --seed 7 --ell 0":
        (2, None),
    "classify --r 1 --n 2 --seed 0":
        (0, "28eb41328dc99b7c0ba02b6ef9e0414fa681ac71791509f35b78b167c3d9517b"),
    "classify --r 1 --n 2 --seed 7":
        (0, "28eb41328dc99b7c0ba02b6ef9e0414fa681ac71791509f35b78b167c3d9517b"),
    "classify --r 1 --n 3 --seed 0":
        (0, "f535e943835c15867ad5dd6d0a95ab09a2e55a1a6c12d7809b68388bc570cbb0"),
    "classify --r 1 --n 3 --seed 7":
        (0, "f535e943835c15867ad5dd6d0a95ab09a2e55a1a6c12d7809b68388bc570cbb0"),
    "classify --r 3 --n 2 --seed 0":
        (0, "f6a9666620051125f0db2d3e9ebe6dac924cca69aae3c69f78bdcddc8c53a435"),
    "classify --r 3 --n 2 --seed 7":
        (0, "f6a9666620051125f0db2d3e9ebe6dac924cca69aae3c69f78bdcddc8c53a435"),
    "classify --r 3 --n 3 --seed 0":
        (0, "cec1a32cc11c0e30d480874c9faadb784bda26ed76dd019ad847da35b24384f8"),
    "classify --r 3 --n 3 --seed 7":
        (0, "cec1a32cc11c0e30d480874c9faadb784bda26ed76dd019ad847da35b24384f8"),
    "identities --r 3 --n 4 --seed 0":
        (0, "3d57621a80b7ff956f417342bbd6828cfc7d007c0929a7082065d843d3aa7fe6"),
    "identities --r 3 --n 4 --seed 7":
        (0, "3d57621a80b7ff956f417342bbd6828cfc7d007c0929a7082065d843d3aa7fe6"),
    "identities --r 5 --n 3 --seed 0":
        (0, "39efd9f2f86e9c228a0e72bbbe85591e8d8f39d52b39f44d5b81513e3d1ddb59"),
    "identities --r 5 --n 3 --seed 7":
        (0, "39efd9f2f86e9c228a0e72bbbe85591e8d8f39d52b39f44d5b81513e3d1ddb59"),
    "omega --r 1 --n 4 --seed 0":
        (0, "0b522c47790f8ccc0a9396817df7bb3c17c6b0fe47690c980d9c8812ab60e235"),
    "omega --r 1 --n 4 --seed 7":
        (0, "5ee4f4e9556169b9b6ad70580bc35be081be210b2d2764b2b4fed02273472a7e"),
    "params --r 5 --n 2 --seed 0":
        (0, "1449109404ded88584bf31f0ab3c04e6e12ad68820df5ec118a43cbf27a7eb65"),
    "params --r 5 --n 2 --seed 7":
        (0, "4c637fecbad97d71d5dc4e19f175433a767d93bebdb058f88c4387d0b952c9cb"),
    "br2 --r 5 --n 2 --seed 0":
        (0, "e17eba4ed1e974de0a8c8900bb8254d3ef5afc5140fa408875080f5393eae956"),
    "br2 --r 5 --n 2 --seed 7":
        (0, "e17eba4ed1e974de0a8c8900bb8254d3ef5afc5140fa408875080f5393eae956"),
    "rep --r 1 --n 4 --seed 0":
        (0, "faa117ff1e3cea20494150041c9e8bfeba2f000d6c6bd4bba41cc942d92139e6"),
    "rep --r 1 --n 4 --seed 7":
        (0, "faa117ff1e3cea20494150041c9e8bfeba2f000d6c6bd4bba41cc942d92139e6"),
    "rep --r 3 --n 1 --seed 0":
        (0, "5e66ee8435cdc9bf5e42eb0f8a315ec101c28dbaf6662d03ba4f9905736b9975"),
    "rep --r 3 --n 1 --seed 7":
        (0, "5e66ee8435cdc9bf5e42eb0f8a315ec101c28dbaf6662d03ba4f9905736b9975"),
    "identities --r 5 --n 4 --seed 0":
        (0, "7e06a82822d23f862b61f2cd6ce1094f77baa573f3e2c71ac1081a782f283385"),
    "identities --r 5 --n 4 --seed 7":
        (0, "7e06a82822d23f862b61f2cd6ce1094f77baa573f3e2c71ac1081a782f283385"),
    "omega --r 3 --n 4 --seed 0":
        (0, "ad0e2ffd9d1a6ed0fe3b2b60f96d44b4c97427cf527a8e80a72415b59a08baf4"),
    "omega --r 3 --n 4 --seed 7":
        (0, "2bd47a50269476d9a5870af38a6c1735cba4f0252c8a35676ef6ecb544bc3de9"),
    "tabs --list --r 3 --n 4 --seed 0":
        (0, "c587ed73543f1e5dedfeefd27e9e1f83ffe9856afd4e73839e89a5afbe445809"),
    "tabs --list --r 3 --n 4 --seed 7":
        (0, "c587ed73543f1e5dedfeefd27e9e1f83ffe9856afd4e73839e89a5afbe445809"),
    "basis --r 5 --n 4 --seed 0":
        (0, "583450c300535a44c1f4349ad687739cc980fbd4e179f001746bb8e11fa8a9f5"),
    "basis --r 5 --n 4 --seed 7":
        (0, "583450c300535a44c1f4349ad687739cc980fbd4e179f001746bb8e11fa8a9f5"),
    "gram --ell 1 --r 1 --n 4 --seed 0":
        (2, None),
    "gram --ell 1 --r 1 --n 4 --seed 7":
        (2, None),
    "gram --ell 1 --r 3 --n 4 --seed 0":
        (0, "b9ce43112859924414c9934cced4fb40ae3e556d4b227298f0b687a94543593d"),
    "gram --ell 1 --r 3 --n 4 --seed 7":
        (0, "ca838cc77c63eda0e3d8c99411eba74c74f28ba15f54b835088590278691102f"),
    "gram --ell 0 --r 1 --n 4 --seed 0":
        (0, "fd5e7e3bab6e235a7d40e98e65f2450eb887c73745b673f49a0dfc1cb2ef5c3c"),
    "gram --ell 0 --r 1 --n 4 --seed 7":
        (0, "949282a1d480684c0337b699262b8ea8b963d8761d4081ec7fa0417a67b3a182"),
}

GOLDEN_EXTENDED = {
    "identities --r 3 --n 5 --seed 0":
        (0, "8b904bf4ff6f718a7fcb43d55c3f02d3834aa4e491c531034229a274597d5819"),
    "identities --r 3 --n 5 --seed 7":
        (0, "8b904bf4ff6f718a7fcb43d55c3f02d3834aa4e491c531034229a274597d5819"),
    "omega --r 3 --n 5 --seed 0":
        (0, "121d7a3616b81b06d7225694c5ee82c2557ea71e823750266bd09c223b56aa00"),
    "omega --r 3 --n 5 --seed 7":
        (0, "5510348552ab72cc239791bfcbe6c3b2a4de709707ab56f6e20230e99de890dd"),
    "omega --r 5 --n 4 --seed 0":
        (0, "e078d76c9b4035c32ec599646e49352b89b8e229038bf2fca2ea4cacf31caf6f"),
    "omega --r 5 --n 4 --seed 7":
        (0, "5cd2bb9c0741c7b9aabe44ad7ae88d6efceaec450385ce6aa32fdfbaeaf07677"),
}


@pytest.mark.parametrize("case", list(_grid()))
def test_cli_output_pinned(case):
    assert _run(case) == GOLDEN[case]


@pytest.mark.skipif(not os.environ.get("BMW_EXTENDED"),
                    reason="extended identities and omega runs; set BMW_EXTENDED=1 to enable")
@pytest.mark.parametrize("case", list(_extended()))
def test_cli_output_pinned_extended(case):
    assert _run(case) == GOLDEN_EXTENDED[case]


if __name__ == "__main__":
    for case in _grid():
        print(f"    {case!r}:\n        {_run(case)!r},")
