"""Golden output: the sha256 of stdout for every subcommand in every format.

Each case runs the CLI at N=40 and compares the digest of its stdout with
the pinned value, so any change to a count, a series or the formatting shows
as a failure.  When an output change is intended, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and replace GOLDEN with it.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations_with_replacement

import pytest

from pillowcase import cli
from pillowcase.qseries import QSeries

N = "40"
FORMATS = ("pretty", "csv", "json")

COMMANDS = (
    [["sublattices", "--degree", N]]
    + [["series", "--which", which, "--max-degree", N] for which in cli.SERIES_BUILDERS]
    + [
        ["correlators", "--insertions", ",".join(map(str, ins)), "--max-degree", N]
        for ins in combinations_with_replacement(range(1, 5), 4)
    ]
    + [["potential", "--max-degree", N], ["potential", "--max-degree", N, "--compare-st"]]
    + [["verify", "--suite", "all", "--max-degree", N]]
)

CASES = [" ".join(argv + ["--format", fmt]) for argv in COMMANDS for fmt in FORMATS]


def _stdout(case: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(case.split())
    assert code == 0, case
    return buf.getvalue()


def _digest(case: str) -> str:
    return hashlib.sha256(_stdout(case).encode()).hexdigest()


GOLDEN = {
    'sublattices --degree 40 --format pretty': 'b26ed028270ba2864a1ccd43ef93af389cfee8e413ee41fc4cbd8abdd3a82baf',
    'sublattices --degree 40 --format csv': '518edf86c3b5a282076e6f376897b8c58dd555b4233d1b62c8186c96e841931e',
    'sublattices --degree 40 --format json': 'b528959112c376650a6ed8415330e132f86d7beb5ff8ddbffb3f03fdb2204af5',
    'series --which f --max-degree 40 --format pretty': '8e4dbae57606f4e586f767687b0e1455e641d00dbdaa53a6d7a1c56115381791',
    'series --which f --max-degree 40 --format csv': '71715b4b5857b606fe5d6274b7d13b5b1cac78084338ce395287dcc74da74b6f',
    'series --which f --max-degree 40 --format json': '115ded9e72c8b64a535c9245f32704c2789e9039698b53778d4dfd3a31d36b69',
    'series --which f0 --max-degree 40 --format pretty': 'cf926f21183630c0fb1d902ac489836d841490fe6086a0cdfb2a1d263dd381dc',
    'series --which f0 --max-degree 40 --format csv': '922179b0f92f327ed0bf509eb8466180ac5e7681a6bffac2b40486124585ff88',
    'series --which f0 --max-degree 40 --format json': '085a2fcd104a7ed112490c1313743ccc15e7381eb3669c177a183ea45ffd2127',
    'series --which f1 --max-degree 40 --format pretty': '1e2d3f95d27afb2a85c8edf666f1728dc8a6157b27d21570307435105a96069b',
    'series --which f1 --max-degree 40 --format csv': '65038739c6f66c00cabcc04467806b7391b00f7a3b269035dd5ed885d0ab4063',
    'series --which f1 --max-degree 40 --format json': '7e0be50c8efc4ff486dfcd61a606b5e719c75b4f9c10d63ef69b958208e9db2b',
    'series --which f2 --max-degree 40 --format pretty': '11093085b82999148e95f64226823b6b2b1c638fc52253680203ba431ae6d7d9',
    'series --which f2 --max-degree 40 --format csv': '8b1e30d1835d33fec9b4cac24c5dc5beaf259822bd3733f00ce0823876a5e265',
    'series --which f2 --max-degree 40 --format json': '7ea99f3b07d4d41cdc329c7b5f5504710a923b1fb697702dd2879859eaf5ef3b',
    'series --which Dodd --max-degree 40 --format pretty': 'cb6161135edf771932ea5de8fad3642c9f9efb824c6528d6ddb4c39462d2c997',
    'series --which Dodd --max-degree 40 --format csv': '922179b0f92f327ed0bf509eb8466180ac5e7681a6bffac2b40486124585ff88',
    'series --which Dodd --max-degree 40 --format json': '085a2fcd104a7ed112490c1313743ccc15e7381eb3669c177a183ea45ffd2127',
    'series --which Deven --max-degree 40 --format pretty': 'e2513e2f06550210470669a2df442023d05aac36e527d97960b17a4069af4128',
    'series --which Deven --max-degree 40 --format csv': '76cd9e5df1a2b6a743b746a17ecbf1064b9f55a20ab91199b3a7a3c5f15a11ac',
    'series --which Deven --max-degree 40 --format json': '035c9d27025852938fb9bd803e658af4f708c0802a0e16532bcec50f99b9e0ed',
    'series --which D4 --max-degree 40 --format pretty': 'e02b5db424f87e5c00ec67b2628151c3b744bd8f0e862dd7dcd058fc2c869b0a',
    'series --which D4 --max-degree 40 --format csv': '8b8f45f30134467cd6a24a757f0dcdf260e6a03c9f10ba660447b3e40e4ae543',
    'series --which D4 --max-degree 40 --format json': '24a628c5329dd70ab352eec48b91ac9f998f350138f07210a17932c204042c24',
    'correlators --insertions 1,1,1,1 --max-degree 40 --format pretty': '73ee31d3851069dbea4f557897e4c609c67aa5c21f87d0208c7d5813add2439c',
    'correlators --insertions 1,1,1,1 --max-degree 40 --format csv': '87340912aa8cb26400456a1d332690813273963e7d11cd4b3ef6255055929781',
    'correlators --insertions 1,1,1,1 --max-degree 40 --format json': '843895ccec1b7d150685cc341e63f957029f37c426a05763fcbf9ba59e9f2a44',
    'correlators --insertions 1,1,1,2 --max-degree 40 --format pretty': '979d10b534bfeae4f90bf11fd8a178a140515853b77af305a3f366e818c5f808',
    'correlators --insertions 1,1,1,2 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,1,2 --max-degree 40 --format json': '50f2d5c97ec13ed432e7933adc4a69621b83028cfd4e29745d51c48092910f3f',
    'correlators --insertions 1,1,1,3 --max-degree 40 --format pretty': '88963965a5f075da2ae4d7c487a7e0b32e55431babedde6ca3293edbfa4ebaab',
    'correlators --insertions 1,1,1,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,1,3 --max-degree 40 --format json': '5e201d978fe2a5027eeb84180555f48044dc0e0aa797083dc50a7bf9ffbbdf40',
    'correlators --insertions 1,1,1,4 --max-degree 40 --format pretty': 'c0d4f1d5c6fb22601db3f6b80d8ba246ca8bab0bff62194da448bfb1ca0da938',
    'correlators --insertions 1,1,1,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,1,4 --max-degree 40 --format json': '57b4b6aacfa878183ee83a4c17b81f4fd6d74008ab3242b91bc0a8a837e87bc2',
    'correlators --insertions 1,1,2,2 --max-degree 40 --format pretty': 'dce771b9b12a60e7f6e0d9a92a909b2d9cb43fc6935602b2d2f204be39303fdf',
    'correlators --insertions 1,1,2,2 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 1,1,2,2 --max-degree 40 --format json': '224112e0fde9f973ba448c367b36cb268f6765eee0486ceb88520ac9db07aecf',
    'correlators --insertions 1,1,2,3 --max-degree 40 --format pretty': '20fc223ea5dbec18430046aa2ae68e05a9276ef08292ee8292de16aea223f9e1',
    'correlators --insertions 1,1,2,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,2,3 --max-degree 40 --format json': '666ba0bc362e0501a45380d78865969776755b7499d86f627a2c9b310c6f9912',
    'correlators --insertions 1,1,2,4 --max-degree 40 --format pretty': '35190eee5931ecfc0018bd492d3b7f92988c0dccdbd28cdf50be1175d9d2af61',
    'correlators --insertions 1,1,2,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,2,4 --max-degree 40 --format json': '7da655dd49476d89c71fdaa14271e99084c96e0eb49aba2b6ecd65d1af26522e',
    'correlators --insertions 1,1,3,3 --max-degree 40 --format pretty': 'f3ad1c6b3525b506e169858f042950c5d1407004fbb0e3298769732e39602fc1',
    'correlators --insertions 1,1,3,3 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 1,1,3,3 --max-degree 40 --format json': 'c80f61d661d5843fafa2e5dd45650abd9166dd868b58bfc6f610eeb933e52a30',
    'correlators --insertions 1,1,3,4 --max-degree 40 --format pretty': 'f82870973d03380ed3a8b6d0a1619b22cf2fba2cd3a98886d05cf8a26954fa94',
    'correlators --insertions 1,1,3,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,1,3,4 --max-degree 40 --format json': '19b6ff46b63f02d18e271abd19e00b15a65f116064b74d7472fde99c35846ad7',
    'correlators --insertions 1,1,4,4 --max-degree 40 --format pretty': '0defce830f42c6d1956965feea09a6e9c769366342f83b54b2e8abbc3dfab71f',
    'correlators --insertions 1,1,4,4 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 1,1,4,4 --max-degree 40 --format json': '2fc60faed8a4c9d505307df46d960119703c253a5483abca3bc73a4ae5f343ef',
    'correlators --insertions 1,2,2,2 --max-degree 40 --format pretty': 'fa6c4c22f88c1485e2dbba9ea1514ffd0b2e1d3fb75eb79c8830768efe4a874f',
    'correlators --insertions 1,2,2,2 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,2,2,2 --max-degree 40 --format json': '2c6252674939a82c6ddc5df484b33efd6493857114669c89f93b2f383c9aa2e4',
    'correlators --insertions 1,2,2,3 --max-degree 40 --format pretty': 'bdd431c8040244385d6484be8666b48d24c53ea90d5a86291a08c9c9e03b7775',
    'correlators --insertions 1,2,2,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,2,2,3 --max-degree 40 --format json': '217d352e5b4a77dd872e68ee7e5f5c182fe9c63ea0691e8be6a45dd1259e9e15',
    'correlators --insertions 1,2,2,4 --max-degree 40 --format pretty': 'c60fe1ca780b3bc8ed73fa292c29483f149d6b487f632e0ef1b5e0f93b01fd70',
    'correlators --insertions 1,2,2,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,2,2,4 --max-degree 40 --format json': 'a4e8197a71dbb169499876c6b6e76945746739ca1edc98ad07168f48e3c403ff',
    'correlators --insertions 1,2,3,3 --max-degree 40 --format pretty': '7296f435f2345fc954e65dcf57411efd610aa41f7cf307279e5a2549aaf41a8e',
    'correlators --insertions 1,2,3,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,2,3,3 --max-degree 40 --format json': '0747079151c31d96b899d57dbc89cfbc6ac87b7f25abe7782fc529af83d3896f',
    'correlators --insertions 1,2,3,4 --max-degree 40 --format pretty': '21ba183d06a769a15907aae88e1faeff726737b3f4a5bb488c4f044daaf18fb0',
    'correlators --insertions 1,2,3,4 --max-degree 40 --format csv': 'ecc3d02950eb06adb42b8b72cc49b039c6bc045194e494d8e204bf322723c52b',
    'correlators --insertions 1,2,3,4 --max-degree 40 --format json': 'd5f7aa0cb90384e3faee5793e15d0623f9efa1c3c17ef60b2c699d47a3474a95',
    'correlators --insertions 1,2,4,4 --max-degree 40 --format pretty': '964716d815a2e1930a206c33102e75e66224daf4ea44b1ead6e359ebcb2fb12d',
    'correlators --insertions 1,2,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,2,4,4 --max-degree 40 --format json': '8414e3093fb7a1dd94b214de4204d681b9b0c8e99da8e63b8d471bab20d10114',
    'correlators --insertions 1,3,3,3 --max-degree 40 --format pretty': '20fbebbcd1b6583ffba666484db11144a26cca4d5d9e417c78df1b362cabaca4',
    'correlators --insertions 1,3,3,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,3,3,3 --max-degree 40 --format json': 'e67cf769f7332949a807b91d3a2bde7673538608d907b70a03428ace9e23a06a',
    'correlators --insertions 1,3,3,4 --max-degree 40 --format pretty': 'c26dd153fc7c5c2a7d53446946dd2a671e4ac5a01138e4a065f5c3b6fb2cc073',
    'correlators --insertions 1,3,3,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,3,3,4 --max-degree 40 --format json': '3af4cfa76a80e1d2cacade09ddb0df6f355f9c34252261e9f049d517fbc94d51',
    'correlators --insertions 1,3,4,4 --max-degree 40 --format pretty': 'd1d3bbd76da3443b909342b6bce6956da0693748c299a8c75491ba6a81cde36a',
    'correlators --insertions 1,3,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,3,4,4 --max-degree 40 --format json': '3dc5a8a57a0f46d3f073c84e72629d29a934984f1e47e0265490a11c7cb77e97',
    'correlators --insertions 1,4,4,4 --max-degree 40 --format pretty': '6283c77179ddb527e6390af4f8f54ff53ae49e856b150a7e8b0a9bd9af4e5090',
    'correlators --insertions 1,4,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 1,4,4,4 --max-degree 40 --format json': '931c3f46a740ef0fe5f5c3e4f4ea1856ddadd1c016fa39a46117ff02bc9c572a',
    'correlators --insertions 2,2,2,2 --max-degree 40 --format pretty': 'beb755b9c9dc654b2a8a3231cad6729c1dcd8a464dd9ab29147a5ac350b1aab5',
    'correlators --insertions 2,2,2,2 --max-degree 40 --format csv': '87340912aa8cb26400456a1d332690813273963e7d11cd4b3ef6255055929781',
    'correlators --insertions 2,2,2,2 --max-degree 40 --format json': '02472ee28f754f9060cf18397ad6b20f12e5190be89ca24bb56821f5f6cee0ca',
    'correlators --insertions 2,2,2,3 --max-degree 40 --format pretty': '4789825739738bcd1352b1bfa58e39ed8eb4975464bac69d04381c99ea8c0a7a',
    'correlators --insertions 2,2,2,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,2,2,3 --max-degree 40 --format json': '814881b5de5b24ad7d1f145d18db7ee96235e6ea8358bee3d6c847639cabea9a',
    'correlators --insertions 2,2,2,4 --max-degree 40 --format pretty': 'b9e836bb53830831ce16cbb693b4e77c0d41140abbde8ebbb27144c8ff747f0d',
    'correlators --insertions 2,2,2,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,2,2,4 --max-degree 40 --format json': '10437ad4007b81f1739da11d478a075c71acf076d30bfa6b85cb5daae4bc4702',
    'correlators --insertions 2,2,3,3 --max-degree 40 --format pretty': '08422e58bca8c788c8531cb2450270c4d79e286710c2a08dcc4d5dce974b8167',
    'correlators --insertions 2,2,3,3 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 2,2,3,3 --max-degree 40 --format json': 'bb9b43678b61f78076904ffc9094e6f253b455c6ab492daecfa3f521aa4cef20',
    'correlators --insertions 2,2,3,4 --max-degree 40 --format pretty': 'e079500ad9731d617be82e752ceee3a0f5a2ddac2b87b33d3d1c25facb458f0f',
    'correlators --insertions 2,2,3,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,2,3,4 --max-degree 40 --format json': 'fa5d8808204b8eca5fd2c14a461b424ac2da96df08c045c11eb4eebab7a9bb2e',
    'correlators --insertions 2,2,4,4 --max-degree 40 --format pretty': 'a34d500bd75ea70afac08a12bed3dd538e75d7e24b14711007b445ae621a652a',
    'correlators --insertions 2,2,4,4 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 2,2,4,4 --max-degree 40 --format json': 'fb90e8213e6979e119555f64c3a668a62bf33dc8eec23188d022881f1d1790a5',
    'correlators --insertions 2,3,3,3 --max-degree 40 --format pretty': 'f93cf75a3ec9a3299e2d150de537f58240090feeff4ac17911b01bd008ea02e2',
    'correlators --insertions 2,3,3,3 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,3,3,3 --max-degree 40 --format json': '50b507a6c65b0aa9a509d0b777c33434f69c8f6e3e13be60795c84d08ffb9294',
    'correlators --insertions 2,3,3,4 --max-degree 40 --format pretty': 'fd26cc10f3342f75581035bc53f240811cd897be3bf78f49dfa7072d8b8ac987',
    'correlators --insertions 2,3,3,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,3,3,4 --max-degree 40 --format json': 'cea15b016c02cac433391e06ecc2de784168853955aef3933c4aea8c9fc558bf',
    'correlators --insertions 2,3,4,4 --max-degree 40 --format pretty': '5b567e3c355be63ce83fb0547fa47673a9de512ef2cc3ab5a9e9299e93929f14',
    'correlators --insertions 2,3,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,3,4,4 --max-degree 40 --format json': 'f200a85daf1bef232bbbed228a1a78afa3edabe9b074d2003603ae8bf9cd5e16',
    'correlators --insertions 2,4,4,4 --max-degree 40 --format pretty': '1b1a7016ebbdb0a4d2d8eb8db65fccfc91e774ee2cd69d8821b75f4cdb12e73c',
    'correlators --insertions 2,4,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 2,4,4,4 --max-degree 40 --format json': 'a970251620a2ce87b3e0c4dedc5ad48cafe40d4e905d6e30bfe6548efaff55e8',
    'correlators --insertions 3,3,3,3 --max-degree 40 --format pretty': 'da6a9084525ce447e3d5ddf025f54e2e66e6400bd3cff3bc5165f8442aaa8f34',
    'correlators --insertions 3,3,3,3 --max-degree 40 --format csv': '87340912aa8cb26400456a1d332690813273963e7d11cd4b3ef6255055929781',
    'correlators --insertions 3,3,3,3 --max-degree 40 --format json': 'ca34ca69812424195b59935a43c4bc89fd9ff7f2f786ec72bd933dbe17a762ad',
    'correlators --insertions 3,3,3,4 --max-degree 40 --format pretty': '639de63ab249253f3672031c972ced15942d2ba2e711438f843f3a9660151c8b',
    'correlators --insertions 3,3,3,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 3,3,3,4 --max-degree 40 --format json': 'b32789aa1c034bf6e4d6c22f1e818ed2f22090dada5ce5158a15b46b89cab577',
    'correlators --insertions 3,3,4,4 --max-degree 40 --format pretty': '52b631e8837580f2d9fb9aa83ac55c4274d360214ca03d31e857ce0d2ea5d05e',
    'correlators --insertions 3,3,4,4 --max-degree 40 --format csv': '434fcd9adda5bdad88ac3df251033276004fde6bf485b7081d5550a1e0ab4c86',
    'correlators --insertions 3,3,4,4 --max-degree 40 --format json': '8b12006b6a5e1f896acd0868089a05babbc08ed4b832cb456ff00f7ae68cfd1e',
    'correlators --insertions 3,4,4,4 --max-degree 40 --format pretty': '3914877f8cb62bcb8542159a0693c9b0e164fe7218bc6dc779c2802b9b7e51a7',
    'correlators --insertions 3,4,4,4 --max-degree 40 --format csv': '1fb6485d6395317092288d8c1f2fe432c546e7b62291c3abfbc861ccf3bcbfd4',
    'correlators --insertions 3,4,4,4 --max-degree 40 --format json': '4bbeb7b2fe3e7bb4a8f64729f95c08a0df0035daf5e8ed1bc28c489e4bed8c1c',
    'correlators --insertions 4,4,4,4 --max-degree 40 --format pretty': '85c03b8818eef92089ec3a3c77c9d224de668b72d7d0a6a0df5308fca8e5f980',
    'correlators --insertions 4,4,4,4 --max-degree 40 --format csv': '87340912aa8cb26400456a1d332690813273963e7d11cd4b3ef6255055929781',
    'correlators --insertions 4,4,4,4 --max-degree 40 --format json': 'a0312aab67ba683c0cdccaad12c7cbd6a4e7fccef6eedeec72830aeef63d0d70',
    'potential --max-degree 40 --format pretty': 'f8023681d4f6d7c31e9a7b2e4ec40101441f4f5053e4c2cfd8af545a7ab4724a',
    'potential --max-degree 40 --format csv': '348202c1f1e862c402a52fbc2a257dbb2f133080afb0c2203fe71f92d7c5ae2b',
    'potential --max-degree 40 --format json': 'bfc5a821121a7e0e46e8d3508606f8a923981e311f4bde7a7ff0173b2b22dfdb',
    'potential --max-degree 40 --compare-st --format pretty': '9160780d5c504b1c6e70039d6782e0de65a7dc60e0eaf55356ff930d2619bc6b',
    'potential --max-degree 40 --compare-st --format csv': '9160780d5c504b1c6e70039d6782e0de65a7dc60e0eaf55356ff930d2619bc6b',
    'potential --max-degree 40 --compare-st --format json': '0cc2be9e99fb43cca91cce3746280af0bdef9ba3884ce11ceee51f1f2a79ee63',
    'verify --suite all --max-degree 40 --format pretty': '387109f0d578c095430cfef74efc360372ac0766fb0125bd88c64327b3ed8eb9',
    'verify --suite all --max-degree 40 --format csv': '04d9d5fd17eccce5f1cc1bd3c8002e14c8cec9347713e0cce310796c69740021',
    'verify --suite all --max-degree 40 --format json': 'feffcc05b02d575825c5ad3de9e8a8317576c5688b11f72c1c758ccd62afa296',
}


@pytest.mark.parametrize("case", CASES)
def test_stdout_is_byte_identical(case):
    assert _digest(case) == GOLDEN[case]


def _coeffs_read(series):
    raise AssertionError("a writer read QSeries.coeffs; print qseries.to_json strings instead")


# Every case that prints a series (verify prints none, --compare-st prints MATCH).
@pytest.mark.parametrize(
    "case", [case for case in CASES if not case.startswith("verify") and "--compare-st" not in case]
)
def test_writers_print_only_to_json_strings(case, monkeypatch):
    monkeypatch.setattr(QSeries, "coeffs", property(_coeffs_read))
    assert _digest(case) == GOLDEN[case]


@pytest.mark.parametrize("case", [case for case in CASES if case.endswith("--format json")])
def test_json_stdout_parses(case):
    json.loads(_stdout(case))


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {_digest(case)!r},")
    print("}")
