"""The exactness contract: the sha256 of every deterministic file of whole CLI sweeps.

``cli.main`` generates Common, Exp1st and Sale1st data at 120 users x 300
items x 8 providers, then sweeps every policy offline and online (300
steps) at alphas {0, 1e-3, 0.1, 1, 1e300} and seeds {0, 1}, at workers 1
and 2. EquityRank's runs at alpha 1e300 overflow their scores on Exp1st
online and on Sale1st in both modes (EquityRankV's too, offline), so
``failures.csv`` is pinned as well. Each sweep's ``results.csv``,
``summary.csv``, ``envelope_*.csv``, ``series/*.csv`` and ``failures.csv``,
and each dataset's files, must match the digests below. ``timings.csv``
holds wall times and ``plan.json`` the output directory, so both are left
out. Workers 1 and 2 must give the same files.

The digests were recorded with numpy 2.4.6 on CPython 3.11.7. Like the
golden runs, they depend on numpy's BLAS and PCG64 stream: on another numpy,
``test_step_draws.py`` and the ``vecdot`` property fail first and point at
the cause. A digest may change only in a change that says why, as
``results.csv`` may.
"""

import hashlib
import json

import numpy as np
import pytest

from equityrank import POLICY_KINDS, cli

SCENARIOS = ("common", "exp1st", "sale1st")
GENERATOR = {"n_users": 120, "n_items": 300, "n_providers": 8, "seed": 0}
PLAN = {"alpha_grid": [0.0, 1e-3, 0.1, 1.0, 1e300], "seeds": [0, 1], "sim": {"total_steps": 300}}
SWEPT = ("results.csv", "summary.csv", "envelope_*.csv", "series/*.csv", "failures.csv")

DIGESTS = {
    "common/data/catalog.csv": "c244691a39be4d1efd20a1c1f75bb2449ff2339d5f9120bdcbc8ef09f65f6dc5",
    "common/data/manifest.json": "5d5b3885e4f1d93d6fec0111690755cf5ac71d8532dd5e53763de3a6e0504de0",
    "common/data/providers.csv": "8b179ddc90eafcd0e62906b7889e131106d66cf4289679b8f3232a77c9dbda15",
    "common/data/relevance.csv": "1d1368abcdd5b8921d31c7193965c64386d0ce18fc4d7a8a53373288ce98017c",
    "common/offline/results.csv": "37763931ade18a1803e478db7d48b1e8c762c1c1c29057aa8f00951a85803b82",
    "common/offline/summary.csv": "3cb9f04755cccef3a6fbe37d8056fdc610725edb8b85a591527220f3aa5f37e0",
    "common/offline/envelope_EquityRank.csv": "00e60a0ecd0d993ba07c766d451277b3a5fe3ac233f4660d6c5a3deea865b473",
    "common/offline/envelope_EquityRankV.csv": "4c1063d3908fb2b8df5c3ebb4b50594666825175a70bc51f0714843edc325ea2",
    "common/offline/envelope_FairCoStar.csv": "daae6ed0e986ebf3d78afc3fdae877893f5738fbcec1376e846f2db599daa1ad",
    "common/offline/envelope_MMFStar.csv": "d05855ec683d69f20aafabda739d311b8e936b127609cd73b18cbbe1d92519b1",
    "common/offline/envelope_PoorK.csv": "977d924497107462c1cba10cf5a1814c7e0db57db6f55524b04f1fa2e236772a",
    "common/offline/envelope_TopK.csv": "52ddd035ce23c50b99f6701a9eabbcc135dfae5d0d26788231edb466887ad9fb",
    "common/online/results.csv": "e597a7aae2ea7870b0f31c02e89a5455deefb97511fd328f6f85e5fad72c52e2",
    "common/online/summary.csv": "497f504ee9f879c9de32e5751ac5797e757710c01f977805a79058e7264f8ae6",
    "common/online/envelope_EquityRank.csv": "8152a09f692141588082f7345d54190c977502419245187454f9fabce11ef513",
    "common/online/envelope_FairCoStar.csv": "bb8fc9f2fac7de5ceb3deba1e79e04d98a9c1a129e5c6a05d8ece46ad0055a18",
    "common/online/envelope_MMFStar.csv": "c15f2e0b7df8e03b7f2fc1200f5fd2dc3f33ab2ea3abceb2550fee463694d818",
    "common/online/envelope_PoorK.csv": "af365f51008b7c61943f053f48af8b67353c4550e72af65e99808aec42a89d85",
    "common/online/envelope_TopK.csv": "59eca938528d37f1b3a986b8539589b615681e062d6a283e4e113c7874f17b1e",
    "common/online/series/EquityRank_a0.001_s0.csv": "69ddc1102da07e1ecb0893761d018ed08f0dc92c3698b3abcccb26554faf43f0",
    "common/online/series/EquityRank_a0.001_s1.csv": "7c47ee8e843bd1ba76028adfb4f13e0f3732e4455600fafb06f07ef1af3a5875",
    "common/online/series/EquityRank_a0.0_s0.csv": "05af7aa50a7bc052abc441bad8f1aaf8b332c76edc6a91a9b296810e0188d897",
    "common/online/series/EquityRank_a0.0_s1.csv": "60457a4dbb7bf09c320ffd83f5777ed87eb59dd747ea646ce9261b788e3c94c3",
    "common/online/series/EquityRank_a0.1_s0.csv": "69ddc1102da07e1ecb0893761d018ed08f0dc92c3698b3abcccb26554faf43f0",
    "common/online/series/EquityRank_a0.1_s1.csv": "2788dbaa80dd9ceccf244711474b3ed5f1dc44bc60cb6f198e1b53ab06ad171f",
    "common/online/series/EquityRank_a1.0_s0.csv": "69ddc1102da07e1ecb0893761d018ed08f0dc92c3698b3abcccb26554faf43f0",
    "common/online/series/EquityRank_a1.0_s1.csv": "2788dbaa80dd9ceccf244711474b3ed5f1dc44bc60cb6f198e1b53ab06ad171f",
    "common/online/series/EquityRank_a1e+300_s0.csv": "69ddc1102da07e1ecb0893761d018ed08f0dc92c3698b3abcccb26554faf43f0",
    "common/online/series/EquityRank_a1e+300_s1.csv": "2788dbaa80dd9ceccf244711474b3ed5f1dc44bc60cb6f198e1b53ab06ad171f",
    "common/online/series/FairCoStar_a0.001_s0.csv": "0b1b9273de8def2499d19595faed70fc6e3e2dd597d2af7eea8c2d07975d6811",
    "common/online/series/FairCoStar_a0.001_s1.csv": "f0ddf8ef7f35264f542321cac37060d7e95de7e340cbbd90e883d0d975772cde",
    "common/online/series/FairCoStar_a0.0_s0.csv": "05af7aa50a7bc052abc441bad8f1aaf8b332c76edc6a91a9b296810e0188d897",
    "common/online/series/FairCoStar_a0.0_s1.csv": "60457a4dbb7bf09c320ffd83f5777ed87eb59dd747ea646ce9261b788e3c94c3",
    "common/online/series/FairCoStar_a0.1_s0.csv": "18a4922b7bb9a2ee89d1124cc75a95ebaf95b99fa279b67423655ab16b0d2a2f",
    "common/online/series/FairCoStar_a0.1_s1.csv": "642d7f945567485436b6a0c358c4e22d7074c5512887e6989991c4058ba4f4bf",
    "common/online/series/FairCoStar_a1.0_s0.csv": "3206cbec7c1f50530f590a801bd11957eb0f10dab83af2c666740a9de5de52e2",
    "common/online/series/FairCoStar_a1.0_s1.csv": "7fffefbfb5078337b9760ee2b1d86e02095c76a08fd5ca8e403a60d107048e01",
    "common/online/series/FairCoStar_a1e+300_s0.csv": "2973cd9c529934fa5a808cf9e2eaaf9db5e6f120faad3c077655494b2adadac0",
    "common/online/series/FairCoStar_a1e+300_s1.csv": "a20a9c23eeb54be074accc67114632c5ae0f3ea86bf9e99353bc537a9e0ba20b",
    "common/online/series/MMFStar_a0.001_s0.csv": "f849f7f19701f1a32f53cac5b7935005b4359eb66da4b3d69f6a6979ab96bc40",
    "common/online/series/MMFStar_a0.001_s1.csv": "d9fa8279d9a70a331884ad78639b93a7375878c84104c22b4d0dd7be3a1d2522",
    "common/online/series/MMFStar_a0.0_s0.csv": "05af7aa50a7bc052abc441bad8f1aaf8b332c76edc6a91a9b296810e0188d897",
    "common/online/series/MMFStar_a0.0_s1.csv": "60457a4dbb7bf09c320ffd83f5777ed87eb59dd747ea646ce9261b788e3c94c3",
    "common/online/series/MMFStar_a0.1_s0.csv": "736dc7e2392efeab480df845603d5c5e7cb01508ebf8f0f319b5aef8788ec020",
    "common/online/series/MMFStar_a0.1_s1.csv": "d9fa8279d9a70a331884ad78639b93a7375878c84104c22b4d0dd7be3a1d2522",
    "common/online/series/MMFStar_a1.0_s0.csv": "c30f12a88284c077998ee70da7736346beac3072271ba63d1f11a9665cbfaa81",
    "common/online/series/MMFStar_a1.0_s1.csv": "6eb9185d20f3f42fbf474708da41558526a91b7564ac912472f2206763ebed87",
    "common/online/series/PoorK_a0.0_s0.csv": "c30f12a88284c077998ee70da7736346beac3072271ba63d1f11a9665cbfaa81",
    "common/online/series/PoorK_a0.0_s1.csv": "6eb9185d20f3f42fbf474708da41558526a91b7564ac912472f2206763ebed87",
    "common/online/series/TopK_a0.0_s0.csv": "05af7aa50a7bc052abc441bad8f1aaf8b332c76edc6a91a9b296810e0188d897",
    "common/online/series/TopK_a0.0_s1.csv": "60457a4dbb7bf09c320ffd83f5777ed87eb59dd747ea646ce9261b788e3c94c3",
    "exp1st/data/catalog.csv": "c244691a39be4d1efd20a1c1f75bb2449ff2339d5f9120bdcbc8ef09f65f6dc5",
    "exp1st/data/manifest.json": "5bfea6298b7c7ac16dde4068ed829975409a0848ba191f4798d897b0401a1fe1",
    "exp1st/data/providers.csv": "1e406c510e207e64c7d133ef7007aba928f89641a8a6e90be9e8965a86efa6ec",
    "exp1st/data/relevance.csv": "1d1368abcdd5b8921d31c7193965c64386d0ce18fc4d7a8a53373288ce98017c",
    "exp1st/offline/results.csv": "61aab75119ef349c534ec68bd7241a930c847b18aae52db628638df55ae1efce",
    "exp1st/offline/summary.csv": "3c8d0a1db7e0686f1176dec829a181fb8da38b76ac5b003adf9b183bfc06f7bf",
    "exp1st/offline/envelope_EquityRank.csv": "18ba54b1d500e4358865fc3da4039f13c65c3894d19299e8e73e7e8f01d0d266",
    "exp1st/offline/envelope_EquityRankV.csv": "bb79e30311e69dfcdc376452474649e681bc1de2a2074b282c73623478d56591",
    "exp1st/offline/envelope_FairCoStar.csv": "55b43cd103e103043655319b8f0f13cab9b87de32489fbd38757eb544b1b4bbe",
    "exp1st/offline/envelope_MMFStar.csv": "cffd4cf82caa9361ece30f2b143abe25a7af9308a1c6d7008a958a7dac8d2e60",
    "exp1st/offline/envelope_PoorK.csv": "e6cd676ad7d8e100d4269b411b14bde1bf34cd7b636d6adf81b2e8148cd554a1",
    "exp1st/offline/envelope_TopK.csv": "766947978cbc3b9ff92f8b40f78821ff34714900013b21c0a61df92436cfcc20",
    "exp1st/online/results.csv": "178de1d274401b06542feb5950178303ad3b310ab20edc898b0db3875e94fbf4",
    "exp1st/online/summary.csv": "ca09168363106d896b584ae5b03a2832301dfcf0ca37e6d3fa469f220a079f92",
    "exp1st/online/envelope_EquityRank.csv": "af686ea3f87732d4a971a7e938415ee096dde78324c9ab24864bae029a91f552",
    "exp1st/online/envelope_FairCoStar.csv": "1bc80f4026151bf21da9be4cc8fa1b873520e4ad21165c2e0130f365fa3fcbf4",
    "exp1st/online/envelope_MMFStar.csv": "ce87588b2be4db4bc0ad7009b626df013e17abbf5afaef10a7d2e061b1aeb405",
    "exp1st/online/envelope_PoorK.csv": "9312313352ee32adc57f93b4fd01e8af1745a21b7e5a03fc7e2cc5c8ecb10da9",
    "exp1st/online/envelope_TopK.csv": "59eecae0a5faab3000ca240327493aa0387ffbebe232a2b1b3dfc4a25974cb71",
    "exp1st/online/series/EquityRank_a0.001_s0.csv": "cc621c0080081a1dbdc9520904def160d64d083f1d1011d686647c75a55034a3",
    "exp1st/online/series/EquityRank_a0.001_s1.csv": "98172dc16d521e8a96c8fed575db34599b4fdc3f859b473dbba2aa1ff77d9239",
    "exp1st/online/series/EquityRank_a0.0_s0.csv": "e941802a081ff681199851ae5ed077faeee01b286957a59804a8c795c4a40509",
    "exp1st/online/series/EquityRank_a0.0_s1.csv": "30811017af9691abfe924a8ebc6407e8c8ce82700295e590049854da3be09726",
    "exp1st/online/series/EquityRank_a0.1_s0.csv": "cc621c0080081a1dbdc9520904def160d64d083f1d1011d686647c75a55034a3",
    "exp1st/online/series/EquityRank_a0.1_s1.csv": "98172dc16d521e8a96c8fed575db34599b4fdc3f859b473dbba2aa1ff77d9239",
    "exp1st/online/series/EquityRank_a1.0_s0.csv": "cc621c0080081a1dbdc9520904def160d64d083f1d1011d686647c75a55034a3",
    "exp1st/online/series/EquityRank_a1.0_s1.csv": "98172dc16d521e8a96c8fed575db34599b4fdc3f859b473dbba2aa1ff77d9239",
    "exp1st/online/series/FairCoStar_a0.001_s0.csv": "f84ca47e6524034555c91f6645c3a9f44fde13ae5c4b7b71f10fb4169c83aabf",
    "exp1st/online/series/FairCoStar_a0.001_s1.csv": "f5043fc0e5d7ab400c2d7c24e46e050a52f2a91ffece6b1f5cf9a5ca5f89554d",
    "exp1st/online/series/FairCoStar_a0.0_s0.csv": "e941802a081ff681199851ae5ed077faeee01b286957a59804a8c795c4a40509",
    "exp1st/online/series/FairCoStar_a0.0_s1.csv": "30811017af9691abfe924a8ebc6407e8c8ce82700295e590049854da3be09726",
    "exp1st/online/series/FairCoStar_a0.1_s0.csv": "fed1f63efbb7447f44fa5c752cf4473c1ebe6c5e694ce83fe52078d286db9701",
    "exp1st/online/series/FairCoStar_a0.1_s1.csv": "768033713e976b2b6ba5f109a1b12277e45a42153e4426a228e243b868163945",
    "exp1st/online/series/FairCoStar_a1.0_s0.csv": "6618af1d945fc1075452ed6ac748c38c331970e4ed8b2f34d7f68d217851153a",
    "exp1st/online/series/FairCoStar_a1.0_s1.csv": "6f821368a7e31e63810a70d75450ed483f3dd001d67a14fe4c612d24be19cb4a",
    "exp1st/online/series/FairCoStar_a1e+300_s0.csv": "d772f7760e0699a27403a8b45d95b35b31ae08833ba1b5429ad24e9241107256",
    "exp1st/online/series/FairCoStar_a1e+300_s1.csv": "23a60101cf8cb9311bbc7880bbd6964156f8b80d9048154ee82118ded0bb5511",
    "exp1st/online/series/MMFStar_a0.001_s0.csv": "24a3af4cf05e7995b9b672b342931ea96de4902945844d913e3ba8dd6cdbbdc3",
    "exp1st/online/series/MMFStar_a0.001_s1.csv": "70971e99e84ae189f9dcc103c903559da3b569a533aeb4d85e52883bc49f2ace",
    "exp1st/online/series/MMFStar_a0.0_s0.csv": "e941802a081ff681199851ae5ed077faeee01b286957a59804a8c795c4a40509",
    "exp1st/online/series/MMFStar_a0.0_s1.csv": "30811017af9691abfe924a8ebc6407e8c8ce82700295e590049854da3be09726",
    "exp1st/online/series/MMFStar_a0.1_s0.csv": "24a3af4cf05e7995b9b672b342931ea96de4902945844d913e3ba8dd6cdbbdc3",
    "exp1st/online/series/MMFStar_a0.1_s1.csv": "821eb27d6479febedf18df88b6931ca2d3d7f59ed7975c418a611b828916d7ec",
    "exp1st/online/series/MMFStar_a1.0_s0.csv": "d03d61402f94f59157e02d6ba0162dbb84aa9f1ee8e4db847ae7dcba8cdaa461",
    "exp1st/online/series/MMFStar_a1.0_s1.csv": "dc7faecfd70d9a2ea92d2c1e25ba90a38585ecc8b21772591023d97771ddcdad",
    "exp1st/online/series/PoorK_a0.0_s0.csv": "d03d61402f94f59157e02d6ba0162dbb84aa9f1ee8e4db847ae7dcba8cdaa461",
    "exp1st/online/series/PoorK_a0.0_s1.csv": "dc7faecfd70d9a2ea92d2c1e25ba90a38585ecc8b21772591023d97771ddcdad",
    "exp1st/online/series/TopK_a0.0_s0.csv": "e941802a081ff681199851ae5ed077faeee01b286957a59804a8c795c4a40509",
    "exp1st/online/series/TopK_a0.0_s1.csv": "30811017af9691abfe924a8ebc6407e8c8ce82700295e590049854da3be09726",
    "exp1st/online/failures.csv": "9e2c0cb3e0840afcf11cdcb7319cdf0fc3d3466b4ee43d25b25d862390f93c56",
    "sale1st/data/catalog.csv": "c244691a39be4d1efd20a1c1f75bb2449ff2339d5f9120bdcbc8ef09f65f6dc5",
    "sale1st/data/manifest.json": "4d3698588341e98812486c69697a21acba7f9edd5cd1a01d9259b4e4c20dc420",
    "sale1st/data/providers.csv": "39e4059e6bc3a0a5b718ac759b032160091fdef65f23f141dd3cfeb2971c9f43",
    "sale1st/data/relevance.csv": "1d1368abcdd5b8921d31c7193965c64386d0ce18fc4d7a8a53373288ce98017c",
    "sale1st/offline/results.csv": "4660e10e5855525a2c6f182998ad170b31ec1e11e5c37cf19d3de7d9c0fed02a",
    "sale1st/offline/summary.csv": "ee94a0b385d94a5db94d427d0ab08d4f808aba0fe5a3a413f2303ef3b9c65421",
    "sale1st/offline/envelope_EquityRank.csv": "0fde455f881d1ad32e7470943353ff9b99efc29eeccba783724a65c7a26c2952",
    "sale1st/offline/envelope_EquityRankV.csv": "58b554fbaf331ee911a33706785a8dedbb14c38257398b346051e66793b4a508",
    "sale1st/offline/envelope_FairCoStar.csv": "bb5f0fb3d3ace68de14b9a492a5d7f5432bfef16d57f4adec39fcc5bcbe04e5c",
    "sale1st/offline/envelope_MMFStar.csv": "3d3551f5ce5233c13171b556fc4bfa68c1c625cc485756d2e18b278469170df9",
    "sale1st/offline/envelope_PoorK.csv": "192e6ca3156827c639e95312b48347d30af4a9e58388980a9197819b80887c76",
    "sale1st/offline/envelope_TopK.csv": "78457d740532ce6bc5a44d3b0e2cf1522e30412b0aac14f78c7f7002390c1efe",
    "sale1st/offline/failures.csv": "3c3ffb6236e5d97ba7f7cabfc1dbc7a703ba046eba31299ca8d1d57822e81d97",
    "sale1st/online/results.csv": "5deaa2038b28f26d55e0552aba8608ae8e22197f5fe9d1b5ccd26e48f579c62f",
    "sale1st/online/summary.csv": "2ed3d31be05830f8583209a510e221c6157715e69693ae87f2d5a4c71a2562c4",
    "sale1st/online/envelope_EquityRank.csv": "178ba28465564fbf4b108b98c10de2e417f33fd588b2ae3b6a418219f7b68a36",
    "sale1st/online/envelope_FairCoStar.csv": "b4344e9ab5f7241749e7444860185086ea2865da29528df0a639db82f5f853b1",
    "sale1st/online/envelope_MMFStar.csv": "20e0cb655ad34d6cef821d085aa6c1e662b0744a2d400c2531df1a644bfe4c3a",
    "sale1st/online/envelope_PoorK.csv": "642d48f33d67a6ebbbab136658308bb1c3b6ef545e0c3eea9a8a793046422198",
    "sale1st/online/envelope_TopK.csv": "3a2d145db69dbd47fe03a64cad3f3b8d8644573093ee674caa7b53641f0a6431",
    "sale1st/online/series/EquityRank_a0.001_s0.csv": "31938270196e0e3559897f4609075fbe6b0402518c741a0eeede4be3ef140582",
    "sale1st/online/series/EquityRank_a0.001_s1.csv": "b1864b067c6647ecec0aea3d2aa37d5b8759c7b35f9ced92eafa01a709aeebf5",
    "sale1st/online/series/EquityRank_a0.0_s0.csv": "dba7f7463433faa8b9d8b0e5e4c91d27b3818b7697cbdccecd83d66f81286ee3",
    "sale1st/online/series/EquityRank_a0.0_s1.csv": "4cfdfa4e4354b9ca1a5b5a0dbc34aa258ebdb1860592a40f4759f2b3618e55a2",
    "sale1st/online/series/EquityRank_a0.1_s0.csv": "31938270196e0e3559897f4609075fbe6b0402518c741a0eeede4be3ef140582",
    "sale1st/online/series/EquityRank_a0.1_s1.csv": "b1864b067c6647ecec0aea3d2aa37d5b8759c7b35f9ced92eafa01a709aeebf5",
    "sale1st/online/series/EquityRank_a1.0_s0.csv": "31938270196e0e3559897f4609075fbe6b0402518c741a0eeede4be3ef140582",
    "sale1st/online/series/EquityRank_a1.0_s1.csv": "b1864b067c6647ecec0aea3d2aa37d5b8759c7b35f9ced92eafa01a709aeebf5",
    "sale1st/online/series/FairCoStar_a0.001_s0.csv": "0396693ee9523245e78287bb388af2e5e7fcb2084a26009d41cd0d504850a471",
    "sale1st/online/series/FairCoStar_a0.001_s1.csv": "391247746fba82d8cf210a8b46824ac9fc8e87b484658ee2d1bea59faacc5760",
    "sale1st/online/series/FairCoStar_a0.0_s0.csv": "dba7f7463433faa8b9d8b0e5e4c91d27b3818b7697cbdccecd83d66f81286ee3",
    "sale1st/online/series/FairCoStar_a0.0_s1.csv": "4cfdfa4e4354b9ca1a5b5a0dbc34aa258ebdb1860592a40f4759f2b3618e55a2",
    "sale1st/online/series/FairCoStar_a0.1_s0.csv": "fbddb1ab77b5085bf60c038cab22bf48c0d8efb11613aa6493309c9c97f36c5b",
    "sale1st/online/series/FairCoStar_a0.1_s1.csv": "1908e2a665156c9317f39f428c92c2202ef1d10be2391b937a342c32fa18790e",
    "sale1st/online/series/FairCoStar_a1.0_s0.csv": "9b87639a9aee0fac19f8727c34bf65f8012d35f6e56a43ca0c9963ae1f51f256",
    "sale1st/online/series/FairCoStar_a1.0_s1.csv": "602d3732028b10b3c93337f2928420acebc39a9c3feb197177f5224369fd1134",
    "sale1st/online/series/FairCoStar_a1e+300_s0.csv": "97b057e428ca3a88c95404d5800dba05a7b8435cdf5bd918338b7c92510d811c",
    "sale1st/online/series/FairCoStar_a1e+300_s1.csv": "574c6a3d0ddd59bc429f707d1a2d0da0ffb750d7daedf2626da4c338023a4ef2",
    "sale1st/online/series/MMFStar_a0.001_s0.csv": "9d4dee28b35b9acbd00c7d66b4f8a635aa3663a2de6cf80c9fe6da253bc14814",
    "sale1st/online/series/MMFStar_a0.001_s1.csv": "9f9f43f33abdd56af48552837f4ac4b516b59dc29d3b1ea610c4a7c5a6561088",
    "sale1st/online/series/MMFStar_a0.0_s0.csv": "dba7f7463433faa8b9d8b0e5e4c91d27b3818b7697cbdccecd83d66f81286ee3",
    "sale1st/online/series/MMFStar_a0.0_s1.csv": "4cfdfa4e4354b9ca1a5b5a0dbc34aa258ebdb1860592a40f4759f2b3618e55a2",
    "sale1st/online/series/MMFStar_a0.1_s0.csv": "04fa38bcb1e8649076ce1e2dc43c25ad0872341d10376fb45582647f67cf9d6d",
    "sale1st/online/series/MMFStar_a0.1_s1.csv": "edf6ed8b74c66598cc53a46d0b95851de1a1427ff4ebe7f6fcb76262a4cabe66",
    "sale1st/online/series/MMFStar_a1.0_s0.csv": "43e9fe27dc37fc2b3c6563a4977dfe2e00d22efdcdfe2d14c4fa1809e5a06cf2",
    "sale1st/online/series/MMFStar_a1.0_s1.csv": "75f11dbcd1da55d6b713db50737a1583819f2e4da9377e39616f903b96a36361",
    "sale1st/online/series/PoorK_a0.0_s0.csv": "43e9fe27dc37fc2b3c6563a4977dfe2e00d22efdcdfe2d14c4fa1809e5a06cf2",
    "sale1st/online/series/PoorK_a0.0_s1.csv": "75f11dbcd1da55d6b713db50737a1583819f2e4da9377e39616f903b96a36361",
    "sale1st/online/series/TopK_a0.0_s0.csv": "dba7f7463433faa8b9d8b0e5e4c91d27b3818b7697cbdccecd83d66f81286ee3",
    "sale1st/online/series/TopK_a0.0_s1.csv": "4cfdfa4e4354b9ca1a5b5a0dbc34aa258ebdb1860592a40f4759f2b3618e55a2",
    "sale1st/online/failures.csv": "9e2c0cb3e0840afcf11cdcb7319cdf0fc3d3466b4ee43d25b25d862390f93c56",
}


def _digests(root, pattern):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob(pattern))
    }


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    for scenario in SCENARIOS:
        config = root / f"{scenario}.json"
        config.write_text(json.dumps({"scenario": scenario, "generator": GENERATOR}))
        assert cli.main(["generate", "--config", str(config), "--out", str(root / scenario / "data")]) == 0
    return root


def sweep_digests(data_root, out_root, workers):
    """The digest of each dataset file under ``data_root`` and of each swept file,
    sweeping into ``out_root`` at ``workers``, keyed by scenario, mode and name."""
    got = {}
    for scenario in SCENARIOS:
        got.update(_digests(data_root, f"{scenario}/data/*"))
        for mode in ("offline", "online"):
            policies = [p for p in POLICY_KINDS if mode == "offline" or p != "EquityRankV"]
            plan = out_root / f"{scenario}-{mode}.json"
            plan.write_text(json.dumps({**PLAN, "policies": policies, "sim": {**PLAN["sim"], "mode": mode}}))
            out = out_root / scenario / mode
            argv = ["sweep", "--config", str(plan), "--dataset", str(data_root / scenario / "data")]
            with np.errstate(over="ignore", invalid="ignore"):
                assert cli.main([*argv, "--out", str(out), "--workers", str(workers)]) == 0
            for pattern in SWEPT:
                got.update({f"{scenario}/{mode}/{name}": d for name, d in _digests(out, pattern).items()})
    return got


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_files_match_their_digests(datasets, tmp_path, workers):
    assert sweep_digests(datasets, tmp_path, workers) == DIGESTS
