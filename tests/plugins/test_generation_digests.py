"""Pinned digests of generated scenarios.

Scenario generation must be a pure function of (configuration, plugin
parameters, seed): a resumed suite regenerates its scenario stream and
skips the ids it already holds, and every store comparison assumes two runs
of one spec draw the same typos.  A store diff between two runs of the same
code cannot see a generator change, so these digests pin the generated
scenarios themselves -- id, category, description, metadata and operations
-- for

* the 15 cells of ``examples/specs/paper_suite.toml`` at seed 2008, and
* the spelling plugin on five systems with the azerty-fr and dvorak
  layouts, sampling 1, 2 and 64 typos per token and enumerating all of
  them.

Running the tier-1 matrix over several Python versions also pins
``random.sample``'s draws across those versions.

Print the current digests with::

    PYTHONPATH=src python tests/plugins/test_generation_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any

from repro.core.engine import InjectionEngine
from repro.core.infoset import ConfigNode
from repro.core.spec import ExperimentSpec, derive_seed
from repro.core.templates.base import InsertOperation
from repro.plugins.spelling import SpellingMistakesPlugin
from repro.registry import get_system

REPO = Path(__file__).resolve().parents[2]
PAPER_SUITE = REPO / "examples" / "specs" / "paper_suite.toml"
SEED = 2008

SPELLING_SYSTEMS = ("apache", "sshd", "mysql", "bind", "djbdns")
SPELLING_LAYOUTS = ("azerty-fr", "dvorak")
SPELLING_SAMPLES = (1, 2, 64, None)

PAPER_SUITE_DIGESTS = {
    "mysql/spelling": "87107c3ec7aa67045cf64ef8695f7e49669cf2c01188b0d9077e053a93006f80",
    "mysql/structural": "1963cf2311cb685407681d4b7cb549654471b7baa122e7ee83fff88f55674308",
    "mysql/semantic-constraints": "0cbb43f7f662435405ffab2042156a032340abb67fe9ccaba6c82a93f035c79a",
    "postgres/spelling": "7d37f6ab811de77863eac2bb4e1c4874ccea5b043c61169535b7dd39d751097d",
    "postgres/structural": "d073313a0bd32239c4608447dff6552c0c3c3a71cda313a5fec2adffb73625d9",
    "postgres/semantic-constraints": "5c1433503279d82a6e366c1ef8f1cfe248ccddd005b89abefee67b13d3c9ccb4",
    "apache/spelling": "8efb5607d7b8c5e50a73fc7a2438bab35971e3c6f737926e99eb1aea27bbd163",
    "apache/structural": "f7d56cc4ff801199c87de7b3d5bf16b1b9b809b1966eb22595147e3d47753056",
    "apache/semantic-constraints": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bind/spelling": "514ae0cc8d21007023c2e763db3ce3370f0e62eb98465657bbec029c7766549f",
    "bind/structural": "3c9aaf912ca32d76dd228dfe289ab09066c3c229703e59958a2cdc7cecf2093c",
    "bind/semantic-constraints": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "djbdns/spelling": "9397a22420acde8461d433b9d5d6ec3188245b0e03989345f4140379d0871a9e",
    "djbdns/structural": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "djbdns/semantic-constraints": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

SPELLING_DIGESTS = {
    "apache/azerty-fr/1": "bc393d6ce6b0cc898d6b79e0f92b8d2e397504119760f4f7b1fa037eb3cba2e8",
    "apache/azerty-fr/2": "bab9b68b16680b880ffb7085bda0830fbbdabfdeeb6ba081b3da68ac2c48f54a",
    "apache/azerty-fr/64": "eb4431f5c4a93facd5fba6a3d7291a322d1ceb961e1a8f26701318c748ec6dd3",
    "apache/azerty-fr/None": "67135ce000fceb2c8e404151933a209e00562bd23041bd1fe972a12c9cab4eec",
    "apache/dvorak/1": "2e60ee814df07b1e538c91422a348cb36845e852f910eb5ada2298eff043fe2a",
    "apache/dvorak/2": "a49644eceedeb85a5194c4f7689a7755b8dd72748743073199e77884357e1695",
    "apache/dvorak/64": "233303be66855f9020ef74777486031164944e4e713ab2e505bd9c9864ffb258",
    "apache/dvorak/None": "4e257542935775d5a1e6166d6725812cddc0abf5bae2eb64fc0f90fdd1bc70f0",
    "sshd/azerty-fr/1": "ad47d119c5dbc01783af87a9d88501d22546410589e4c28710c50fad7ca63385",
    "sshd/azerty-fr/2": "84e4aa8956849d3404d0942b651efcd727c32860fb4ea119dba51bd0e76b8ea1",
    "sshd/azerty-fr/64": "30e68af889fe7cf82976ebf0d8fd71d9f803ac35a9b067ec77e91c237adbd206",
    "sshd/azerty-fr/None": "920e7bae76c21c6b03a80144daa05eade7b4e6b8863cb5294dc01763b32ef176",
    "sshd/dvorak/1": "7a8a7b015fdd30663b58ecc462621bc0f855d328e5bf218bc298c9fee1673476",
    "sshd/dvorak/2": "7c7a5eaf030fd71fdc1585e237d1cd343566d745e1acc0ce793506e24728ea92",
    "sshd/dvorak/64": "d6472fcd7b6d7e69993af8757643ead237d82721382d7d8a1f7168ae6f8709ad",
    "sshd/dvorak/None": "94005289597a11b825d329810dd0cb6d5578b18ac5e396f33f13373620064696",
    "mysql/azerty-fr/1": "22e81eaf15a9282329cfa1d40eac9538d52ff21474a464ca28e5fff83f5ed2bd",
    "mysql/azerty-fr/2": "e0ea47c09979d0577fbedb4c90b52bf03b314947c227f683ab8d376a424b5143",
    "mysql/azerty-fr/64": "8cb56a1e1ff484fcb6d8b0b6061e98fb5af920a0d6887f89afbeadef7c3b7be2",
    "mysql/azerty-fr/None": "19242eda082010a0022a285ae4cd8d4db39f698e43c842ffde9123691b2c0e58",
    "mysql/dvorak/1": "7b6a92ae65c4a21a0c14090716af87cc5a4daf816ee95b5e83e17b93af1687a6",
    "mysql/dvorak/2": "06303cc9745d0bca86a20c8704628f61619a37680de6c2c673317261b546c890",
    "mysql/dvorak/64": "04e4836037e9af166b8a5cb61f627ae6d49bd8cce14c88fcb8415eaac90d428a",
    "mysql/dvorak/None": "0028d065f47e9b51afdbfa54957495e6f6f08c790fd4c8a39e61725282d86cf5",
    "bind/azerty-fr/1": "c6889259f4cf83747b2962bc6e6ae681ed34e0e8abdbcfc4172f8762d7d67251",
    "bind/azerty-fr/2": "8e1944056f42bbe895127dffe25cfbb7d32cd4fe7a12901d8566589e93ac03e4",
    "bind/azerty-fr/64": "58a2c98852aa86af4548860317607862031dc3a69f764b3086cb6c79898d57f4",
    "bind/azerty-fr/None": "a3cb49096ad6c30560f6ecde2ebc5a903a4242d8dca66da9dc477105e0837fa2",
    "bind/dvorak/1": "58d7e07a031fe969ab2af532cd376839fa4a9e5ac9a03da5c09ff147d42773e8",
    "bind/dvorak/2": "a08a05ca35da5e7d8eeb73a9f72387c5b6ea8d7d6ac861d90f82cf6fae9db30e",
    "bind/dvorak/64": "25b842e5db72360915b2dc5d32198e2271b826656cfe96a0f042b1cd0e804a92",
    "bind/dvorak/None": "bb65cb7f15ec259c85ce678e345c559a743533e51a137321149b6a7d03a21ceb",
    "djbdns/azerty-fr/1": "89270a00c29bde5607a2bac32812e662416ed349696c3accef7b110d734e09f7",
    "djbdns/azerty-fr/2": "2301bc6f4b95487b47dfa02d8ce3642892634d9dd635c1d37668225cb8febf8a",
    "djbdns/azerty-fr/64": "f859b4e647d3faed164bf96edd365ff62a882663b1e54ea516e0abe2c4e9a07d",
    "djbdns/azerty-fr/None": "67fe299595d9f2055f7b64fc4bccfd058771bd5222ba19949fbb6b80d113af34",
    "djbdns/dvorak/1": "9308bedb0291d8df1e5111e9fa3c549a8b72fb6d6be97800ddda66a4edfcba45",
    "djbdns/dvorak/2": "207d0c555e033c73929ae28533919f3723860711b14b168a1d7f1510ae4e53e3",
    "djbdns/dvorak/64": "444029b45ddcdd4553b5e6b386638e07b386d1b67d469e931ce1d5df6392c92c",
    "djbdns/dvorak/None": "b66bf3d945e1f8b052e60c0858a32b419ef430615d780e527c760bad35023e48",
}


def _json_default(value: Any) -> Any:
    """Order-stable JSON for the non-JSON values scenarios carry."""
    if isinstance(value, ConfigNode):
        return value.pretty()
    if isinstance(value, (set, frozenset)):
        return sorted(json.dumps(item, sort_keys=True, default=_json_default) for item in value)
    return repr(value)


def _operation(operation: Any) -> Any:
    """An operation's dataclass repr, with an inserted node spelled out in full."""
    if isinstance(operation, InsertOperation):
        return [repr(operation), operation.node.pretty()]
    return repr(operation)


def scenarios_digest(scenarios) -> str:
    digest = hashlib.sha256()
    for scenario in scenarios:
        entry = [
            scenario.scenario_id,
            scenario.category,
            scenario.description,
            scenario.metadata,
            [_operation(operation) for operation in scenario.operations],
        ]
        line = json.dumps(entry, sort_keys=True, default=_json_default)
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def generate(factory, plugin, seed: int) -> str:
    engine = InjectionEngine(factory, plugin)
    return scenarios_digest(plugin.generate(engine.view_set, random.Random(seed)))


def paper_suite_digests() -> dict[str, str]:
    spec = ExperimentSpec.from_file(PAPER_SUITE)
    spec.validate()
    assert spec.execution.seed == SEED
    result = {}
    for key, factory in spec.build_systems().items():
        for plugin in spec.build_plugins():
            result[f"{key}/{plugin.name}"] = generate(
                factory, plugin, derive_seed(SEED, key, plugin.name)
            )
    return result


def spelling_digests() -> dict[str, str]:
    result = {}
    for system in SPELLING_SYSTEMS:
        for layout in SPELLING_LAYOUTS:
            for sample in SPELLING_SAMPLES:
                plugin = SpellingMistakesPlugin.from_params(
                    {"layout": layout, "mutations_per_token": sample}
                )
                result[f"{system}/{layout}/{sample}"] = generate(
                    get_system(system), plugin, derive_seed(SEED, system, plugin.name)
                )
    return result


def test_paper_suite_scenarios_are_pinned():
    assert paper_suite_digests() == PAPER_SUITE_DIGESTS


def test_spelling_scenarios_are_pinned_per_layout_and_sample_size():
    assert spelling_digests() == SPELLING_DIGESTS


if __name__ == "__main__":
    print(json.dumps({"paper-suite": paper_suite_digests(), "spelling": spelling_digests()}, indent=4))
