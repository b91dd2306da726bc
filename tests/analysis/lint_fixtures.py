"""Good/bad source pairs for every repro-lint rule code.

Each fixture is a minimal snippet pair: ``bad`` must trigger exactly the
rule's code at least once, ``good`` is the contract-conforming spelling
of the same intent and must lint clean.  ``rel_path`` places the snippet
in the right module kind (``src/...`` = engine rules apply,
``benchmarks/...`` = relaxed).  The meta-test in ``test_rules.py``
asserts every registered rule has a pair here, so adding a rule without
a fixture fails CI.
"""

ENGINE_PATH = "src/repro/fixture_mod.py"
TESTS_PATH = "tests/test_fixture_mod.py"

RULE_FIXTURES = {
    "RL000": {
        "bad": "def f(:\n",
        "good": "X = 1\n",
        "rel_path": ENGINE_PATH,
    },
    "RL101": {
        "bad": (
            "import numpy as np\n"
            "\n"
            "def noise(n):\n"
            "    return np.random.rand(n)\n"
        ),
        "good": (
            "import numpy as np\n"
            "\n"
            "def noise(n, rng):\n"
            "    return rng.random(n)\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL102": {
        "bad": (
            "import random\n"
            "\n"
            "def shuffle(xs):\n"
            "    random.shuffle(xs)\n"
        ),
        "good": (
            "def shuffle(xs, rng):\n"
            "    return [xs[i] for i in rng.permutation(len(xs))]\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL103": {
        "bad": (
            "import numpy as np\n"
            "\n"
            "def fresh_rng():\n"
            "    return np.random.default_rng()\n"
        ),
        "good": (
            "import numpy as np\n"
            "\n"
            "def fresh_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL104": {
        "bad": (
            "import numpy as np\n"
            "\n"
            "def child_stream(rng):\n"
            "    return np.random.default_rng(rng.integers(1 << 62))\n"
        ),
        "good": (
            "def child_stream(rng):\n"
            "    return rng.spawn(1)[0]\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL201": {
        "bad": (
            "def emit(items):\n"
            "    pending = set(items)\n"
            "    return [v for v in pending]\n"
        ),
        "good": (
            "def emit(items):\n"
            "    pending = set(items)\n"
            "    return [v for v in sorted(pending)]\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL202": {
        "bad": (
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        "good": (
            "def stamp(round_no):\n"
            "    return round_no\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL301": {
        "bad": (
            "def truncate(batch, keep):\n"
            "    batch.senders[keep] = -1\n"
        ),
        "good": (
            "def truncate(batch, keep):\n"
            "    snd = batch.senders.copy()\n"
            "    snd[keep] = -1\n"
            "    return snd\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL302": {
        "bad": (
            "def rewrite(rcv_all):\n"
            "    alias = rcv_all[:]\n"
            "    alias[0] = 7\n"
        ),
        "good": (
            "def rewrite(rcv_all):\n"
            "    fresh = rcv_all.copy()\n"
            "    fresh[0] = 7\n"
            "    return fresh\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL303": {
        "bad": (
            "import numpy as np\n"
            "\n"
            "def pack(col):\n"
            "    return col.astype(np.int32)\n"
        ),
        "good": (
            "import numpy as np\n"
            "\n"
            "def pack(col):\n"
            "    return col.astype(np.int64)\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL501": {
        "bad": (
            "def probe_round(rcv, snd, rng):\n"
            "    if rng.random() < 0.5:\n"
            "        return None\n"
            "    return len(rcv)\n"
        ),
        "good": (
            "def probe_round(rcv, snd, round_no):\n"
            "    if round_no % 2:\n"
            "        return None\n"
            "    return len(rcv)\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL502": {
        "bad": (
            "def probe_round(rcv, counts):\n"
            "    counts[0] = -1\n"
            "    return counts\n"
        ),
        "good": (
            "def probe_round(rcv, counts):\n"
            "    mine = counts.copy()\n"
            "    mine[0] = -1\n"
            "    return mine\n"
        ),
        "rel_path": ENGINE_PATH,
    },
    "RL601": {
        "bad": (
            "import os\n"
            "\n"
            "def pick_engine():\n"
            "    return os.environ.get('REPRO_ENGINE') or 'vectorized'\n"
        ),
        "good": (
            "from repro.runtime import select_choice\n"
            "\n"
            "def pick_engine():\n"
            "    return select_choice('engine')\n"
        ),
        "rel_path": ENGINE_PATH,
    },
}
