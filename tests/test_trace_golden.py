"""Golden trace content: sha256 over all five columns of ``build_traces``.

The result digests (``test_golden_digest.py``) only see what a trace does
to a simulated machine; these pin the trace itself, column by column, so
any change to synthesis that moves a draw, reorders a record or changes a
column's value type fails here first, naming the profile and seed.

The digest hashes ``repr`` of each column, so it also pins the Python
types: plain ``int`` addresses (not numpy scalars) and ``bool`` blocking
flags (not ``0``/``1``).
"""

import hashlib

import pytest

import repro.workloads.generator as generator
from repro.cpu import trace as trace_mod
from repro.workloads import build_traces
from repro.workloads.generator import build_core_trace, iter_core_trace_chunks
from repro.workloads.profiles import ALL_APPS, APP_PROFILES

COLUMNS = ("kinds", "addresses", "values", "args", "blocking")


def trace_digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        for name in COLUMNS:
            h.update(name.encode())
            h.update(repr(getattr(chunk, name)).encode())
    return h.hexdigest()


def fresh_traces(profile, num_cores, memops, seed):
    """``build_traces`` without the per-process memo (synthesize for real)."""
    generator._TRACE_CACHE.clear()
    return build_traces(profile, num_cores, memops, seed)


#: app -> (seed 0, seed 7) digests at 8 cores x 300 memops.
GOLDEN_PROFILE_DIGESTS = {
    "water-spa": (
        "db50d7b1f8777070f8c067c5f38eb01892696f16f01c94f594b45fff6c0534b0",
        "c25184639cc8a1b05ac1585258f87760944e14858e6ad900ed14fd77a08f8584",
    ),
    "water-nsq": (
        "877dd3340535fb5e91bbc9c93d3225cfc5664532e7339d17d143999e1753cda8",
        "90a63dc260344dc44029bc5ce3d21313de7ec68e167df5c64f4f295d63160407",
    ),
    "ocean-nc": (
        "110fb0cab53114be6b616f914889a70140e519d8b3f4f9d7164c3136f88b29e5",
        "966d50af031668a9669ae1a3c88c2f3bf111888be0fd65f30b5e09047725a2d6",
    ),
    "volrend": (
        "b8c8fef2ef583f0bac86258b798dad02537df7628fc7b6afbfdc0b4a464cbf58",
        "62f49ccfab403e113ec9776f27230201f53486986265e4dd674e61a1282a2323",
    ),
    "radiosity": (
        "8a21404314d25ef2b4ef7c054d656cdd7db254142e33b149bd1e6cd9b2642e48",
        "a81b6ef4b9421b52bbc30d0bb3d8bc5a4df6fe8b5cc426a093493811d0e597e2",
    ),
    "raytrace": (
        "72b9475bb0c42cb8e94af6b8708735304fcd53f21e1cd23ad1ae81d8f44cb9df",
        "6d20adc8ab79ca695d3795311b0f1de064ca03f002cb568b3b28d531d6a6a14e",
    ),
    "cholesky": (
        "b1cc3c39171de4c8d1e48469ff10c0766d1756d3ec8f5a8fc9f734750dbc34bb",
        "07657e2d6d1004a058299599bea748fa817a808c0443d1d0749584fc8aa515f9",
    ),
    "fft": (
        "fc36fbc3430d9a46bfed0f50ccca4701036dd2330193f4446a68830ef1e1d95d",
        "c3c23147bdc99fa5e37e5232be4d4e4f6d48c8059bb35b6d5dcb8279a30d51ff",
    ),
    "lu-nc": (
        "6ad1f34944ed9274c3ee1f340837616de807e0c3075df35e75b8a220d7807aef",
        "410b6190a7d04b15ec31689c4b9bab77d996640f5476d59070214eb591116b3a",
    ),
    "lu-c": (
        "a5fba5ff6dabe468ce5f33c561a8384e507b5507c5808e64ed5d9ef6aa77260a",
        "af968e6f17aef6d5e773b5e60039a15fceb1d92ad8780efa30e24155b2e375fc",
    ),
    "radix": (
        "e7f4ce5a9d595952fe7346891ef4ddb1fdf9fb1b0e82d5333e58af7e2fbf987b",
        "ab41fc272e89bc3328192e07505512bc03a5a80031bf9e7a070cae43ece7283f",
    ),
    "barnes": (
        "daf5606f22026c998cdea766823bad98a2f771646a6227b174447864079c536c",
        "702d2a56cb0fa0a93be9f0f4637bcadf4bf06fee7c8fe96d45aed2bf3fcfb6a9",
    ),
    "fmm": (
        "fb008b8c6f43fc21bd1cddf330d2af7ef8c1ae4e072d3cd5f489cbfefb6b1010",
        "751b23cdc55cc7adf780521c16155254d435635fdd561601ccc83a2f43ebff33",
    ),
    "blackscholes": (
        "391935d1a00b261abfb88736b07289e43b7d784cfea107c9c13c8173b0c84a4e",
        "a752991bb567ec4f5b4e2cc0cec7028d8df3b2988f112c8d3434f133cecc96e4",
    ),
    "bodytrack": (
        "1c036d4fa71494397b98373888851014533df99b298fd14df318f1829a720026",
        "4d12c3b46fac6709af1a05316fb4458b9be206ebb0450aea732e714e49d3afcc",
    ),
    "canneal": (
        "aefb1daa7a15c16f1d99dd1d04045340305fe8bd83c68c4603e3e9c3d9e20813",
        "729ad01c4a294b428e933260ac0b22c35b5f40f9f0dd2fa1fd944394d91fb741",
    ),
    "dedup": (
        "2cf269a552d8979d99cccf6c1011df1abfacbe222f6c2fecdb210f280c2c0f10",
        "0f400a5c6528a435046af0d7ada01f4fe1ccff0edb9b8a912a51058709f140eb",
    ),
    "fluidanimate": (
        "36c6fd73b7cb3fa3bc6ac9d30a6690630d1ccd5fc4f34f1f24b7c22d6656898b",
        "0070c41e5f1b469eab47f988aa4ddf891174336004c896c74aa7604a76f8e666",
    ),
    "ferret": (
        "d72d742c9d29596e1d80fd035a0727cb2d5fd4bfd668369357f5b7e6e1af309e",
        "752b8ec773448ece82aa901c17c51acfe29b75c5f8554680c81490c9de9107f6",
    ),
    "freqmine": (
        "65d1144b376761a745fc80854c047900aae2348e2513ee50a32d4bd3dfa068d3",
        "50a642e3dae59d203a773c4092562a82632949fd772b94f114bc83f195bc4cd5",
    ),
}

#: radiosity 64 cores x 2500 memops, seed 0 (the pair-radiosity input).
GOLDEN_RADIOSITY_64x2500 = (
    "6d10dc241289fcab0dda827df72390bf23afa0b9316685cde6e54c75c358c347"
)


@pytest.mark.parametrize("seed_index,seed", [(0, 0), (1, 7)])
@pytest.mark.parametrize("app", ALL_APPS)
def test_profile_trace_digest(app, seed_index, seed):
    traces = fresh_traces(APP_PROFILES[app], 8, 300, seed)
    assert trace_digest(traces) == GOLDEN_PROFILE_DIGESTS[app][seed_index]


def test_pair_radiosity_trace_digest():
    traces = fresh_traces(APP_PROFILES["radiosity"], 64, 2500, 0)
    assert sum(len(chunk) for chunk in traces) == 296_910
    assert trace_digest(traces) == GOLDEN_RADIOSITY_64x2500


@pytest.mark.parametrize("app", ["radiosity", "ocean-nc", "blackscholes"])
def test_sliced_chunks_concatenate_to_the_monolithic_chunk(app):
    profile = APP_PROFILES[app]
    whole = build_core_trace(profile, 3, 8, 1200, seed=2)
    pieces = list(iter_core_trace_chunks(profile, 3, 8, 1200, seed=2, chunk_records=1000))
    assert len(pieces) == -(-len(whole) // 1000)
    assert all(len(piece) == 1000 for piece in pieces[:-1])
    joined = trace_mod.TraceChunk()
    for piece in pieces:
        joined.extend(piece)
    assert trace_digest([joined]) == trace_digest([whole])


def test_synthesis_builds_no_trace_op(monkeypatch):
    """Synthesis writes columns: no per-record object, no conversion pass."""

    def refuse(*args, **kwargs):
        raise AssertionError("build_traces must not materialize TraceOp objects")

    monkeypatch.setattr(trace_mod.TraceOp, "__init__", refuse)
    monkeypatch.setattr(trace_mod.TraceChunk, "from_ops", classmethod(refuse))
    for app in ALL_APPS:
        traces = fresh_traces(APP_PROFILES[app], 8, 300, 0)
        assert all(isinstance(chunk, trace_mod.TraceChunk) for chunk in traces)


def test_build_traces_calls_the_module_global_once_per_core(monkeypatch):
    """The per-core seam the benchmark's record counter wraps."""
    calls = []
    real = generator.build_core_trace

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(generator, "build_core_trace", spy)
    traces = fresh_traces(APP_PROFILES["barnes"], 16, 120, 4)
    assert calls == list(range(16))
    assert len(traces) == 16
