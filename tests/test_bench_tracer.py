"""The benchmark's in-process tracer (``bench/spans.py``) still finds every
name it wraps, so a rename in the package cannot break a traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from aoi_rl import cli, dqn, env, mdp, tabular
from aoi_rl.dqn import DqnHyperparams
from aoi_rl.env import draw_levels, initial_state, load_config, step
from aoi_rl.tabular import learner_streams

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_unpatches():
    spans = _load_spans()
    owners = (cli, dqn, env, mdp, tabular, dqn.QNetwork, dqn.ReplayMemory, mdp.TransitionKernel)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    stepped_levels = []

    def recording_step(traced_step):
        def step_and_record(config, state, action, levels):
            stepped_levels.append(levels)
            return traced_step(config, state, action, levels)

        return step_and_record

    try:
        spans.install(tracer)  # a KeyError here names a wrapped function that is gone
        tracer.patch(env, "step", recording_step(env.step))
        config = load_config(ROOT / "configs" / "learning_small.yaml")
        result = cli.train_dqn(config, DqnHyperparams(total_slots=40, seed=0))
        policy = cli.greedy_policy_fn(result.network, config)
        seen = []
        cli.simulate_policy(config, lambda state: seen.append(state) or policy(state), 5, 0)
    finally:
        tracer.unpatch()
    calls = {name: c for name, (_, _, c) in tracer.summary().items()}
    assert calls["dqn.train_dqn"] == 1
    assert calls["env.simulate_policy"] == 1
    assert calls["dqn.greedy_policy"] == 5
    # training and rollouts step through the same env function: 40 + 5 slots
    assert calls["env.step"] == 40 + 5
    # training and the rollout draw their levels in blocks, each the levels
    # draw_levels draws slot by slot from the same stream
    assert calls["env.draw_levels"] == 0
    assert tracer.counts["channel.sample_level.calls"] == 0
    channel, rollout = learner_streams(0)[2], np.random.default_rng(0)
    assert stepped_levels[:40] == [draw_levels(config, channel) for _ in range(40)]
    assert stepped_levels[40:] == [draw_levels(config, rollout) for _ in range(5)]
    rng, state = np.random.default_rng(0), initial_state(config)
    for visited in seen:
        assert visited == state
        state = step(config, state, result.greedy_policy(state), draw_levels(config, rng))
    assert len(seen) == 5
    assert [dict(vars(owner)) for owner in owners] == before
