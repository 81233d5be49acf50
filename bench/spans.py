"""In-process spans around calls into aoi_rl's modules, for the traced run.

The tracer replaces names where callers look them up (module globals such
as ``aoi_rl.cli.solve_rvia``, class attributes such as
``QNetwork.forward``) with wrappers that record one span per call: name,
start, end and the enclosing span. Spans stay in compact arrays in memory
and are written out once the run ends. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import os
import resource
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around a block (``wrap`` inlines the same bookkeeping)."""
        i = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs outside the span to update counters."""
        nid = self._name_id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self):
        """Arrays over spans: name index, parent index (-1 for a root),
        duration, and self time (duration less its direct children's)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return ids, parent, dur, dur - child

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total seconds, self seconds, calls)."""
        ids, _, dur, own = self.durations()
        k = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=own, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: (float(total[j]), float(own[j]), int(calls[j]))
            for j, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every aoi_rl module at the places the
    CLI, the library itself and ``bench/libsteps.py`` look them up."""
    from aoi_rl import channel, cli, dqn, env, mdp, structure, tabular

    counts = tracer.counts

    def add(key, amount):
        counts[key] += amount

    def kernel_bytes(args, kwargs, k):
        stage = k.cost if k.cost is not None else k.reward_sa
        size = k.succ_small.nbytes + k.succ_full.nbytes + k.feasible.nbytes + stage.nbytes
        counts["mdp.kernel_bytes"] = max(counts["mdp.kernel_bytes"], size)

    def csv_bytes(args, kwargs, result):
        add("mdp.policy_csv_bytes", os.path.getsize(args[0]))

    def chain_nnz(args, kwargs, result):
        add("mdp.induced_chain.nnz", result[0].nnz)

    def violations(args, kwargs, result):
        add("structure.violations", len(result))

    def slots(key, position, attr=None):
        def after(args, kwargs, result):
            value = args[position]
            add(key, getattr(value, attr) if attr else value)

        return after

    def rss_growth(fn):
        """Growth of this process's peak RSS across each call, in MB."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = fn(*args, **kwargs)
            grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
            key = "mdp.evaluate_policy.rss_growth_mb"
            counts[key] = max(counts[key], grown)
            return result

        return measured

    def counted(key, fn):
        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return count

    def greedy_policy_fn(fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            return tracer.wrap("dqn.greedy_policy", fn(*args, **kwargs))

        return make

    # (owners, attribute, span name, after-hook)
    table = [
        ((cli, env), "load_config", "env.load_config", None),
        ((cli, tabular, mdp), "enumerate_states", "mdp.enumerate_states", None),
        ((cli, tabular, mdp), "build_kernel", "mdp.build_kernel", kernel_bytes),
        ((cli, mdp), "solve_rvia", "mdp.solve_rvia", None),
        ((mdp.TransitionKernel,), "contract_channels", "mdp.contract_channels", None),
        ((cli, mdp), "export_policy_csv", "mdp.export_policy_csv", csv_bytes),
        ((cli, mdp), "load_policy_csv", "mdp.load_policy_csv", None),
        ((mdp,), "induced_chain", "mdp.induced_chain", chain_nnz),
        ((mdp,), "markov_chain_gain", "mdp.markov_chain_gain", None),
        ((cli, structure), "check_value_monotone_age",
         "structure.check_value_monotone_age", violations),
        ((cli, structure), "check_threshold_aoi", "structure.check_threshold_aoi", violations),
        ((cli, structure), "check_threshold_single_source",
         "structure.check_threshold_single_source", violations),
        ((structure,), "diff_policies", "structure.diff_policies", None),
        ((cli, env), "simulate_policy", "env.simulate_policy", slots("env.simulate_policy.slots", 2)),
        ((env,), "step", "env.step", None),
        ((env,), "feasible_actions", "env.feasible_actions", None),
        ((env,), "draw_levels", "env.draw_levels", None),
        ((cli, tabular), "train_tabular", "tabular.train_tabular", slots("tabular.slots", 1)),
        ((tabular,), "q_update", "tabular.q_update", None),
        ((tabular,), "epsilon_greedy", "tabular.epsilon_greedy", None),
        ((cli, dqn), "train_dqn", "dqn.train_dqn", slots("dqn.slots", 1, "total_slots")),
        ((dqn,), "batch_targets", "dqn.batch_targets", None),
        ((dqn,), "gradient_step", "dqn.gradient_step", None),
        ((dqn.QNetwork,), "forward", "dqn.QNetwork.forward", None),
        ((dqn.QNetwork,), "copy", "dqn.QNetwork.copy", None),
        ((dqn.ReplayMemory,), "sample", "dqn.ReplayMemory.sample", None),
        ((dqn.ReplayMemory,), "push", "dqn.ReplayMemory.push", None),
        ((cli, dqn), "tabulate_policy", "dqn.tabulate_policy", None),
    ]
    for owners, attr, name, after in table:
        for owner in owners:
            tracer.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], after))
    for owner in (cli, mdp):
        tracer.patch(
            owner, "evaluate_policy",
            tracer.wrap("mdp.evaluate_policy", rss_growth(owner.__dict__["evaluate_policy"])),
        )
    # channel draws are counted, not spanned: two per source per slot
    tracer.patch(env, "sample_level", counted("channel.sample_level.calls", channel.sample_level))
    tracer.patch(cli, "greedy_policy_fn", greedy_policy_fn(dqn.greedy_policy_fn))
