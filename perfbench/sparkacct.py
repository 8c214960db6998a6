"""Per-query Spark accounting read from the status stores.

Every query runs in its own job group, named uniquely per pass, so a
group's job ids are those of one query run only. After the query, the collector
waits for the listener bus to drain, then reads:

* job data (stages, tasks, submission times) from the application status
  store, for the job ids ``statusTracker()`` lists under the group;
* stage data (executor run time, GC time, shuffle bytes) for each stage
  those jobs ran;
* the SQL executions the query started, with their plan graphs and
  metrics, from the SQL status store: join operators and the rows they
  output.

All of it is populated with ``spark.ui.enabled=false``.
"""
from __future__ import annotations

_DONE_STAGES = ("COMPLETE", "FAILED")


class SparkAccounting:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        jsc = self.sc._jsc.sc()
        self._bus = jsc.listenerBus()
        self._store = jsc.statusStore()
        self._sql = spark._jsparkSession.sharedState().statusStore()
        gw = self.sc._gateway
        self._no_tasks = gw.jvm.java.util.ArrayList()
        self._no_quantiles = gw.new_array(gw.jvm.double, 0)
        self._last_exec = -1

    def begin(self, group: str) -> None:
        execs = self._sql.executionsList()
        n = execs.size()
        self._last_exec = execs.apply(n - 1).executionId() if n else -1
        self.sc.setJobGroup(group, group)

    def end(self, group: str, actions: list[tuple[float, float]]) -> dict:
        """Counters for the jobs of ``group``; ``actions`` are the
        (start, end) wall times of the query's top-level Spark actions."""
        self._bus.waitUntilEmpty()
        out = dict.fromkeys(
            ("jobs", "stages", "tasks", "failed_tasks", "task_s", "gc_s",
             "shuffle_read_bytes", "shuffle_write_bytes", "sql_executions",
             "joins", "join_rows", "plan_s"), 0)
        submits, stage_ids = [], set()
        for j in self.sc.statusTracker().getJobIdsForGroup(group):
            jd = self._store.job(j)
            out["jobs"] += 1
            out["stages"] += jd.numCompletedStages() + jd.numFailedStages()
            out["tasks"] += jd.numCompletedTasks() + jd.numFailedTasks()
            out["failed_tasks"] += jd.numFailedTasks()
            sub = jd.submissionTime()
            if sub.isDefined():
                submits.append(sub.get().getTime() / 1000.0)
            ids = jd.stageIds()
            stage_ids.update(ids.apply(i) for i in range(ids.size()))
        for sid in stage_ids:
            attempts = self._store.stageData(sid, False, self._no_tasks, False, self._no_quantiles)
            for i in range(attempts.size()):
                st = attempts.apply(i)
                if st.status().toString() not in _DONE_STAGES:
                    continue
                out["task_s"] += st.executorRunTime() / 1000.0
                out["gc_s"] += st.jvmGcTime() / 1000.0
                out["shuffle_read_bytes"] += st.shuffleReadBytes()
                out["shuffle_write_bytes"] += st.shuffleWriteBytes()
        # time from each action call to its first job's submission
        for start, end in actions:
            firsts = [t for t in submits if start - 0.002 <= t <= end]
            if firsts:
                out["plan_s"] += max(0.0, min(firsts) - start)
        # executions are listed by id; the store drops the oldest ones
        # once it holds spark.sql.ui.retainedExecutions, so walk back from
        # the newest instead of counting from a saved list size
        execs = self._sql.executionsList()
        for i in range(execs.size() - 1, -1, -1):
            ex = execs.apply(i)
            if ex.executionId() <= self._last_exec:
                break
            if ex.description() != group:
                continue
            out["sql_executions"] += 1
            joins, rows = self._join_rows(ex.executionId())
            out["joins"] += joins
            out["join_rows"] += rows
        return out

    def _join_rows(self, execution_id) -> tuple[int, int]:
        metrics = self._sql.executionMetrics(execution_id)
        nodes = self._sql.planGraph(execution_id).allNodes()
        joins = rows = 0
        for i in range(nodes.size()):
            node = nodes.apply(i)
            name = node.name()
            if "Join" not in name and name != "CartesianProduct":
                continue
            joins += 1
            ms = node.metrics()
            for k in range(ms.size()):
                m = ms.apply(k)
                if m.name() == "number of output rows":
                    v = metrics.get(m.accumulatorId())
                    if v.isDefined():
                        rows += int(str(v.get()).replace(",", ""))
        return joins, rows
